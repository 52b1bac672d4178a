"""Deterministic pseudo-random integers for reproducible test inputs.

The generator is SplitMix64, fully specified so runs can be reproduced in any
language.  State is a 64-bit integer.  One step:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Bounded draws use rejection sampling on the top of the 64-bit range, so they
are exactly uniform.  Sub-case seeds are successive raw outputs of one
generator seeded with the parent seed; ``derived_seed`` names the k-th.
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream; deterministic given the seed (taken mod 2**64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform draw from {0, ..., bound-1} by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)


def derived_seed(seed: int, index: int) -> int:
    """Seed for sub-case `index`: the (index+1)-th raw output of SplitMix64(seed)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    gen = SplitMix64(seed)
    value = gen.next_u64()
    for _ in range(index):
        value = gen.next_u64()
    return value

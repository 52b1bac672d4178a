"""Deterministic pseudo-random integers for reproducible test inputs.

The generator is SplitMix64, fully specified so runs can be reproduced in any
language.  State is a 64-bit integer.  One step:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Bounded draws use rejection sampling on the top of the 64-bit range, so they
are exactly uniform: a draw from the m values lo..hi takes outputs until one,
u, is below 2**64 - (2**64 mod m), and returns lo + (u mod m).  Sub-case seeds
are successive raw outputs of one generator seeded with the parent seed;
``derived_seed`` names the k-th.
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream; deterministic given the seed (taken mod 2**64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_ints(self, lo: int, hi: int, count: int) -> list[int]:
        """count uniform draws from [lo, hi], a range of 1..2**64 values checked first."""
        bound = hi - lo + 1
        if not 0 < bound <= 1 << 64:
            raise ValueError("range must hold 1..2**64 values")
        limit = (1 << 64) - (1 << 64) % bound
        state = self._state
        out: list[int] = []
        while len(out) < count:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                out.append(lo + z % bound)
        self._state = state
        return out

    def next_u64(self) -> int:
        return self.next_ints(0, _MASK64, 1)[0]

    def next_below(self, bound: int) -> int:
        """Uniform draw from {0, ..., bound-1}; bound <= 2**64."""
        return self.next_ints(0, bound - 1, 1)[0]

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        return self.next_ints(lo, hi, 1)[0]


def derived_seed(seed: int, index: int) -> int:
    """Seed for sub-case `index`: the (index+1)-th raw output of SplitMix64(seed)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return SplitMix64(seed).next_ints(0, _MASK64, index + 1)[index]

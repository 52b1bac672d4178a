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
are successive raw outputs of one generator seeded with the parent seed.
After k steps the state is seed + k * 0x9E3779B97F4A7C15 mod 2**64, so a
batch of k steps runs at once, step j in the 128-bit lane j of one integer,
state * ONES + STEPS masked by LOW to 64 bits a lane; it draws again only for
the outputs it rejected, so it gives the outputs and end state of k steps.
"""

import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MAX_LANES = 4096  # steps per batch, which bounds a batch's ints and its cached lanes


@lru_cache(maxsize=64)
def _lanes(count: int) -> tuple[int, int, int, struct.Struct]:
    """ONES, STEPS (lane j: (j + 1) * GAMMA mod 2**64), LOW and the little-endian layout."""
    lanes = struct.Struct("<" + "Q8x" * count)
    ones = int.from_bytes(lanes.pack(*[1] * count), "little")
    steps = lanes.pack(*[k * _GAMMA & _MASK64 for k in range(1, count + 1)])
    return ones, int.from_bytes(steps, "little"), ones * _MASK64, lanes


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
            need = min(count - len(out), _MAX_LANES)
            ones, steps, low, lanes = _lanes(need)
            z = (state * ones + steps) & low
            z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
            z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
            z ^= z >> 31  # lane k's low 64 bits; the next lane's bits land above them
            out += [lo + u % bound for u in lanes.unpack(z.to_bytes(16 * need, "little")) if u < limit]
            state = (state + need * _GAMMA) & _MASK64
        self._state = state
        return out

    def next_u64(self) -> int:
        return self.next_ints(0, _MASK64, 1)[0]

"""Exact rational scalars.  `integer_values` is the one intake: tensor entries, vectors, matrix
rows and algebra coefficients, each checked as by `as_fraction`, are kept as integer numerators
over one least denominator, and `refuse_denominators` is the one size check on a computed
tensor's or algebra element's denominators, `refuse_numerators` on a product's numerators (of
vectors or of algebra elements).  Computed values (entries, slices, evaluations, determinants,
Pfaffians, invariants) are Fractions; seeded draws, the slot system and witnesses are ints."""

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import SizeGuardError

MAX_RATIONAL_TEXT = 1000
# bound on the values' count times the bit length of their common denominator; each
# integer_values call has it alone, a matrix's rows share it
MAX_DENOMINATOR_BITS = 1 << 22
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INT = frozenset({int})


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "[-]digits[/digits]" string to an exact Fraction.

    Floats are rejected: exactness is a contract, not a preference.  Strings
    are capped in length and never take exponents, so no input expands
    without bound; a zero denominator is a ValueError like any other bad text.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_TEXT or not _RATIONAL_TEXT.fullmatch(value):
            raise ValueError(f"not a [-]digits[/digits] rational: {value[:40]!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def common_denominator(values: Sequence, max_bits: int | None = None) -> tuple[list[int], int]:
    """For Fractions and ints, nums and den with values[i] == nums[i] / den, den least;
    SizeGuardError once len(values) * den.bit_length() passes a given max_bits."""
    den = 1
    for d in {v.denominator for v in values}:
        den = lcm(den, d)
        if max_bits is not None and den.bit_length() * len(values) > max_bits:
            raise SizeGuardError(f"common denominator passes {max_bits // len(values)} bits")
    return [v.numerator * (den // v.denominator) for v in values], den


def refuse_denominators(what: str, dens: Iterable[int], size: int) -> None:
    """SizeGuardError when size values over the denominators' product would pass the budget:
    the bit lengths of the denominators > 1, summed, times size pass MAX_DENOMINATOR_BITS."""
    if sum(d.bit_length() for d in dens if d > 1) * size > MAX_DENOMINATOR_BITS:
        raise SizeGuardError(f"{what} denominators pass {MAX_DENOMINATOR_BITS // size} bits")


def refuse_numerators(what: str, bits: int, size: int) -> None:
    """SizeGuardError when size products of one numerator from each of some factors could pass
    the budget: bits, the bit lengths of the factors' largest numerators summed, times size."""
    if bits * size > MAX_DENOMINATOR_BITS:
        raise SizeGuardError(f"{what} numerators pass {MAX_DENOMINATOR_BITS // size} bits")


def integer_values(values: Iterable, max_bits: int = MAX_DENOMINATOR_BITS) -> tuple[list[int], int]:
    """The one scalar intake: common_denominator of the values, each checked as
    `as_fraction` checks it, under max_bits.  A plain int builds no Fraction."""
    values = list(values)
    if _INT.issuperset(map(type, values)):  # tests each type in turn, building no set
        return values, 1
    return common_denominator([v if type(v) is int else as_fraction(v) for v in values], max_bits)

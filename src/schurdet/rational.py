"""Exact rational scalars: every scalar the package takes or hands out is a Fraction;
inside, a `Tensor` and the kernels hold integer numerators over one denominator."""

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import SizeGuardError

MAX_RATIONAL_TEXT = 1000
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


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


def common_denominator(
    values: Sequence[Fraction], max_bits: int | None = None
) -> tuple[list[int], int]:
    """Integers nums and den with values[i] == nums[i] / den, den the least such;
    SizeGuardError once len(values) * den.bit_length() passes a given max_bits."""
    den = 1
    for d in {v.denominator for v in values}:
        den = lcm(den, d)
        if max_bits is not None and den.bit_length() * len(values) > max_bits:
            raise SizeGuardError(f"common denominator passes {max_bits // len(values)} bits")
    return [v.numerator * (den // v.denominator) for v in values], den

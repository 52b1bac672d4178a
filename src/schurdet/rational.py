"""Exact rational scalars: every scalar the package takes or hands out is a Fraction;
inside, a `Tensor` and the kernels hold integer numerators over one denominator."""

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

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


def common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers nums and den with values[i] == nums[i] / den, den the least such."""
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den

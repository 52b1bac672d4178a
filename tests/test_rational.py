from fractions import Fraction

import pytest

from schurdet import as_fraction
from schurdet.rational import MAX_RATIONAL_TEXT, common_denominator


@pytest.mark.parametrize(
    "text", ["1e3", "1.5", "+2", " 3", "3 ", "1/-2", "--1", "1/", "/2", "", "٣"]
)
def test_only_plain_digit_text_is_accepted(text):
    with pytest.raises(ValueError):
        as_fraction(text)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


def test_length_cap():
    assert as_fraction("1" * MAX_RATIONAL_TEXT) == int("1" * MAX_RATIONAL_TEXT)
    with pytest.raises(ValueError):
        as_fraction("1" * (MAX_RATIONAL_TEXT + 1))


@pytest.mark.parametrize("value", [0.5, True, None, [1]])
def test_non_exact_types_are_refused(value):
    with pytest.raises(TypeError):
        as_fraction(value)


def test_common_denominator_is_the_least_one():
    values = [Fraction(1, 4), Fraction(-5, 6), Fraction(3), Fraction(0)]
    assert common_denominator(values) == ([3, -10, 36, 0], 12)
    assert common_denominator([]) == ([], 1)

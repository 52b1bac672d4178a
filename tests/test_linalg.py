from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_det, reference_rank
from schurdet import SizeGuardError, det_exact, linalg, rank_exact, slot_system_matrix

# wide integers make elimination's intermediates pass 64 bits, so every exact
# division is checked on multi-word integers as well as on small fractions
entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)) | st.integers(
    -(2**64) + 1, 2**64 - 1
)


@st.composite
def matrices(draw, square=False):
    """Rational matrices with forced dependent rows and all-zero columns."""
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows if square else draw(st.integers(0, 6))
    m = [draw(st.lists(entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if n_rows >= 3 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        m[draw(st.integers(2, n_rows - 1))] = [a * x + b * y for x, y in zip(m[0], m[1])]
    for col in draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=2)):
        for row in m:
            if col < len(row):
                row[col] = Fraction(0)
    return draw(st.permutations(m))


class TestAgainstFractionElimination:
    @settings(max_examples=100)
    @given(matrices())
    def test_rank(self, m):
        assert rank_exact(m) == reference_rank(m)

    @settings(max_examples=100)
    @given(matrices(square=True))
    def test_det(self, m):
        assert det_exact(m) == reference_det(m)

    @settings(max_examples=50)
    @given(st.integers(1, 5), st.integers(6, 9), st.data())
    def test_wide_and_tall(self, short, long, data):
        wide = data.draw(st.lists(st.lists(entries, min_size=long, max_size=long),
                                  min_size=short, max_size=short))
        tall = [list(col) for col in zip(*wide)]
        assert rank_exact(wide) == rank_exact(tall) == reference_rank(wide)
        assert rank_exact(wide) <= short

    def test_degenerate_shapes(self):
        assert rank_exact([]) == rank_exact([[]]) == 0
        assert det_exact([]) == 1
        assert rank_exact([[0]]) == 0 and det_exact([[0]]) == 0
        assert rank_exact([["-3/4"]]) == 1 and det_exact([["-3/4"]]) == Fraction(-3, 4)
        with pytest.raises(ValueError):
            det_exact([[]])

    def test_row_swaps_flip_the_sign(self):
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert det_exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1

    def test_slot_system_det(self):
        for mu1 in range(1, 65):
            assert det_exact(slot_system_matrix(mu1)) == (-1) ** mu1 * mu1


class TestInputContract:
    INTS = [[2, -1, 0], [4, 3, -6], [0, 5, 7]]

    def test_int_fraction_and_text_agree(self):
        as_fractions = [[Fraction(x, 3) for x in row] for row in self.INTS]
        as_text = [[f"{x}/3" for x in row] for row in self.INTS]
        mixed = [self.INTS[0], as_fractions[1], as_text[2]]
        assert det_exact(as_fractions) == det_exact(as_text) == det_exact(self.INTS) / 27
        assert det_exact(mixed) == det_exact(self.INTS) / 9
        assert rank_exact(self.INTS) == rank_exact(as_fractions) == rank_exact(as_text) == 3
        assert rank_exact(mixed) == 3

    @pytest.mark.parametrize("bad", [True, 0.5, 1.0, None])
    def test_bool_and_float_refused(self, bad):
        m = [[1, 2], [3, bad]]
        with pytest.raises(TypeError):
            rank_exact(m)
        with pytest.raises(TypeError):
            det_exact(m)

    def test_ragged_and_non_square(self):
        with pytest.raises(ValueError, match="ragged"):
            rank_exact([[1, 2], [3]])
        with pytest.raises(ValueError, match="square"):
            det_exact([[1, 2], ["3"]])
        with pytest.raises(ValueError, match="square"):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_bad_text_refused(self):
        with pytest.raises(ValueError):
            rank_exact([["1/0"]])
        with pytest.raises(ValueError):
            det_exact([["1e3"]])

    def test_input_is_not_mutated(self):
        m = [row[:] for row in self.INTS]
        det_exact(m)
        rank_exact(m)
        assert m == self.INTS

    def test_entry_bits_at_and_past_the_bound(self, monkeypatch):
        """The bound sums each row's largest bit length once denominators are cleared."""
        assert linalg.MAX_DET_BITS == 1024
        assert det_exact([[1 << 1022, 0], [0, 1]]) == 1 << 1022  # 1023 + 1 bits
        assert det_exact([["1/3", 0], [0, 1 << 1022]]) == Fraction(1 << 1022, 3)
        monkeypatch.setattr(linalg, "_eliminate", None)  # the guard fires before elimination
        one_bit_over = [[1 << 1022, 0], [0, 2]]
        cleared_past = [[Fraction(1 << 1022, 3), "1/2"], [0, 1]]  # row 1 becomes [2**1023, 3]
        for m in (one_bit_over, cleared_past):
            with pytest.raises(SizeGuardError, match="sum to 1025 bits > 1024"):
                det_exact(m)

    def test_denominators_past_the_bound(self):
        coprime = [f"1/{10**997 + 2 * k + 1}" for k in range(65)]
        with pytest.raises(SizeGuardError, match="common denominator"):
            rank_exact([coprime])
        with pytest.raises(SizeGuardError, match="common denominator"):
            det_exact([coprime] + [[0] * 65] * 64)
        assert rank_exact([coprime[:8]] * 8) == 1

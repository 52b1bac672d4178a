from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from schurdet import (
    InternalConsistencyError,
    SizeGuardError,
    Tensor,
    all_permutations,
    degeneracy_crosscheck_222,
    det_exact,
    hyperdet_222,
    permute_factors,
    pfaffian,
    random_skew_matrix,
    random_tensor,
    rank_one,
    schlafli_coefficients,
)

E2 = (Fraction(0), Fraction(1))

DIAGONAL = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
NULL_PATTERN = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})

seeds = st.integers(0, 2**32)
# small rationals with mixed denominators and both signs
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
small_ints = st.integers(-9, 9).map(Fraction)
nonzero_pairs = st.tuples(fractions, fractions).filter(any)


def fraction_tensors_222(values=fractions):
    return st.lists(values, min_size=8, max_size=8).map(lambda e: Tensor(3, 2, e))


# one to three nonzero entries: most of these have a witness on the probe grid
sparse_tensors_222 = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3), fractions.filter(bool), min_size=1, max_size=3
).map(lambda m: Tensor.from_map(3, 2, m))
rank_one_tensors_222 = st.lists(nonzero_pairs, min_size=3, max_size=3).map(rank_one)
# these rarely have a grid witness, so the reference search mostly runs to the end
dense_tensors_222 = st.one_of(
    fraction_tensors_222(small_ints), fraction_tensors_222(), rank_one_tensors_222
)


@st.composite
def skew_matrices(draw):
    """Even-size skew matrices with fraction entries and up to two zero rows and columns."""
    size = draw(st.sampled_from([0, 2, 4, 6, 8]))
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=2))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if not {i, j} & zero_rows:
                rows[i][j] = draw(fractions)
                rows[j][i] = -rows[i][j]
    return rows


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0, 7], [-7, 0]]) == 7

    def test_four_by_four_frozen(self):
        # pf = af - be + cd for the generic labeled skew matrix
        a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
        m = [
            [0, a, b, c],
            [-a, 0, d, e],
            [-b, -d, 0, f],
            [-c, -e, -f, 0],
        ]
        assert pfaffian(m) == a * f - b * e + c * d == 8
        assert det_exact([[Fraction(v) for v in row] for row in m]) == 64

    def test_empty(self):
        assert pfaffian([]) == 1

    def test_det_size_guard_fires_before_the_copy(self):
        # a float entry would fail the copy with TypeError
        with pytest.raises(SizeGuardError, match="65"):
            det_exact([[0.5]] * 66)

    def test_pfaffian_size_guard_fires_before_the_copy(self):
        # a float entry would fail the copy with TypeError
        with pytest.raises(SizeGuardError):
            pfaffian([[0.5] * 10] * 10)

    @settings(max_examples=30)
    @given(seeds, st.sampled_from([2, 4, 6, 8]))
    def test_square_is_the_determinant(self, seed, size):
        m = random_skew_matrix(size, seed)
        assert pfaffian(m) ** 2 == det_exact(m)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            pfaffian([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            pfaffian([[1, 1], [-1, 0]])

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            pfaffian(random_skew_matrix(10, 1))

    def test_skew_sampler_is_deterministic(self):
        assert random_skew_matrix(6, 4) == random_skew_matrix(6, 4)

    @settings(max_examples=80)
    @given(skew_matrices())
    def test_matches_the_fraction_expansion(self, m):
        value = pfaffian(m)
        assert value == oracles.reference_pfaffian(m)
        assert value**2 == det_exact(m)

    def test_denominators_are_cleared_to_the_right_power(self):
        # Pf(c A) = c^(size/2) Pf(A), here with c = 1/6 and mixed denominators
        m = random_skew_matrix(8, 12)
        scaled = [[v / 6 for v in row] for row in m]
        assert pfaffian(scaled) == pfaffian(m) / 6**4 == oracles.reference_pfaffian(scaled)
        halves = [[0, "1/2", 0, 0], ["-1/2", 0, 0, 0], [0, 0, 0, "2/3"], [0, 0, "-2/3", 0]]
        assert pfaffian(halves) == Fraction(1, 3)


class TestHyperdet222:
    def test_diagonal_normalization(self):
        assert hyperdet_222(DIAGONAL) == 1

    def test_null_pattern_vanishes(self):
        assert hyperdet_222(NULL_PATTERN) == 0

    def test_schlafli_coefficients_on_diagonal(self):
        assert schlafli_coefficients(DIAGONAL) == (0, 1, 0)

    @settings(max_examples=60)
    @given(seeds)
    def test_matches_the_expanded_polynomial(self, seed):
        t = random_tensor(3, 2, seed)
        assert hyperdet_222(t) == oracles.expanded_quartic_invariant(t)

    @settings(max_examples=25)
    @given(seeds)
    def test_slot_permutation_invariance(self, seed):
        t = random_tensor(3, 2, seed)
        value = hyperdet_222(t)
        for sigma in all_permutations(3):
            assert hyperdet_222(permute_factors(sigma, t)) == value

    @settings(max_examples=25)
    @given(seeds, st.integers(-5, 5))
    def test_degree_four_homogeneity(self, seed, c):
        t = random_tensor(3, 2, seed)
        assert hyperdet_222(t.scale(c)) == Fraction(c) ** 4 * hyperdet_222(t)

    def test_rank_one_vanishes(self):
        for seed in range(10):
            vecs = [
                tuple(Fraction(v) for v in pair)
                for pair in [(seed + 1, 2), (3, seed - 7), (seed, 1)]
            ]
            assert hyperdet_222(rank_one(vecs)) == 0

    @settings(max_examples=80)
    @given(fraction_tensors_222())
    def test_fraction_tensors_match_the_expanded_polynomial_and_the_pencil(self, t):
        assert hyperdet_222(t) == oracles.expanded_quartic_invariant(t)
        assert schlafli_coefficients(t) == oracles.reference_schlafli_coefficients(t)

    def test_coefficients_scale_by_the_squared_denominator(self):
        half = DIAGONAL.scale(Fraction(1, 2))
        assert schlafli_coefficients(half) == (0, Fraction(1, 4), 0)
        assert hyperdet_222(half) == Fraction(1, 16)
        t = Tensor(3, 2, ["1/2", "1/3", 0, "-5/6", "2", "1/6", "-1", "1/4"])
        assert t.den == 12
        assert schlafli_coefficients(t) == oracles.reference_schlafli_coefficients(t)

    def test_wrong_format(self):
        with pytest.raises(ValueError):
            hyperdet_222(random_tensor(3, 3, 1))
        with pytest.raises(ValueError):
            hyperdet_222(random_tensor(2, 2, 1))


class TestCrosscheck:
    def test_null_pattern_has_a_rational_witness(self):
        verdict, witness = degeneracy_crosscheck_222(NULL_PATTERN)
        assert verdict == "consistent"
        assert witness is not None
        assert witness.vectors == (E2, E2, E2)

    def test_nondegenerate_tensor_has_no_witness(self):
        verdict, witness = degeneracy_crosscheck_222(DIAGONAL)
        assert verdict == "consistent"
        assert witness is None

    @settings(max_examples=60)
    @given(dense_tensors_222)
    def test_matches_the_witness_search_on_dense_tensors(self, t):
        self.check_against_the_reference(t)

    @settings(max_examples=100)
    @given(sparse_tensors_222)
    def test_matches_the_witness_search_on_sparse_tensors(self, t):
        self.check_against_the_reference(t)

    @staticmethod
    def check_against_the_reference(t):
        verdict, witness = degeneracy_crosscheck_222(t)
        expected = oracles.reference_grid_witness(t)
        if expected is None:
            assert (verdict, witness) == ("consistent", None)
        else:
            assert witness.vectors == expected.vectors
            value = oracles.expanded_quartic_invariant(t)
            assert verdict == ("consistent" if value == 0 else "inconsistent")

    def test_a_witness_the_slices_reject_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr("schurdet.hyperdet.kernel_failure", lambda tensor, witness: (1, 0))
        with pytest.raises(InternalConsistencyError):
            degeneracy_crosscheck_222(NULL_PATTERN)
        # no witness found, so nothing to confirm
        assert degeneracy_crosscheck_222(DIAGONAL) == ("consistent", None)

    def test_seeded_tensors_are_never_inconsistent(self):
        for seed in range(40):
            verdict, _ = degeneracy_crosscheck_222(random_tensor(3, 2, seed))
            assert verdict == "consistent"

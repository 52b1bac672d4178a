from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from schurdet import (
    KernelWitness,
    SizeGuardError,
    Tensor,
    all_permutations,
    degeneracy_crosscheck_222,
    det2,
    det_exact,
    hyperdet_222,
    pencil_slices,
    permute_factors,
    pfaffian,
    random_skew_matrix,
    random_tensor,
    rank_one,
    schlafli_coefficients,
)

E1 = (Fraction(1), Fraction(0))
E2 = (Fraction(0), Fraction(1))

DIAGONAL = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
NULL_PATTERN = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})

seeds = st.integers(0, 2**32)


class TestDet2:
    def test_value(self):
        assert det2([[1, 2], [3, 4]]) == -2
        assert det2([["1/2", 0], [0, 4]]) == 2

    def test_shape(self):
        with pytest.raises(ValueError):
            det2([[1, 2, 3], [4, 5, 6]])


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


class TestHyperdet222:
    def test_diagonal_normalization(self):
        assert hyperdet_222(DIAGONAL) == 1

    def test_null_pattern_vanishes(self):
        assert hyperdet_222(NULL_PATTERN) == 0

    def test_pencil_slices(self):
        a0, a1 = pencil_slices(NULL_PATTERN)
        assert a0 == [[0, 1], [1, 0]]
        assert a1 == [[1, 0], [0, 0]]

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

    def test_supplied_witness_is_validated(self):
        good = KernelWitness([E2, E2, E2])
        verdict, witness = degeneracy_crosscheck_222(NULL_PATTERN, good)
        assert verdict == "consistent" and witness is good
        with pytest.raises(ValueError):
            degeneracy_crosscheck_222(NULL_PATTERN, KernelWitness([E1, E1, E1]))

    def test_witness_shape_is_checked(self):
        with pytest.raises(ValueError):
            degeneracy_crosscheck_222(
                NULL_PATTERN, KernelWitness([(1, 0, 0)] * 3)
            )

    def test_seeded_tensors_are_never_inconsistent(self):
        for seed in range(40):
            verdict, _ = degeneracy_crosscheck_222(random_tensor(3, 2, seed))
            assert verdict == "consistent"

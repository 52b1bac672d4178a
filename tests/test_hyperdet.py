import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from schurdet import (
    InternalConsistencyError,
    KernelWitness,
    SizeGuardError,
    Tensor,
    all_permutations,
    degeneracy_crosscheck_222,
    det_exact,
    hyperdet_222,
    pfaffian,
    random_skew_matrix,
    random_tensor,
    rank_one,
)
from schurdet import hyperdet
from schurdet.linalg import MAX_DET_SIZE

E2 = (Fraction(0), Fraction(1))


def pencil(t: Tensor) -> tuple[Fraction, Fraction, Fraction]:
    """The library's pencil coefficients (b0, b1, b2) of det(A0 + t A1): integer minors
    of the numerators, over den^2."""
    return tuple(Fraction(b, t.den**2) for b in hyperdet._pencil(t))


DIAGONAL = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
NULL_PATTERN = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
# A(x, ., .) = 0 at the first probe x = (1, 0): every y passes, and the witness is (e1, e1, e2)
FIRST_SLICE_ZERO = Tensor.from_map(3, 2, {(1, 0, 0): 2, (1, 1, 1): 3})
# u (x) v (x) w with u orthogonal to the last probe (1, 2): every A(x, ., .) is singular,
# and the only grid y and z orthogonal to v and w are (1, 2) and (2, 1), the last two probes
LATE_RANK_ONE = rank_one([(2, -1), (2, -1), (1, -2)])
# A(x, ., .) = diag(2 x0 - x1, x0 + 3 x1) is singular on the grid only at x = (1, 2), the last probe
LAST_SINGULAR = Tensor.from_map(3, 2, {(0, 0, 0): 2, (0, 1, 1): 1, (1, 0, 0): -1, (1, 1, 1): 3})

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


@st.composite
def integer_skew_matrices(draw):
    """Even-size integer skew matrices, sizes 0-8, mostly zero above the diagonal."""
    size = draw(st.sampled_from([0, 2, 4, 6, 8]))
    sparse = st.one_of(st.just(0), st.just(0), st.integers(-10**6, 10**6))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(sparse)
            rows[j][i] = -rows[i][j]
    return rows


def congruence(b, a):
    """B A B^T over the integers."""
    ba = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in b]
    return [[sum(x * y for x, y in zip(row, other)) for other in b] for row in ba]


J2 = [[0, 1], [-1, 0]]


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

    def test_entry_bits_at_and_past_the_bound(self, monkeypatch):
        """Eight rows of 16,384 bits fill the bound; two entries one bit wider pass it."""
        assert hyperdet.MAX_PFAFFIAN_BITS == 1 << 17
        v = 1 << (1 << 14) - 1
        blocks = [[0] * 8 for _ in range(8)]
        for k in range(0, 8, 2):
            blocks[k][k + 1], blocks[k + 1][k] = v, -v
        assert pfaffian(blocks) == v**4
        blocks[0][1], blocks[1][0] = 2 * v, -2 * v
        monkeypatch.setattr(hyperdet, "_integer_pfaffian", None)  # refused before elimination
        with pytest.raises(SizeGuardError, match="sum to 131074 bits > 131072"):
            pfaffian(blocks)

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

    def test_skew_sampler_guard_fires_before_the_generator_is_built(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(hyperdet, "SplitMix64", refuse)
        with pytest.raises(SizeGuardError):
            random_skew_matrix(MAX_DET_SIZE + 1, 1)

    @settings(max_examples=80)
    @given(skew_matrices())
    def test_matches_the_fraction_expansion(self, m):
        value = pfaffian(m)
        assert value == oracles.reference_pfaffian(m)
        assert value**2 == det_exact(m)

    def test_denominators_are_cleared_to_the_right_power(self):
        # Pf(c A) = c^(size/2) Pf(A), here with c = 1/6 and mixed denominators
        m = random_skew_matrix(8, 12)
        scaled = [[Fraction(v, 6) for v in row] for row in m]
        assert pfaffian(scaled) == pfaffian(m) / 6**4 == oracles.reference_pfaffian(scaled)
        halves = [[0, "1/2", 0, 0], ["-1/2", 0, 0, 0], [0, 0, 0, "2/3"], [0, 0, "-2/3", 0]]
        assert pfaffian(halves) == Fraction(1, 3)

    def test_a_zero_first_pivot_swaps_once_and_flips_the_sign(self):
        # m[0][1] = 0: index 2 moves to 1, so Pf = -m02 * m13 + m03 * m12 = -3 * 5 + 0 = -15
        m = [[0, 0, 3, 0], [0, 0, 7, 5], [-3, -7, 0, 2], [0, -5, -2, 0]]
        assert pfaffian(m) == -15 == oracles.reference_pfaffian(m)

    def test_a_later_swap_reads_the_updated_lower_triangle(self):
        # one perfect matching {05, 12, 34}; stage 2 moves row 5 up and reads m[5][4]
        m = [[0] * 6 for _ in range(6)]
        for (i, j), v in {(0, 5): -1, (1, 2): -1, (3, 4): 2}.items():
            m[i][j], m[j][i] = v, -v
        assert pfaffian(m) == 2 == oracles.reference_pfaffian(m)

    def test_a_row_that_vanishes_after_the_first_stage(self):
        # rank 2: after stage 0 every 4 x 4 Pfaffian is zero, so row 2 has no pivot
        b = [[1, 0], [0, 1], [2, 3], [-1, 4], [5, -2], [3, 3]]
        m = congruence(b, J2)
        assert any(m[2]) and any(m[4])
        assert pfaffian(m) == 0 == oracles.reference_pfaffian(m)
        b8 = b + [[1, 7], [-4, 2]]  # and with pivot -7: B (-7 J) B^T
        m8 = congruence(b8, congruence([[1, 2], [3, -1]], J2))
        assert pfaffian(m8) == 0 == oracles.reference_pfaffian(m8)

    @settings(max_examples=60)
    @given(integer_skew_matrices())
    def test_integer_and_sparse_matrices_match_the_fraction_expansion(self, m):
        assert pfaffian(m) == oracles.reference_pfaffian(m)

    @settings(max_examples=40)
    @given(seeds, st.sampled_from([2, 4, 6, 8]), st.data())
    def test_congruence_scales_by_the_determinant(self, seed, size, data):
        # Pf(B A B^T) = det(B) Pf(A) for every integer B
        a = [[int(v) for v in row] for row in random_skew_matrix(size, seed)]
        b = data.draw(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=size, max_size=size),
                min_size=size,
                max_size=size,
            )
        )
        assert pfaffian(congruence(b, a)) == det_exact(b) * pfaffian(a)

    def test_leaves_the_callers_matrix_unmodified(self):
        m = [[0, 0, 3, 0], [0, 0, 7, 5], [-3, -7, 0, 2], [0, -5, -2, 0]]
        fractions = random_skew_matrix(8, 3)
        copies = [row[:] for row in m], [row[:] for row in fractions]
        pfaffian(m), pfaffian(fractions)
        assert (m, fractions) == copies

    def test_denominator_budget_fires_before_the_power(self):
        # 28 distinct ~1,000-digit denominators: 64 entries over their lcm pass 2^22 bits
        dens = iter(10**999 + 2 * k + 1 for k in range(28))
        m = [[Fraction(0)] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                m[i][j] = Fraction(1, next(dens))
                m[j][i] = -m[i][j]
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="common denominator"):
            pfaffian(m)
        assert time.perf_counter() - started < 1.0


class TestHyperdet222:
    def test_diagonal_normalization(self):
        assert hyperdet_222(DIAGONAL) == 1

    def test_null_pattern_vanishes(self):
        assert hyperdet_222(NULL_PATTERN) == 0

    def test_schlafli_coefficients_on_diagonal(self):
        assert pencil(DIAGONAL) == (0, 1, 0)

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
            assert hyperdet_222(oracles.permute(sigma, t)) == value

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
        assert pencil(t) == oracles.reference_schlafli_coefficients(t)

    @settings(max_examples=80)
    @given(fraction_tensors_222())
    def test_the_invariant_is_the_pencil_discriminant(self, t):
        b0, b1, b2 = pencil(t)
        assert hyperdet_222(t) == b1 * b1 - 4 * b0 * b2

    def test_coefficients_scale_by_the_squared_denominator(self):
        half = DIAGONAL.scale(Fraction(1, 2))
        assert pencil(half) == (0, Fraction(1, 4), 0)
        assert hyperdet_222(half) == Fraction(1, 16)
        t = Tensor(3, 2, ["1/2", "1/3", 0, "-5/6", "2", "1/6", "-1", "1/4"])
        assert t.den == 12
        assert pencil(t) == oracles.reference_schlafli_coefficients(t)

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

    def test_the_examples_reach_the_search_where_they_should(self):
        assert degeneracy_crosscheck_222(FIRST_SLICE_ZERO)[1].vectors == ((1, 0), (1, 0), (0, 1))
        assert degeneracy_crosscheck_222(LATE_RANK_ONE) == (
            "consistent",
            KernelWitness([(1, 0), (1, 2), (2, 1)]),
        )
        assert hyperdet_222(LAST_SINGULAR) == 7**2
        assert degeneracy_crosscheck_222(LAST_SINGULAR) == ("consistent", None)

    def test_nondegenerate_tensor_has_no_witness(self):
        verdict, witness = degeneracy_crosscheck_222(DIAGONAL)
        assert verdict == "consistent"
        assert witness is None

    @settings(max_examples=60)
    @given(dense_tensors_222)
    @example(FIRST_SLICE_ZERO)
    @example(NULL_PATTERN)
    @example(LATE_RANK_ONE)
    @example(LAST_SINGULAR)
    def test_matches_the_witness_search_on_dense_tensors(self, t):
        self.check_against_the_reference(t)

    @settings(max_examples=100)
    @given(sparse_tensors_222)
    @example(FIRST_SLICE_ZERO)
    @example(NULL_PATTERN)
    @example(LATE_RANK_ONE)
    @example(LAST_SINGULAR)
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

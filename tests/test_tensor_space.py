import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurdet import (
    Partition,
    Permutation,
    SizeGuardError,
    Tensor,
    algebra_action,
    all_partitions,
    all_permutations,
    evaluate,
    isotypic_projector,
    isotypic_rank,
    permute_factors,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
    slot_slice,
    standard_tableau_count,
    young_symmetrizer,
)
from schurdet.perm_algebra import AlgebraElement
from schurdet import tensor_space
from schurdet.tensor_space import contract_first

from oracles import (
    reference_algebra_action,
    reference_contract_first,
    reference_evaluate,
    reference_slot_slice,
)


def P(*parts):
    return Partition(parts)


def F(v):
    return Fraction(v)


seeds = st.integers(0, 2**32)
# small rationals with mixed denominators and both signs
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def fraction_tensors(draw, orders=st.integers(1, 3), dims=st.integers(1, 3)):
    order, dim = draw(orders), draw(dims)
    size = dim**order
    return Tensor(order, dim, draw(st.lists(fractions, min_size=size, max_size=size)))


@st.composite
def tensors_with_vectors(draw):
    t = draw(fraction_tensors())
    vector = st.lists(fractions, min_size=t.dim, max_size=t.dim)
    return t, [draw(vector) for _ in range(t.order)]


@st.composite
def elements(draw, degree):
    perms = draw(st.lists(st.permutations(range(1, degree + 1)), max_size=6))
    return AlgebraElement(degree, {Permutation(p): draw(fractions) for p in perms})


class TestTensorBasics:
    def test_flat_layout_first_index_slowest(self):
        t = Tensor(3, 2, range(8))
        # entry (i, j, k) sits at 4i + 2j + k
        assert t.entry((0, 0, 0)) == 0
        assert t.entry((0, 1, 1)) == 3
        assert t.entry((1, 0, 0)) == 4
        assert t.entry((1, 1, 0)) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Tensor(2, 2, [1, 2, 3])  # wrong length
        with pytest.raises(ValueError):
            Tensor(0, 2, [])
        with pytest.raises(TypeError):
            Tensor(1, 2, [0.5, 1])  # floats are refused, exactness is the contract
        with pytest.raises(SizeGuardError):
            Tensor(7, 4, [0] * 4**7)

    def test_from_map_and_zero(self):
        t = Tensor.from_map(2, 2, {(0, 1): 5, (1, 0): "1/2"})
        assert t.entry((0, 1)) == 5
        assert t.entry((1, 0)) == Fraction(1, 2)
        assert t.entry((0, 0)) == 0
        assert Tensor.zero(3, 2).is_zero
        with pytest.raises(ValueError):
            Tensor.from_map(2, 2, {(0, 2): 1})

    def test_arithmetic(self):
        a = Tensor(1, 3, [1, 2, 3])
        b = Tensor(1, 3, [4, 5, 6])
        assert (a + b).entries == (5, 7, 9)
        assert (b - a).entries == (3, 3, 3)
        assert a.scale("1/2").entries == (Fraction(1, 2), 1, Fraction(3, 2))
        with pytest.raises(ValueError):
            a + Tensor(1, 2, [1, 2])

    def test_json_round_trip_reduces_fractions(self):
        t = Tensor(2, 2, [Fraction(2, 4), 3, Fraction(-6, 3), 0])
        obj = t.to_json_obj()
        assert obj["entries"] == ["1/2", "3", "-2", "0"]
        assert Tensor.from_json_obj(obj) == t

    def test_from_json_validation(self):
        with pytest.raises(ValueError):
            Tensor.from_json_obj({"order": 2, "dim": 2})
        with pytest.raises(ValueError):
            Tensor.from_json_obj({"order": "2", "dim": 2, "entries": []})
        with pytest.raises(ValueError):
            Tensor.from_json_obj([1, 2])
        # JSON booleans are not integers here, though Python's bool subclasses int
        with pytest.raises(ValueError):
            Tensor.from_json_obj({"order": True, "dim": 2, "entries": ["1", "2"]})
        with pytest.raises(ValueError):
            Tensor.from_json_obj({"order": 1, "dim": True, "entries": ["1"]})

    def test_size_guard_fires_before_the_size_is_built(self):
        # 2**2_000_000 entries: refused without forming the count or any entry list
        builders = [
            lambda: Tensor(2_000_000, 2, [1]),
            lambda: Tensor.zero(2_000_000, 2),
            lambda: Tensor.from_map(2_000_000, 2, {}),
            lambda: random_tensor(2_000_000, 2, 1),
            lambda: isotypic_rank(P(3, 3), 2_000_000),
            lambda: rank_one([(1, 1)] * 13),
        ]
        for build in builders:
            with pytest.raises(SizeGuardError):
                build()

    def test_dimension_one_has_one_entry_at_any_order(self):
        assert Tensor.zero(2_000_000, 1).entries == (0,)

    def test_rank_one(self):
        t = rank_one([(1, 2), (3, 4), (5, 6)])
        assert t.entry((0, 0, 0)) == 15
        assert t.entry((1, 1, 1)) == 48
        assert t.entry((0, 1, 0)) == 20
        with pytest.raises(ValueError):
            rank_one([(1, 2), (1, 2, 3)])


class TestSlotAction:
    def test_identity_acts_trivially(self):
        t = random_tensor(3, 3, 5)
        assert permute_factors(Permutation.identity(3), t) == t

    def test_entry_level_definition(self):
        t = random_tensor(3, 2, 17)
        sigma = Permutation([2, 3, 1])
        moved = permute_factors(sigma, t)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    # (sigma . A)_{ijk} = A_{i_{sigma(1)} i_{sigma(2)} i_{sigma(3)}}
                    assert moved.entry((i, j, k)) == t.entry((j, k, i))

    @settings(max_examples=25)
    @given(seeds, st.permutations([1, 2, 3]), st.permutations([1, 2, 3]))
    def test_left_action(self, seed, im_a, im_b):
        t = random_tensor(3, 2, seed)
        a, b = Permutation(im_a), Permutation(im_b)
        assert permute_factors(a * b, t) == permute_factors(
            a, permute_factors(b, t)
        )

    def test_evaluate_compatibility(self):
        t = random_tensor(3, 3, 23)
        xs = [random_vector(3, 31 + i) for i in range(3)]
        for sigma in all_permutations(3):
            assert evaluate(permute_factors(sigma, t), xs) == evaluate(
                t, [xs[sigma(k) - 1] for k in range(1, 4)]
            )

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            permute_factors(Permutation.identity(2), random_tensor(3, 2, 1))


class TestEvaluation:
    def test_rank_one_factorizes(self):
        xs = [(1, 2, 0), (0, 1, 1), (3, 0, 1)]
        ys = [(1, 1, 1), (2, 0, 1), (0, 5, 1)]
        t = rank_one(xs)
        expected = math.prod(
            sum(F(a) * F(b) for a, b in zip(x, y)) for x, y in zip(xs, ys)
        )
        assert evaluate(t, ys) == expected

    def test_multilinearity_in_one_slot(self):
        t = random_tensor(3, 3, 41)
        x, y, z = (random_vector(3, 50 + i) for i in range(3))
        w = tuple(a + 2 * b for a, b in zip(x, y))
        assert evaluate(t, [w, z, z]) == evaluate(t, [x, z, z]) + 2 * evaluate(
            t, [y, z, z]
        )

    def test_slot_slice_matches_brute_force(self):
        for order, dim, seed in [(3, 3, 7), (4, 2, 8), (2, 3, 9)]:
            t = random_tensor(order, dim, seed)
            xs = [random_vector(dim, 100 * seed + i) for i in range(order)]
            for slot in range(1, order + 1):
                got = slot_slice(t, xs, slot)
                for comp in range(dim):
                    unit = tuple(
                        F(1) if c == comp else F(0) for c in range(dim)
                    )
                    vecs = list(xs)
                    vecs[slot - 1] = unit
                    assert got[comp] == evaluate(t, vecs)

    def test_slice_contracts_back_to_evaluate(self):
        t = random_tensor(3, 3, 77)
        xs = [random_vector(3, 200 + i) for i in range(3)]
        for slot in (1, 2, 3):
            sl = slot_slice(t, xs, slot)
            assert sum(a * b for a, b in zip(sl, xs[slot - 1])) == evaluate(t, xs)

    def test_slot_out_of_range(self):
        t = random_tensor(2, 2, 3)
        with pytest.raises(ValueError):
            slot_slice(t, [(1, 0), (0, 1)], 3)


class TestAlgebraAction:
    def test_linear_in_the_element(self):
        t = random_tensor(3, 2, 13)
        a = young_symmetrizer(P(2, 1))
        b = AlgebraElement.from_permutation(Permutation([3, 1, 2]), "1/2")
        lhs = algebra_action(a + b, t)
        assert lhs == algebra_action(a, t) + algebra_action(b, t)

    def test_action_of_a_product_composes(self):
        t = random_tensor(3, 2, 19)
        a = young_symmetrizer(P(2, 1))
        b = young_symmetrizer(P(3))
        assert algebra_action(a * b, t) == algebra_action(a, algebra_action(b, t))


class TestDenominatorClearing:
    """The integer kernel against plain Fraction loops, on non-integer entries."""

    @settings(max_examples=60)
    @given(st.data())
    def test_algebra_action(self, data):
        t = data.draw(fraction_tensors())
        element = data.draw(elements(t.order))
        assert algebra_action(element, t) == reference_algebra_action(element, t)

    @settings(max_examples=60)
    @given(st.data())
    def test_contract_first(self, data):
        t = data.draw(fraction_tensors())
        vec = data.draw(st.lists(fractions, min_size=t.dim, max_size=t.dim))
        assert contract_first(t, vec) == reference_contract_first(t, vec)

    @settings(max_examples=60)
    @given(st.data())
    def test_evaluate(self, data):
        t = data.draw(fraction_tensors())
        vector = st.lists(fractions, min_size=t.dim, max_size=t.dim)
        vecs = [data.draw(vector) for _ in range(t.order)]
        assert evaluate(t, vecs) == reference_evaluate(t, vecs)

    @settings(max_examples=60)
    @given(tensors_with_vectors())
    @example((Tensor(1, 3, [F(1) / 2, F(-2) / 3, F(5)]), [None]))
    @example((Tensor(3, 1, [F(-7) / 2]), [(F(2) / 3,), (F(-1) / 5,), (F(3) / 4,)]))
    def test_slot_slice(self, case):
        t, vecs = case
        for slot in range(1, t.order + 1):
            free = list(vecs)
            free[slot - 1] = None
            assert slot_slice(t, free, slot) == reference_slot_slice(t, vecs, slot)
            if slot < t.order:
                free[-1] = list(free[-1]) + [F(1)]
                with pytest.raises(ValueError):
                    slot_slice(t, free, slot)

    def test_projection_of_a_fraction_tensor(self):
        t = Tensor(3, 2, [F(k - 4) / (k + 1) for k in range(8)])
        for lam in all_partitions(3):
            projector, _ = isotypic_projector(lam)
            assert project_isotypic(lam, t) == reference_algebra_action(projector, t)


def assert_canonical(t):
    assert t.den > 0
    assert math.gcd(t.den, *t.nums) == 1
    assert len(t.nums) == len(t.entries) == t.dim**t.order
    assert Tensor(t.order, t.dim, t.entries) == t


class TestCanonicalForm:
    """One representation: integer numerators over a positive least denominator."""

    @settings(max_examples=60)
    @given(fraction_tensors())
    def test_lowest_terms(self, t):
        assert_canonical(t)
        assert all(F(v) / t.den == e for v, e in zip(t.nums, t.entries))

    @settings(max_examples=60)
    @given(fraction_tensors())
    def test_equal_entries_are_equal_and_hash_equally(self, t):
        identity = Permutation(range(1, t.order + 1))
        zero = Tensor.zero(t.order, t.dim)
        built = [
            Tensor(t.order, t.dim, [str(v) for v in t.entries]),
            Tensor.from_json_obj(t.to_json_obj()),
            Tensor.from_map(
                t.order,
                t.dim,
                {idx: t.entry(idx) for idx in itertools.product(range(t.dim), repeat=t.order)},
            ),
            t + zero,
            t - zero,
            t + t - t,
            t.scale(6).scale(F(1) / 6),
            permute_factors(identity, t),
            algebra_action(AlgebraElement(t.order, {identity: F(1)}), t),
        ]
        for other in built:
            assert other == t
            assert hash(other) == hash(t)
            assert (other.nums, other.den) == (t.nums, t.den)

    def test_zero_has_denominator_one(self):
        halves = Tensor(2, 2, [F(1) / 2] * 4)
        zeros = [Tensor.zero(2, 2), halves - halves, halves.scale(0), Tensor(2, 2, ["0/7"] * 4)]
        for zero in zeros:
            assert zero.is_zero
            assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
            assert zero == Tensor.zero(2, 2)

    @settings(max_examples=60)
    @given(st.data())
    def test_kernel_outputs_are_canonical(self, data):
        t = data.draw(fraction_tensors())
        other = data.draw(fraction_tensors(st.just(t.order), st.just(t.dim)))
        perm = Permutation(data.draw(st.permutations(range(1, t.order + 1))))
        vec = data.draw(st.lists(fractions, min_size=t.dim, max_size=t.dim))
        outputs = [
            algebra_action(data.draw(elements(t.order)), t),
            permute_factors(perm, t),
            t + other,
            t - other,
            t.scale(data.draw(fractions)),
        ]
        if t.order > 1:
            outputs.append(contract_first(t, vec))
        for out in outputs:
            assert_canonical(out)

    def test_attributes_are_read_only(self):
        t = Tensor(2, 2, [F(1) / 2, 1, 2, 3])
        for name in ("order", "dim", "nums", "den", "entries", "extra"):
            with pytest.raises(AttributeError):
                setattr(t, name, 1)
        assert t == Tensor(2, 2, [F(1) / 2, 1, 2, 3])

    def test_common_denominator_is_bounded(self):
        # 4096 entries 1/d with 998-digit d sharing few factors: the lcm would
        # run to millions of bits, so the guard refuses before building it.
        entries = [f"1/{10**997 + 2 * k + 1}" for k in range(4096)]
        with pytest.raises(SizeGuardError, match="1024 bits"):
            Tensor(12, 2, entries)

    def test_longest_text_entries_fit_a_222_tensor(self):
        digits = "9" * 499
        entries = [f"{digits}/{10**498 + 2 * k + 1}" for k in range(8)]
        t = Tensor(3, 2, entries)
        assert t.entries == tuple(F(v) for v in entries)
        assert t.den.bit_length() > 8 * 1600


class TestDimensionOne:
    """Size-1 tensors: every slot permutation fixes the single entry."""

    def test_algebra_action_scales_by_the_coefficient_sum(self):
        for order in (1, 2, 3, 4):
            t = Tensor(order, 1, [F(5) / 3])
            element = AlgebraElement(
                order, {p: F(p.sign) / 2 + 1 for p in all_permutations(order)}
            )
            total = sum((c for _, c in element.terms()), F(0))
            assert algebra_action(element, t) == Tensor(order, 1, [total * F(5) / 3])

    def test_project_isotypic_keeps_only_the_single_row(self):
        for order in (2, 3, 4, 5):
            t = Tensor(order, 1, [F(-7) / 2])
            for lam in all_partitions(order):
                expected = t if lam == P(order) else Tensor.zero(order, 1)
                assert project_isotypic(lam, t) == expected

    def test_evaluate(self):
        t = Tensor(3, 1, [F(3) / 4])
        assert evaluate(t, [(2,), (F(-1) / 3,), (5,)]) == F(3) / 4 * 2 * F(-1) / 3 * 5
        assert contract_first(Tensor(1, 1, [F(2)]), [F(1) / 2]) == F(1)


class TestProjection:
    def test_resolution_of_identity(self):
        for order, dim, seed in [(2, 3, 1), (3, 3, 2), (4, 2, 3), (4, 3, 4)]:
            t = random_tensor(order, dim, seed)
            total = Tensor.zero(order, dim)
            for lam in all_partitions(order):
                total = total + project_isotypic(lam, t)
            assert total == t

    def test_idempotent_on_tensors(self):
        t = random_tensor(3, 3, 29)
        for lam in all_partitions(3):
            once = project_isotypic(lam, t)
            assert project_isotypic(lam, once) == once

    def test_cross_projections_vanish(self):
        t = random_tensor(3, 2, 37)
        parts = all_partitions(3)
        for lam in parts:
            for mu in parts:
                if lam != mu:
                    assert project_isotypic(
                        mu, project_isotypic(lam, t)
                    ).is_zero

    def test_projection_commutes_with_the_slot_action(self):
        # the projector is central, so it cannot see a slot relabeling
        t = random_tensor(3, 3, 43)
        for lam in all_partitions(3):
            for sigma in all_permutations(3):
                assert project_isotypic(lam, permute_factors(sigma, t)) == (
                    permute_factors(sigma, project_isotypic(lam, t))
                )

    def test_symmetric_component_is_symmetric(self):
        t = random_tensor(3, 3, 47)
        sym = project_isotypic(P(3), t)
        for sigma in all_permutations(3):
            assert permute_factors(sigma, sym) == sym

    def test_weight_must_match_order(self):
        with pytest.raises(ValueError):
            project_isotypic(P(2, 1), random_tensor(2, 2, 1))


class TestIsotypicRank:
    def test_matrix_case(self):
        # order 2: symmetric and antisymmetric matrices
        for n in (2, 3):
            assert isotypic_rank(P(2), n) == n * (n + 1) // 2
            assert isotypic_rank(P(1, 1), n) == n * (n - 1) // 2

    def test_frozen_order_three(self):
        assert isotypic_rank(P(3), 3) == 10
        assert isotypic_rank(P(2, 1), 3) == 16
        assert isotypic_rank(P(1, 1, 1), 3) == 1
        assert isotypic_rank(P(1, 1, 1), 2) == 0

    def test_rank_zero_iff_too_many_rows(self):
        for order in (2, 3, 4):
            for dim in (2, 3):
                for lam in all_partitions(order):
                    assert (isotypic_rank(lam, dim) == 0) == (lam.rows > dim)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            isotypic_rank(P(7), 2)

    def test_matrix_size_guard_fires_before_anything_is_built(self, monkeypatch):
        # sizes 1600 and 4096 pass the dense-size guard but not the size^2 one;
        # a projector build would call the None and fail with TypeError
        monkeypatch.setattr(tensor_space, "isotypic_projector", None)
        for lam, dim in [(P(1, 1), 40), (P(3, 3), 4)]:
            with pytest.raises(SizeGuardError, match="1024"):
                isotypic_rank(lam, dim)


class TestRandomSources:
    def test_tensor_determinism(self):
        assert random_tensor(3, 3, 99) == random_tensor(3, 3, 99)
        assert random_tensor(3, 3, 99) != random_tensor(3, 3, 100)

    def test_entry_range(self):
        t = random_tensor(4, 3, 7)
        assert all(-9 <= v <= 9 and v.denominator == 1 for v in t.entries)

    @given(seeds)
    def test_vector_nonzero_flag(self, seed):
        v = random_vector(3, seed, nonzero=True)
        assert any(c != 0 for c in v)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            random_tensor(13, 2, 1)

import itertools
import math
from collections import Counter
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schurdet import (
    Partition,
    Permutation,
    SetPartition,
    SizeGuardError,
    Tensor,
    algebra_action,
    all_partitions,
    all_permutations,
    all_set_partitions,
    annihilates,
    evaluate,
    isotypic_projector,
    isotypic_rank,
    permute_factors,
    positive_element,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
    slot_slice,
    young_symmetrizer,
)
from schurdet.partitions import dominance_leq
from schurdet.perm_algebra import AlgebraElement, young_blocks
from schurdet import tensor_space
from schurdet.tensor_space import contract_first

from oracles import (
    hook_length_count,
    reference_algebra_action,
    reference_contract_first,
    reference_evaluate,
    reference_isotypic_rank,
    reference_slot_slice,
    ssyt_count,
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


# order 1 at dimension 1: no slot after the first, so evaluate pairs an empty tail
EMPTY_TAIL = (Tensor(1, 1, [F(-7) / 2]), [(F(2) / 3,)])
DENOMINATORS_EVERYWHERE = (
    Tensor(3, 2, [F(k - 3) / (k % 3 + 2) for k in range(8)]),
    [(F(1) / 2, F(-2) / 3), (F(3) / 4, F(1) / 5), (F(-5) / 6, F(1) / 7)],
)
ZERO_IN_THE_TAIL = (
    Tensor(3, 3, [F(k % 7 - 3) / (k % 4 + 1) for k in range(27)]),
    [(1, F(-1) / 2, 2), (0, 0, 0), (F(1) / 3, -1, 4)],
)
# a zero tensor with fractional vectors: the contractions' zeros, over any denominator
ZERO_TENSOR = (Tensor(3, 2, [0] * 8), [(F(1) / 2, 3), (1, F(-1) / 3), (2, 2)])


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

    def test_scale_and_sum_refuse_a_large_denominator_before_multiplying(self):
        t = random_tensor(5, 3, 1)
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="scaled denominators"):
            t.scale(Fraction(1, 3 ** (2**16)))
        assert time.perf_counter() - started < 0.5
        # each within the budget alone (243 entries of 15,850 and 16,255 bits); their
        # sum's denominator, the product, is not
        a, b = t.scale(Fraction(1, 3**10_000)), t.scale(Fraction(1, 5**7_000))
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="summed denominators"):
            a + b
        with pytest.raises(SizeGuardError, match="scaled denominators"):
            a.scale(Fraction(1, 5**7_000))
        assert time.perf_counter() - started < 0.5
        # one shared denominator does not grow, and integers add no bits
        assert a + a == t.scale(Fraction(2, 3**10_000)) and a - a == Tensor.zero(5, 3)
        assert a.scale(3) == t.scale(Fraction(1, 3**9_999))

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Tensor(0, 3, [0]),
            lambda: Tensor.zero(0, 3),
            lambda: Tensor.from_map(0, 3, {}),
            lambda: random_tensor(0, 2, 1),
        ],
        ids=["constructor", "zero", "from-map", "random-tensor"],
    )
    def test_order_zero_is_refused(self, build):
        with pytest.raises(ValueError, match="order must be positive"):
            build()

    def test_weight_zero_component_still_has_rank_one(self):
        assert isotypic_rank(P(), 3) == 1

    def test_dimension_one_has_one_entry_at_any_order(self):
        assert Tensor.zero(2_000_000, 1).entries == (0,)

    def test_rank_one(self):
        t = rank_one([(1, 2), (3, 4), (5, 6)])
        assert t.entry((0, 0, 0)) == 15
        assert t.entry((1, 1, 1)) == 48
        assert t.entry((0, 1, 0)) == 20
        with pytest.raises(ValueError):
            rank_one([(1, 2), (1, 2, 3)])

    def test_rank_one_is_kept_in_lowest_terms(self):
        t = rank_one([(Fraction(1, 2), Fraction(1, 2)), (2, 4)])
        assert t == Tensor(2, 2, [1, 2, 1, 2]) and t.den == 1

    def test_rank_one_refuses_a_large_denominator_product_before_multiplying(self):
        # each factor passes the intake's budget alone; their product over 3^5
        # entries does not, and the 243 products would take seconds
        d = 2 ** (2**20) + 1
        vector = (Fraction(1, d), Fraction(2, d), Fraction(4, d))
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="rank-one denominator"):
            rank_one([vector] * 5)
        assert time.perf_counter() - started < 0.5


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
        b = AlgebraElement(3, {Permutation([3, 1, 2]): "1/2"})
        lhs = algebra_action(a + b, t)
        assert lhs == algebra_action(a, t) + algebra_action(b, t)

    def test_action_of_a_product_composes(self):
        t = random_tensor(3, 2, 19)
        a = young_symmetrizer(P(2, 1))
        b = young_symmetrizer(P(3))
        assert algebra_action(a * b, t) == algebra_action(a, algebra_action(b, t))

    @pytest.mark.parametrize("order", [4, 5])
    def test_non_central_elements_on_shared_blocks(self, order):
        # from order 4 on, at n = 3, weight types have tied counts, (2,1,1) and (2,2,1);
        # every space of a type takes its block through the relabelled words
        t = random_tensor(order, 3, 40 + order).scale(F(1) / 7)
        elements = [young_symmetrizer(lam) for lam in all_partitions(order)]
        if order == 4:
            coeffs = random.Random(27).sample(range(-60, 61), 24)
            elements.append(AlgebraElement(4, dict(zip(all_permutations(4), coeffs))))
        for element in elements:
            assert algebra_action(element, t) == reference_algebra_action(element, t)

    def test_the_block_cache_is_bounded(self):
        # blocks are keyed by the coefficients, so each multiple of one element builds its own
        tensor_space._weight_blocks.cache_clear()
        z, t = young_symmetrizer(P(3, 2)), random_tensor(5, 3, 1)
        for k in range(1, 501):
            algebra_action(z.scale(k), t)
        info = tensor_space._weight_blocks.cache_info()
        assert info.misses == 500 and info.currsize <= 32


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
    @given(tensors_with_vectors())
    @example(EMPTY_TAIL)
    @example(DENOMINATORS_EVERYWHERE)
    @example(ZERO_IN_THE_TAIL)
    @example(ZERO_TENSOR)
    def test_evaluate(self, case):
        # slots 2..p are paired in one pass; order 1 leaves that pass nothing to pair
        t, vecs = case
        assert evaluate(t, vecs) == reference_evaluate(t, vecs)

    @settings(max_examples=60)
    @given(tensors_with_vectors())
    @example((Tensor(1, 3, [F(1) / 2, F(-2) / 3, F(5)]), [None]))
    @example((Tensor(3, 1, [F(-7) / 2]), [(F(2) / 3,), (F(-1) / 5,), (F(3) / 4,)]))
    @example(EMPTY_TAIL)
    @example(DENOMINATORS_EVERYWHERE)
    @example(ZERO_IN_THE_TAIL)
    @example(ZERO_TENSOR)
    def test_slot_slice(self, case):
        # every slot is freed in turn, so slot = order (an empty tail) runs for every case
        t, vecs = case
        for slot in range(1, t.order + 1):
            free = list(vecs)
            free[slot - 1] = None
            assert slot_slice(t, free, slot) == reference_slot_slice(t, vecs, slot)
            # a leading slot (through contract_first) and a trailing slot share one length check
            for other in (0, t.order - 1):
                if other != slot - 1:
                    long = list(free)
                    long[other] = list(long[other]) + [F(1)]
                    with pytest.raises(ValueError, match="vector length"):
                        slot_slice(t, long, slot)

    def test_projection_of_a_fraction_tensor(self):
        t = Tensor(3, 2, [F(k - 4) / (k + 1) for k in range(8)])
        for lam in all_partitions(3):
            projector, _ = isotypic_projector(lam)
            assert project_isotypic(lam, t) == reference_algebra_action(projector, t)


@st.composite
def set_partitions(draw, degree):
    """A random set partition of 1..degree: each point draws a block label."""
    labels = draw(st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree))
    blocks: dict[int, list[int]] = {}
    for point, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(point)
    return SetPartition(blocks.values())


def young_terms(pi, coeff):
    return {perm: coeff for perm, _ in positive_element(pi).terms}


def orbit_table(terms, dim):
    """The orbit table of the terms' support when it is a whole Young subgroup, else None."""
    blocks = young_blocks(frozenset(perm.images for perm in terms))
    return None if blocks is None else tensor_space._orbit_table(blocks, dim)


def is_young(terms, dim):
    return orbit_table(terms, dim) is not None


class TestYoungSubgroupSums:
    """An element that is one coefficient over exactly a Young subgroup S_B is
    applied by orbit sums; every other element by its weight-space blocks.
    Both against the Fraction loop."""

    @staticmethod
    def draw_case(data):
        order = data.draw(st.integers(1, 5), label="order")
        dims = st.integers(1, 3 if order <= 3 else 2)
        t = data.draw(fraction_tensors(st.just(order), dims))
        pi = data.draw(set_partitions(order), label="pi")
        return t, pi, data.draw(fractions.filter(bool), label="c")

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_scaled_young_subgroup_with_other_groups(self, data):
        t, pi, c = self.draw_case(data)
        terms = young_terms(pi, c)
        rep, stab = orbit_table(terms, t.dim)
        for flat, digits in enumerate(itertools.product(range(t.dim), repeat=t.order)):
            orbit = {
                Tensor._flat(t.dim, t.order, tuple(digits[k - 1] for k in perm.images))
                for perm in terms
            }
            assert rep[flat] == min(orbit)
            assert stab[flat] == len(terms) // len(orbit)
        for perm, coeff in data.draw(elements(t.order)).terms:
            if coeff != c and perm not in terms:
                terms[perm] = coeff
        element = AlgebraElement(t.order, terms)
        assert algebra_action(element, t) == reference_algebra_action(element, t)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_extra_permutation_at_the_same_coefficient_gathers(self, data):
        t, pi, c = self.draw_case(data)
        terms = young_terms(pi, c)
        # Young orders other than 1 are even, so |S_B| + 1 is none of them
        assume(1 < len(terms) < math.factorial(t.order))
        outside = [g for g in all_permutations(t.order) if g not in terms]
        terms[data.draw(st.sampled_from(outside))] = c
        assert not is_young(terms, t.dim)
        element = AlgebraElement(t.order, terms)
        assert algebra_action(element, t) == reference_algebra_action(element, t)

    @pytest.mark.parametrize(
        "cycles",
        [
            [(), ((1, 2), (3, 4))],  # size 2 = |S_2|, blocks {1,2}{3,4} need 4
            [((1, 2),)],  # size 1, but 1 is not among its own images
            [(), ((1, 2, 3),)],  # image sets {1,2}, {2,3}, {1,3} overlap
            [(), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))],  # Klein four
            [(), ((1, 2),), ((3, 4),)],  # three of the four members of S_2 x S_2
        ],
    )
    def test_near_misses_gather(self, cycles):
        terms = {Permutation.from_cycles(4, *cyc): F(3) / 2 for cyc in cycles}
        assert not is_young(terms, 2)
        t = Tensor(4, 2, [F(k - 7) / (k % 3 + 1) for k in range(16)])
        element = AlgebraElement(4, terms)
        assert algebra_action(element, t) == reference_algebra_action(element, t)

    def test_zero_element(self):
        for order, dim in [(1, 3), (3, 2), (5, 3)]:
            t = random_tensor(order, dim, order + dim).scale(F(1) / 3)
            zero = AlgebraElement(order, {})
            assert algebra_action(zero, t) == Tensor.zero(order, dim)
            assert algebra_action(zero, t) == reference_algebra_action(zero, t)

    def test_identity_and_the_whole_group_are_young(self):
        t = Tensor(3, 3, [F(k - 13) / (k % 4 + 1) for k in range(27)])
        for terms in ({Permutation.identity(3): F(2)}, dict.fromkeys(all_permutations(3), F(-1))):
            assert is_young(terms, 3)
            element = AlgebraElement(3, terms)
            assert algebra_action(element, t) == reference_algebra_action(element, t)

    @pytest.mark.parametrize("order, dim", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
    def test_positive_equation_residuals(self, order, dim):
        t = Tensor(order, dim, [F(k % 11 - 5) / (k % 4 + 1) for k in range(dim**order)])
        for pi in all_set_partitions(order):
            expected = reference_algebra_action(positive_element(pi), t)
            assert algebra_action(positive_element(pi), t) == expected


class TestAnnihilates:
    """The orbit-sum zero test against the Fraction loop's zero test."""

    @pytest.mark.parametrize("order, dim", [(1, 1), (1, 2), (1, 3), (3, 1), (5, 1)])
    def test_order_one_and_dimension_one(self, order, dim):
        # at dim 1 the one entry is the one orbit; at order 1 every entry is its own
        raw = Tensor(order, dim, [F(k - 1) / (k + 2) for k in range(dim**order)])
        for t in (raw, Tensor.zero(order, dim)):
            for pi in all_set_partitions(order):
                for element in (positive_element(pi), positive_element(pi).scale(F(-3) / 2)):
                    expected = reference_algebra_action(element, t)
                    assert algebra_action(element, t) == expected
                    assert annihilates(element, t) == expected.is_zero
            expected = reference_algebra_action(isotypic_projector(P(order))[0], t)
            assert project_isotypic(P(order), t) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_agrees_with_the_action_for_every_set_partition(self, data):
        order = data.draw(st.integers(1, 5), label="order")
        dims = st.integers(1, 3 if order <= 3 else 2)
        t = data.draw(fraction_tensors(st.just(order), dims))
        lam = data.draw(st.sampled_from(all_partitions(order)), label="lam")
        # a raw tensor is rarely annihilated; its component meets the critical equations
        for tensor in (t, project_isotypic(lam, t)):
            for pi in all_set_partitions(order):
                element = positive_element(pi)
                expected = reference_algebra_action(element, tensor).is_zero
                assert annihilates(element, tensor) == expected

    def test_both_answers_occur(self):
        t = project_isotypic(P(2, 2), random_tensor(4, 2, 5))
        assert annihilates(positive_element(SetPartition([[1, 2, 3], [4]])), t)
        assert not annihilates(positive_element(SetPartition([[1, 2], [3, 4]])), t)

    def test_other_elements_are_refused(self):
        t = random_tensor(4, 2, 3)
        pi = SetPartition([[1, 2], [3, 4]])
        plus_one = young_terms(pi, F(1))
        plus_one[Permutation.from_cycles(4, (1, 3))] = F(1)
        # half of S_2 x S_2: the image sets are its blocks, but it is too small
        half = young_terms(SetPartition([[1], [2], [3], [4]]), F(1))
        half[Permutation.from_cycles(4, (1, 2), (3, 4))] = F(1)
        two_coefficients = young_terms(pi, F(1))
        two_coefficients[Permutation.identity(4)] = F(2)
        for terms in (plus_one, half, two_coefficients):
            with pytest.raises(ValueError, match="Young subgroup"):
                annihilates(AlgebraElement(4, terms), t)
        with pytest.raises(ValueError, match="degree"):
            annihilates(positive_element(SetPartition([[1, 2], [3]])), t)


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
        # two coefficients, so no orbit sums: every weight space has one member,
        # and its 1 x 1 block holds the coefficient sum
        for order in (1, 2, 3, 4, 5):
            t = Tensor(order, 1, [F(5) / 3])
            element = AlgebraElement(
                order, {p: F(p.sign) / 2 + 1 for p in all_permutations(order)}
            )
            odd = [p for p in all_permutations(order) if p.sign < 0]
            assert order == 1 or not is_young(odd, 1)
            total = sum((c for _, c in element.terms), F(0))
            assert algebra_action(element, t) == Tensor(order, 1, [total * F(5) / 3])
            assert algebra_action(element, t) == reference_algebra_action(element, t)

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
        # up to the sweep size (5, 3) and the projector-degree bound (6, 2)
        for order, dim, seed in [(2, 3, 1), (3, 3, 2), (4, 2, 3), (4, 3, 4), (5, 3, 5), (6, 2, 6)]:
            t = random_tensor(order, dim, seed)
            total = Tensor.zero(order, dim)
            for lam in all_partitions(order):
                total = total + project_isotypic(lam, t)
            assert total == t

    def test_idempotent_on_tensors(self):
        for order, dim, seed in [(3, 3, 29), (5, 3, 31), (6, 2, 33)]:
            t = random_tensor(order, dim, seed)
            for lam in all_partitions(order):
                once = project_isotypic(lam, t)
                assert project_isotypic(lam, once) == once

    def test_cross_projections_vanish(self):
        for order, dim, seed in [(3, 2, 37), (5, 3, 39), (6, 2, 41)]:
            t = random_tensor(order, dim, seed)
            parts = all_partitions(order)
            for lam in parts:
                for mu in parts:
                    if lam != mu:
                        assert project_isotypic(mu, project_isotypic(lam, t)).is_zero

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

    @settings(max_examples=40)
    @given(fraction_tensors())
    @example(Tensor(4, 2, [F(k - 7) / (k % 3 + 1) for k in range(16)]))
    @example(Tensor(5, 2, [F(k % 11 - 5) / (k % 4 + 1) for k in range(32)]))
    def test_single_column_is_the_signed_mean(self, t):
        # the exterior power: (1/p!) * sum of sign(sigma) * (sigma . t)
        total = Tensor.zero(t.order, t.dim)
        for sigma in all_permutations(t.order):
            total = total + permute_factors(sigma, t).scale(sigma.sign)
        expected = total.scale(F(1) / math.factorial(t.order))
        assert project_isotypic(Partition([1] * t.order), t) == expected

    def test_more_rows_than_the_dimension_matches_the_full_projection(self):
        # project_isotypic answers these with zero without applying the projector
        for order in range(1, 6):
            for lam in all_partitions(order):
                for dim in range(1, min(lam.rows - 1, 3) + 1):
                    t = random_tensor(order, dim, 100 * order + dim).scale(F(1) / 7)
                    expected = reference_algebra_action(isotypic_projector(lam)[0], t)
                    assert expected.is_zero
                    assert project_isotypic(lam, t) == expected

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

    @pytest.mark.parametrize("order, dim", [(5, 2), (5, 3), (6, 2), (6, 3)])
    def test_benchmark_sizes_against_the_two_route_count(self, order, dim):
        # the sizes the algebra benchmark ranks, plus order 6 at dims 2 and 3
        ranks = {lam: isotypic_rank(lam, dim) for lam in all_partitions(order)}
        for lam, rank in ranks.items():
            assert rank == hook_length_count(lam) * ssyt_count(lam, dim)
        assert sum(ranks.values()) == dim**order

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_weight_space_blocks_match_the_dense_matrix(self, order):
        for dim in (1, 2, 3):
            for lam in all_partitions(order):
                assert isotypic_rank(lam, dim) == reference_isotypic_rank(lam, dim)

    @staticmethod
    def weight_type(word):
        return Partition(sorted(Counter(word).values(), reverse=True))

    @pytest.mark.parametrize("order, dim", [(4, 3), (5, 3), (6, 2), (2, 40)])
    def test_one_block_per_weight_type(self, order, dim):
        words = list(itertools.product(range(dim), repeat=order))
        lam = P(order - 1, 1)
        blocks = tensor_space._weight_blocks(isotypic_projector(lam)[0].term_set, order, dim)
        kept = [f for f, w in enumerate(words) if dominance_leq(self.weight_type(w), lam)]
        flats = [f for _, spaces in blocks for indices in spaces for f in indices]
        assert sorted(flats) == kept  # the spaces partition the indices of the types lam dominates
        for rows, spaces in blocks:
            assert len(rows) == len(spaces[0])
            counts = [words[spaces[0][0]].count(d) for d in range(dim)]
            assert counts == sorted(counts, reverse=True)  # the representative comes first
            for indices in spaces:
                assert len({tuple(sorted(words[f])) for f in indices}) == 1
                # one relabelling of the digits takes the representative's words to these
                pairs = {pair for f, g in zip(spaces[0], indices) for pair in zip(words[f], words[g])}
                relabel = dict(pairs)
                assert len(pairs) == len(relabel) == len(set(relabel.values()))
        parts = [mu for mu in all_partitions(order) if mu.rows <= dim and dominance_leq(mu, lam)]
        types = sorted(self.weight_type(words[spaces[0][0]]).parts for _, spaces in blocks)
        assert types == sorted(mu.parts for mu in parts)  # one block per type lam dominates, no other

    def test_vanishing_blocks_are_the_types_lam_does_not_dominate(self):
        # Young's rule: z_lam is zero on the weight type nu exactly when K_lam,nu = 0, that
        # is when lam does not dominate nu; _weight_blocks leaves those types out
        words = list(itertools.product(range(3), repeat=5))
        space_sizes = Counter(tuple(sorted(w)) for w in words)
        skipped = {}
        for lam in all_partitions(5):
            blocks = tensor_space._weight_blocks(isotypic_projector(lam)[0].term_set, 5, 3)
            assert all(any(map(any, rows)) for rows, _ in blocks)
            kept = {self.weight_type(words[spaces[0][0]]) for _, spaces in blocks}
            assert len(kept) == len(blocks)
            assert kept == {mu for mu in all_partitions(5) if mu.rows <= 3 and dominance_leq(mu, lam)}
            skipped[lam.parts] = sum(
                size**2 for word, size in space_sizes.items() if self.weight_type(word) not in kept
            )
        # of 4,653 multiply-adds per projection at p = 5, n = 3
        assert skipped == {
            (5,): 0, (4, 1): 3, (3, 2): 153, (3, 1, 1): 753, (2, 2, 1): 1953,
            (2, 1, 1, 1): 4653, (1, 1, 1, 1, 1): 4653,
        }

    def test_shared_blocks_stay_intact(self):
        # isotypic_rank and project_isotypic read one cached table of blocks;
        # neither rank_exact nor the projection may write into its rows
        t = random_tensor(5, 3, 53).scale(F(1) / 7)
        cases = [
            (lam, hook_length_count(lam) * ssyt_count(lam, 3), isotypic_projector(lam)[0])
            for lam in all_partitions(5)
        ]
        expected = {lam: reference_algebra_action(z, t) for lam, _, z in cases}
        for rank_first in (True, False):
            tensor_space._weight_blocks.cache_clear()
            for lam, rank, _ in cases:
                for step in range(3):
                    if (step % 2 == 0) == rank_first:
                        assert isotypic_rank(lam, 3) == rank
                    else:
                        assert project_isotypic(lam, t) == expected[lam]

    def test_rank_zero_iff_too_many_rows(self):
        for order in (2, 3, 4):
            for dim in (2, 3):
                for lam in all_partitions(order):
                    assert (isotypic_rank(lam, dim) == 0) == (lam.rows > dim)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            isotypic_rank(P(7), 2)

    def test_dense_size_guard_fires_before_the_projector_is_built(self, monkeypatch):
        # 5**6 = 15,625 entries; a projector build would call the None and fail with TypeError
        monkeypatch.setattr(tensor_space, "isotypic_projector", None)
        with pytest.raises(SizeGuardError, match=str(tensor_space.MAX_DENSE_SIZE)):
            isotypic_rank(P(3, 3), 5)

    def test_large_dim_with_small_blocks(self):
        # 1600 entries, but every weight space has at most 2 members
        assert isotypic_rank(P(1, 1), 40) == 780


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

    def test_vector_guard_fires_before_the_generator_is_built(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(tensor_space, "SplitMix64", refuse)
        with pytest.raises(SizeGuardError):
            random_vector(tensor_space.MAX_DENSE_SIZE + 1, 1)
        with pytest.raises(ValueError):
            random_vector(0, 1)

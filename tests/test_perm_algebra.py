import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurdet import (
    AlgebraElement,
    InternalConsistencyError,
    Partition,
    Permutation,
    SetPartition,
    SizeGuardError,
    all_partitions,
    all_permutations,
    all_set_partitions,
    character,
    isotypic_projector,
    positive_element,
    young_symmetrizer,
)
from schurdet import perm_algebra
from schurdet.perm_algebra import multiply
from oracles import (
    conjugate,
    reference_central_sum,
    reference_class_mass_projector,
    reference_multiply,
    reference_young_symmetrizer,
    refines,
)


def P(*parts):
    return Partition(parts)


perms4 = st.permutations(list(range(1, 5))).map(Permutation)
# small rationals with mixed denominators and both signs
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def elements(draw, degree, max_terms=8):
    perms = draw(st.lists(st.permutations(range(1, degree + 1)), max_size=max_terms))
    return AlgebraElement(degree, {Permutation(p): draw(fractions) for p in perms})


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 2])
        with pytest.raises(ValueError):
            Permutation([2, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])

    @pytest.mark.parametrize("images", ["213", [1.0, 2.0], [2.5, 1], [True], [2, True]])
    def test_rejects_non_integers(self, images):
        with pytest.raises(TypeError):
            Permutation(images)

    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert e.images == (1, 2, 3, 4)
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]

    def test_compose_convention(self):
        # right factor acts first: swap(1,2) after swap(2,3) sends 1->2, 2->3, 3->1
        s = Permutation([2, 1, 3])
        t = Permutation([1, 3, 2])
        assert (s * t).images == (2, 3, 1)
        assert (t * s).images == (3, 1, 2)

    def test_from_cycles(self):
        assert Permutation.from_cycles(4, (1, 2, 3)).images == (2, 3, 1, 4)
        assert Permutation.from_cycles(3, (1, 2), (3,)).images == (2, 1, 3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([2, 1]) * Permutation([1, 2, 3])

    @given(perms4, perms4, perms4)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perms4, perms4)
    def test_sign_is_a_homomorphism(self, a, b):
        assert (a * b).sign == a.sign * b.sign

    def test_sign_examples(self):
        assert Permutation.identity(3).sign == 1
        assert Permutation([2, 1, 3]).sign == -1
        assert Permutation([2, 3, 1]).sign == 1

    def test_cycles(self):
        a = Permutation([2, 3, 1, 4, 6, 5])
        assert a.cycles() == [(1, 2, 3), (4,), (5, 6)]
        assert SetPartition(a.cycles()) == SetPartition([[1, 2, 3], [4], [5, 6]])
        assert SetPartition(a.cycles()).shape() == P(3, 2, 1)

    def test_all_permutations_count(self):
        for p in range(1, 6):
            items = list(all_permutations(p))
            assert len(items) == math.factorial(p)
            assert len(set(items)) == len(items)
            assert [g.images for g in items] == sorted(g.images for g in items)


class TestAlgebraElement:
    def test_unit_and_scalars(self):
        u = AlgebraElement.unit(3)
        assert u.support_size == 1
        assert u.coefficient(Permutation.identity(3)) == 1
        assert u.scale(0).is_zero
        assert (u + u) == u.scale(2)
        assert (u - u).is_zero

    def test_zero_coefficients_are_dropped(self):
        s = Permutation([2, 1, 3])
        x = AlgebraElement(3, {s: Fraction(1), Permutation.identity(3): Fraction(0)})
        assert x.support_size == 1

    def test_multiplication_matches_composition(self):
        s = Permutation([2, 1, 3])
        t = Permutation([1, 3, 2])
        prod = AlgebraElement(3, {s: 1}) * AlgebraElement(3, {t: 1})
        assert prod == AlgebraElement(3, {s * t: 1})

    def test_unit_is_neutral(self):
        x = AlgebraElement(
            3,
            {
                Permutation([2, 1, 3]): Fraction(3, 2),
                Permutation([2, 3, 1]): Fraction(-1),
            },
        )
        u = AlgebraElement.unit(3)
        assert u * x == x
        assert x * u == x

    def test_product_is_associative_and_distributive(self):
        # a handful of structured elements is enough to catch sign slips
        elems = [
            AlgebraElement(3, {Permutation([2, 1, 3]): 2}),
            young_symmetrizer(P(2, 1)),
            positive_element(SetPartition([[1, 3], [2]])) - young_symmetrizer(P(1, 1, 1)),
            AlgebraElement.unit(3).scale(Fraction(1, 3)),
        ]
        for a in elems:
            for b in elems:
                assert a * (b + elems[0]) == a * b + a * elems[0]
                for c in elems:
                    assert (a * b) * c == a * (b * c)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            AlgebraElement.unit(2) + AlgebraElement.unit(3)
        with pytest.raises(ValueError):
            AlgebraElement.unit(2) * AlgebraElement.unit(3)


class TestMultiplyKernel:
    """The integer composition kernel against the Fraction double loop."""

    def check(self, left, right):
        product = multiply(left, right)
        assert product == reference_multiply(left, right)
        assert all(coeff for _, coeff in product.terms)

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_the_reference(self, data):
        degree = data.draw(st.integers(1, 4))
        self.check(data.draw(elements(degree)), data.draw(elements(degree)))

    def test_empty_factor(self):
        x = young_symmetrizer(P(2, 1)).scale(Fraction(-5, 6))
        zero = AlgebraElement(3)
        for left, right in [(zero, x), (x, zero), (zero, zero)]:
            self.check(left, right)
            assert multiply(left, right).is_zero

    def test_degree_one(self):
        e = Permutation.identity(1)
        left = AlgebraElement(1, {e: Fraction(-7, 4)})
        right = AlgebraElement(1, {e: Fraction(2, 3)})
        self.check(left, right)
        assert multiply(left, right).coefficient(e) == Fraction(-7, 6)

    def test_cancelling_terms_are_dropped(self):
        # (1 + s)(1 - s) = 1 - s^2 = 0 for a transposition s
        s = Permutation([2, 1, 3])
        e = AlgebraElement.unit(3)
        plus = e + AlgebraElement(3, {s: 1})
        minus = e - AlgebraElement(3, {s: 1})
        self.check(plus, minus)
        assert multiply(plus, minus).is_zero
        # x (1 + s) (1 - s) = 0 as well, through many cancelling term pairs
        x = young_symmetrizer(P(2, 1)).scale(Fraction(1, 3))
        self.check(x * plus, minus)
        assert multiply(x * plus, minus).is_zero
        # partial cancellation: (1 + s)(1 - s + c t) = c t + c s t
        c = Fraction(5, 2)
        t = Permutation([1, 3, 2])
        mixed = minus + AlgebraElement(3, {t: c})
        self.check(plus, mixed)
        assert multiply(plus, mixed) == AlgebraElement(3, {t: c, s * t: c})


@st.composite
def young_left_factors(draw, degree):
    """Left factors that are one coefficient over a whole Young subgroup or not:
    a scaled positive element (coset sums), a sum of two with equal or
    different coefficients, or a positive element plus stray terms (term pairs,
    unless the sum happens to be Young again)."""
    pis = st.sampled_from(all_set_partitions(degree))
    c = draw(fractions.filter(bool))
    left = positive_element(draw(pis)).scale(c)
    kind = draw(st.sampled_from(["scaled", "two", "stray"]))
    if kind == "two":
        d = draw(st.sampled_from([c, draw(fractions.filter(bool))]))
        left = left + positive_element(draw(pis)).scale(d)
    elif kind == "stray":
        left = left + draw(elements(degree, max_terms=3))
    return left


def right_factors(degree):
    lams = st.sampled_from(all_partitions(degree))
    return st.one_of(
        elements(degree),
        st.builds(lambda lam, c: young_symmetrizer(lam).scale(c), lams, fractions.filter(bool)),
        lams.map(lambda lam: isotypic_projector(lam)[0]),
    )


class TestCosetProducts:
    """A left factor that is one coefficient over a whole Young subgroup is
    multiplied by coset sums; every product still equals the Fraction loop."""

    check = TestMultiplyKernel.check

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_reference(self, data):
        degree = data.draw(st.integers(1, 5), label="degree")
        left = data.draw(young_left_factors(degree), label="left")
        right = data.draw(right_factors(degree), label="right")
        self.check(left, right)

    def test_positive_elements_are_young(self):
        for degree in range(1, 6):
            for pi in all_set_partitions(degree):
                group = frozenset(positive_element(pi).nums)
                assert perm_algebra.young_blocks(group) == pi.blocks

    def test_every_positive_element_times_every_projector(self):
        for lam in all_partitions(4):
            z = isotypic_projector(lam)[0]
            for pi in all_set_partitions(4):
                self.check(positive_element(pi), z)
                self.check(positive_element(pi).scale(Fraction(-2, 3)), z)

    def test_block_partition_short_of_the_whole_young_subgroup(self):
        # {id, (12)(34)}: each point's images give the blocks {1,2} and {3,4},
        # but S_{1,2} x S_{3,4} has four members, so the pair loop takes it
        pair = [Permutation.identity(4), Permutation.from_cycles(4, (1, 2), (3, 4))]
        assert perm_algebra.young_blocks(frozenset(g.images for g in pair)) is None
        left = AlgebraElement(4, dict.fromkeys(pair, Fraction(3, 2)))
        for right in (young_symmetrizer(P(2, 2)), isotypic_projector(P(3, 1))[0], left):
            self.check(left, right)
            self.check(right, left)

    def test_degree_one_and_degree_two_left_factors(self):
        # degree 1 composes its one term pair; itemgetter on one index gives no tuple
        left = AlgebraElement(1, {Permutation([1]): 3})
        assert left.young_sum == (3, ((1,),))
        self.check(left, AlgebraElement(1, {Permutation([1]): Fraction(-2, 5)}))
        # degree 2: S_2 is one coset, so both right terms sum to -5/2 on each member
        left = positive_element(SetPartition([[1, 2]]))
        assert left.young_sum == (1, ((1, 2),))
        e, s = Permutation([1, 2]), Permutation([2, 1])
        right = AlgebraElement(2, {e: Fraction(1, 2), s: -3})
        self.check(left, right)
        assert multiply(left, right) == AlgebraElement(2, {e: Fraction(-5, 2), s: Fraction(-5, 2)})

    def test_identity_alone_and_the_degree_one_group(self):
        assert perm_algebra.young_blocks(frozenset({(1,)})) == ((1,),)
        assert perm_algebra.young_blocks(frozenset({(1, 2, 3)})) == ((1,), (2,), (3,))
        assert perm_algebra.young_blocks(frozenset({(2, 1)})) is None
        assert perm_algebra.young_blocks(frozenset()) is None


def assert_canonical(x):
    assert x.den > 0
    assert all(x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1
    assert all(Fraction(x.nums[p.images], x.den) == c for p, c in x.terms)


class TestCanonicalForm:
    """One representation: integer numerators over a positive least denominator."""

    @settings(max_examples=60)
    @given(st.data())
    def test_results_are_in_lowest_terms(self, data):
        degree = data.draw(st.integers(1, 4))
        x, y = data.draw(elements(degree)), data.draw(elements(degree))
        c = data.draw(fractions)
        for z in (x, x + y, x - y, -x, x.scale(c), x * y, multiply(x, x)):
            assert_canonical(z)

    def test_named_elements_are_in_lowest_terms(self):
        for pi in all_set_partitions(4):
            assert_canonical(positive_element(pi))
        for w in range(1, 7):
            for lam in all_partitions(w):
                assert_canonical(isotypic_projector(lam)[0])

    @settings(max_examples=60)
    @given(st.data())
    def test_routes_to_one_element_agree_field_for_field(self, data):
        degree = data.draw(st.integers(1, 4))
        x = data.draw(elements(degree))
        unit = AlgebraElement.unit(degree)
        built = [
            AlgebraElement(degree, {p: str(c) for p, c in x.terms}),
            x.scale(6).scale(Fraction(1, 6)),
            x + x - x,
            unit * x,
            x * unit,
        ]
        for other in built:
            assert other == x
            assert (other.degree, other.den, dict(other.nums)) == (x.degree, x.den, dict(x.nums))

    def test_string_and_fraction_coefficients_agree(self):
        s = Permutation([2, 1, 3])
        half = AlgebraElement(3, {s: Fraction(1, 2)})
        assert AlgebraElement(3, {s: "2/4"}) == half
        assert (half.den, dict(half.nums)) == (2, {(2, 1, 3): 1})

    def test_zero_has_denominator_one(self):
        half = AlgebraElement.unit(3).scale(Fraction(1, 2))
        s = AlgebraElement(3, {Permutation([2, 1, 3]): 1})
        unit = AlgebraElement.unit(3)
        zeros = [
            AlgebraElement(3),
            half - half,
            half.scale(0),
            AlgebraElement(3, {Permutation.identity(3): "0/7"}),
            multiply((unit + s).scale(Fraction(1, 3)), unit - s),
        ]
        for zero in zeros:
            assert zero.is_zero
            assert (zero.den, dict(zero.nums)) == (1, {})
            assert zero == AlgebraElement(3)

    def test_denominators_past_the_budget_are_refused_at_once(self):
        # 120 coprime-ish 991-digit denominators: their lcm would pass 390,000 bits
        group = all_permutations(5)
        coefficients = {g: Fraction(1, 10**990 + 2 * k + 1) for k, g in enumerate(group)}
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="common denominator"):
            AlgebraElement(5, coefficients)
        assert time.perf_counter() - started < 1.0

    def test_scale_sum_and_product_refuse_a_large_denominator_at_once(self):
        # 6 terms over 6: scaled by 3**-(2**20) they would pass the budget 2.4 times
        z = isotypic_projector(P(3))[0]
        huge, third, fifth = (Fraction(1, b ** (2**e)) for b, e in ((3, 20), (3, 18), (5, 18)))
        started = time.perf_counter()
        with pytest.raises(SizeGuardError, match="scaled denominators"):
            z.scale(huge)
        assert time.perf_counter() - started < 0.5
        # each within the budget alone (6 terms of 415,491 and 608,683 bits); their
        # sum's denominator, 6 * 15**(2**18), and their product's are not
        a, b = z.scale(third), z.scale(fifth)
        for operation, what in ((a.__add__, "summed"), (a.__mul__, "multiplied")):
            started = time.perf_counter()
            with pytest.raises(SizeGuardError, match=f"{what} denominators"):
                operation(b)
            assert time.perf_counter() - started < 0.5

    def test_products_and_sums_within_the_budget_still_work(self):
        z = isotypic_projector(P(3))[0]
        a = z.scale(Fraction(1, 3 ** (2**18)))
        assert a + a == z.scale(Fraction(2, 3 ** (2**18))) and (a - a).is_zero
        assert a.scale(3) == z.scale(Fraction(1, 3 ** (2**18 - 1)))
        assert a * AlgebraElement.unit(3) == a == AlgebraElement.unit(3) * a
        assert multiply(a, positive_element(SetPartition([[1, 2, 3]]))) == a.scale(6)
        # a left factor that is not one coefficient over a Young subgroup: w * w = w
        w, third = isotypic_projector(P(2, 1))[0], Fraction(1, 3 ** (2**18))
        assert w.young_sum is None
        assert w.scale(third) * w == w.scale(third)

    def test_cached_projector_cannot_be_edited(self):
        z, _ = isotypic_projector(P(2, 1))
        before = (z.den, dict(z.nums))
        with pytest.raises(TypeError):
            z.nums[(1, 2, 3)] = 0
        with pytest.raises(TypeError):
            del z.nums[(1, 2, 3)]
        with pytest.raises(AttributeError):
            z.den = 7
        with pytest.raises(AttributeError):
            z.nums = {}
        again, _ = isotypic_projector(P(2, 1))
        assert (again.den, dict(again.nums)) == before

    def test_terms_come_in_image_order(self):
        x = young_symmetrizer(P(2, 1)).scale(Fraction(-3, 4))
        images = [p.images for p, _ in x.terms]
        assert images == sorted(images)
        assert repr(x) == "-3/4*[1 2 3] + -3/4*[2 1 3] + 3/4*[3 1 2] + 3/4*[3 2 1]"

    def test_terms_view_is_built_once(self):
        x = young_symmetrizer(P(3, 1)).scale(Fraction(2, 5))
        first = x.terms
        assert x.terms is first
        assert [p.images for p, _ in first] == sorted(x.nums)
        assert all(c == Fraction(x.nums[p.images], x.den) for p, c in first)
        # the cached view is no field: equality, hashing and the field set are as before
        assert [f.name for f in dataclasses.fields(x)] == ["degree", "den", "nums"]
        assert x == AlgebraElement(4, dict(first)) and x != x.scale(2)
        with pytest.raises(TypeError):
            hash(x)

    def test_term_set_and_young_sum_are_built_once(self):
        """The cache keys read on every projection of a cached projector."""
        projector, _ = isotypic_projector(P(3, 2))
        assert projector.term_set == frozenset(projector.nums.items())
        assert projector.term_set is projector.term_set
        assert projector.young_sum is None
        for pi in all_set_partitions(4):
            for scalar in (1, Fraction(-3, 2)):
                x = positive_element(pi).scale(scalar)
                # the numerator over the whole S_B; the denominator stays in x.den
                assert x.young_sum == (Fraction(scalar).numerator, pi.blocks)
                assert x.young_sum is x.young_sum
        assert AlgebraElement(3).young_sum is None
        assert young_symmetrizer(P(2, 1)).young_sum is None


class TestTableauGroups:
    def test_support_is_the_row_group_times_the_column_group(self):
        # rows and columns meet only at the identity, so every product is a distinct term
        for w in range(2, 7):
            for lam in all_partitions(w):
                rows = math.prod(math.factorial(v) for v in lam.parts)
                columns = math.prod(math.factorial(v) for v in conjugate(lam).parts)
                assert young_symmetrizer(lam).support_size == rows * columns

    def test_young_symmetrizer_of_a_row_and_a_column(self):
        row = young_symmetrizer(P(3))
        assert row.support_size == 6
        assert all(c == 1 for _, c in row.terms)
        col = young_symmetrizer(P(1, 1, 1))
        assert col.support_size == 6
        assert all(c == g.sign for g, c in col.terms)

    def test_young_symmetrizer_matches_the_filtered_groups(self):
        for w in range(1, 6):
            for lam in all_partitions(w):
                assert young_symmetrizer(lam) == reference_young_symmetrizer(lam)

    def test_young_symmetrizer_hook_frozen(self):
        c = young_symmetrizer(P(2, 1))
        expected = {
            (1, 2, 3): Fraction(1),
            (2, 1, 3): Fraction(1),
            (3, 2, 1): Fraction(-1),
            (3, 1, 2): Fraction(-1),
        }
        assert {g.images: co for g, co in c.terms} == expected

    def test_young_symmetrizer_squares_to_scalar_multiple(self):
        for w in range(2, 6):
            for lam in all_partitions(w):
                c = young_symmetrizer(lam)
                expected = Fraction(
                    math.factorial(w), character(lam, (1,) * w)
                )
                assert c * c == c.scale(expected)

    def test_identity_coefficient_is_one(self):
        for lam in all_partitions(4):
            assert young_symmetrizer(lam).coefficient(Permutation.identity(4)) == 1

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            young_symmetrizer(P(5, 4))

    def test_enumeration_guard_fires_before_a_permutation_is_built(self, monkeypatch):
        def refuse(images):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(perm_algebra, "Permutation", refuse)
        with pytest.raises(SizeGuardError):
            all_permutations(9)
        with pytest.raises(SizeGuardError):
            young_symmetrizer(P(9))
        with pytest.raises(SizeGuardError):
            young_symmetrizer(P(*[1] * 9))
        with pytest.raises(SizeGuardError):
            positive_element(SetPartition([range(1, 10)]))


class TestPositiveElement:
    def test_support_is_the_block_stabilizer(self):
        for pi in all_set_partitions(4):
            pos = positive_element(pi)
            expected_size = math.prod(math.factorial(len(b)) for b in pi.blocks)
            assert pos.support_size == expected_size
            assert all(c == 1 for _, c in pos.terms)
            for g in all_permutations(4):
                in_support = pos.coefficient(g) == 1
                assert in_support == refines(SetPartition(g.cycles()), pi)

    def test_discrete_partition_gives_the_unit(self):
        pi = SetPartition([[1], [2], [3]])
        assert positive_element(pi) == AlgebraElement.unit(3)

    def test_single_block_gives_the_full_unsigned_sum(self):
        pos = positive_element(SetPartition([[1, 2, 3]]))
        assert pos.support_size == 6
        assert all(c == 1 for _, c in pos.terms)

    def test_preset_young_sum_is_the_detected_one(self):
        # the young_sum a positive element carries from birth is what detection finds
        for p in range(1, 7):
            for pi in all_set_partitions(p):
                pos = positive_element(pi)
                assert pos.young_sum == (1, perm_algebra.young_blocks(frozenset(pos.nums)))

    def test_support_is_shared_but_each_call_builds_its_element(self):
        pi = SetPartition([[1, 3], [2, 4, 5]])
        first, second = positive_element(pi), positive_element(pi)
        assert first == second and first is not second
        assert not hasattr(positive_element, "cache_info")


class TestIsotypicProjector:
    def test_normalizer_value(self):
        # the scalar is (p! / tableau count)^2
        for w in range(2, 7):
            for lam in all_partitions(w):
                _, scale = isotypic_projector(lam)
                f = character(lam, (1,) * w)
                assert scale == Fraction(math.factorial(w), f) ** 2

    def test_matches_the_conjugation_sum(self):
        for w in range(1, 6):
            for lam in all_partitions(w):
                proj, scale = isotypic_projector(lam)
                assert proj == reference_central_sum(lam).scale(1 / scale)

    def test_matches_the_class_mass_construction(self):
        for w in range(1, 7):
            for lam in all_partitions(w):
                assert isotypic_projector(lam)[0] == reference_class_mass_projector(lam)

    def test_idempotent(self):
        for w in (4, 5):
            for lam in all_partitions(w):
                proj, _ = isotypic_projector(lam)
                assert proj * proj == proj

    def test_mutually_orthogonal_and_complete(self):
        for w in range(2, 6):
            projs = [isotypic_projector(lam)[0] for lam in all_partitions(w)]
            total = AlgebraElement(w, {})
            for i, a in enumerate(projs):
                total = total + a
                for j, b in enumerate(projs):
                    if i != j:
                        assert (a * b).is_zero
            assert total == AlgebraElement.unit(w)

    def test_central(self):
        for lam in all_partitions(4):
            proj, _ = isotypic_projector(lam)
            for k in range(1, 4):
                t = AlgebraElement(4, {Permutation.from_cycles(4, (k, k + 1)): 1})
                assert t * proj == proj * t

    def test_fault_check_fires(self, monkeypatch):
        isotypic_projector.cache_clear()
        monkeypatch.setattr(perm_algebra, "character", lambda lam, t: 2 * character(lam, t))
        try:
            with pytest.raises(InternalConsistencyError):
                isotypic_projector(P(3, 2))
        finally:
            isotypic_projector.cache_clear()

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            isotypic_projector(P(4, 3))

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurdet import (
    AlgebraElement,
    Partition,
    Permutation,
    SetPartition,
    SizeGuardError,
    all_partitions,
    all_permutations,
    all_set_partitions,
    column_antisymmetrizer,
    column_group,
    isotypic_projector,
    positive_element,
    row_group,
    row_symmetrizer,
    standard_tableau_count,
    young_symmetrizer,
)
from schurdet import perm_algebra
from schurdet.perm_algebra import multiply
from oracles import reference_central_sum, reference_multiply


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

    @given(perms4)
    def test_inverse(self, a):
        e = Permutation.identity(4)
        assert a * a.inverse() == e
        assert a.inverse() * a == e

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
        assert a.cycle_partition() == SetPartition([[1, 2, 3], [4], [5, 6]])
        assert a.cycle_partition().shape() == P(3, 2, 1)

    def test_all_permutations_count(self):
        for p in range(1, 6):
            items = list(all_permutations(p))
            assert len(items) == math.factorial(p)
            assert len(set(items)) == len(items)


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
        prod = AlgebraElement.from_permutation(s) * AlgebraElement.from_permutation(t)
        assert prod == AlgebraElement.from_permutation(s * t)

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
            AlgebraElement.from_permutation(Permutation([2, 1, 3]), 2),
            young_symmetrizer(P(2, 1)),
            row_symmetrizer(P(2, 1)) - column_antisymmetrizer(P(2, 1)),
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

    def test_json_round_trip(self):
        x = young_symmetrizer(P(2, 1)).scale(Fraction(2, 3))
        obj = x.to_json_obj()
        assert AlgebraElement.from_json_obj(obj) == x
        # serialized terms come sorted by image tuple, with reduced fractions
        assert [item["perm"] for item in obj] == sorted(item["perm"] for item in obj)
        assert {item["coeff"] for item in obj} == {"2/3", "-2/3"}


class TestMultiplyKernel:
    """The integer composition kernel against the Fraction double loop."""

    def check(self, left, right):
        product = multiply(left, right)
        assert product == reference_multiply(left, right)
        assert all(coeff for _, coeff in product.terms())

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
        plus = e + AlgebraElement.from_permutation(s)
        minus = e - AlgebraElement.from_permutation(s)
        self.check(plus, minus)
        assert multiply(plus, minus).is_zero
        # x (1 + s) (1 - s) = 0 as well, through many cancelling term pairs
        x = young_symmetrizer(P(2, 1)).scale(Fraction(1, 3))
        self.check(x * plus, minus)
        assert multiply(x * plus, minus).is_zero
        # partial cancellation: (1 + s)(1 - s + c t) = c t + c s t
        c = Fraction(5, 2)
        t = Permutation([1, 3, 2])
        mixed = minus + AlgebraElement.from_permutation(t, c)
        self.check(plus, mixed)
        assert multiply(plus, mixed) == AlgebraElement(3, {t: c, s * t: c})

class TestTableauGroups:
    def test_row_and_column_groups_of_a_hook(self):
        lam = P(2, 1)  # filling: row one holds 1,2; row two holds 3
        assert {g.images for g in row_group(lam)} == {(1, 2, 3), (2, 1, 3)}
        assert {g.images for g in column_group(lam)} == {(1, 2, 3), (3, 2, 1)}

    def test_group_sizes(self):
        for w in range(2, 7):
            for lam in all_partitions(w):
                assert len(row_group(lam)) == math.prod(
                    math.factorial(v) for v in lam.parts
                )
                assert len(column_group(lam)) == math.prod(
                    math.factorial(v) for v in lam.conjugate().parts
                )

    def test_row_meets_column_only_at_identity(self):
        for w in range(2, 7):
            for lam in all_partitions(w):
                overlap = set(row_group(lam)) & set(column_group(lam))
                assert overlap == {Permutation.identity(w)}

    def test_young_symmetrizer_of_a_row_and_a_column(self):
        row = young_symmetrizer(P(3))
        assert row.support_size == 6
        assert all(c == 1 for _, c in row.terms())
        col = young_symmetrizer(P(1, 1, 1))
        assert col.support_size == 6
        assert all(c == g.sign for g, c in col.terms())

    def test_young_symmetrizer_hook_frozen(self):
        c = young_symmetrizer(P(2, 1))
        expected = {
            (1, 2, 3): Fraction(1),
            (2, 1, 3): Fraction(1),
            (3, 2, 1): Fraction(-1),
            (3, 1, 2): Fraction(-1),
        }
        assert {g.images: co for g, co in c.terms()} == expected

    def test_young_symmetrizer_squares_to_scalar_multiple(self):
        for w in range(2, 6):
            for lam in all_partitions(w):
                c = young_symmetrizer(lam)
                expected = Fraction(
                    math.factorial(w), standard_tableau_count(lam)
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
            row_group(P(9))
        with pytest.raises(SizeGuardError):
            column_group(P(5, 4))
        with pytest.raises(SizeGuardError):
            positive_element(SetPartition([range(1, 10)]))


class TestPositiveElement:
    def test_support_is_the_block_stabilizer(self):
        for pi in all_set_partitions(4):
            pos = positive_element(pi)
            expected_size = math.prod(math.factorial(len(b)) for b in pi.blocks)
            assert pos.support_size == expected_size
            assert all(c == 1 for _, c in pos.terms())
            for g in all_permutations(4):
                in_support = pos.coefficient(g) == 1
                assert in_support == g.cycle_partition().refines(pi)

    def test_discrete_partition_gives_the_unit(self):
        pi = SetPartition([[1], [2], [3]])
        assert positive_element(pi) == AlgebraElement.unit(3)

    def test_single_block_gives_the_full_unsigned_sum(self):
        pos = positive_element(SetPartition([[1, 2, 3]]))
        assert pos.support_size == 6
        assert all(c == 1 for _, c in pos.terms())


class TestIsotypicProjector:
    def test_normalizer_value(self):
        # the scalar is (p! / tableau count)^2
        for w in range(2, 5):
            for lam in all_partitions(w):
                _, scale = isotypic_projector(lam)
                f = standard_tableau_count(lam)
                assert scale == Fraction(math.factorial(w), f) ** 2

    def test_matches_the_conjugation_sum(self):
        for w in range(1, 6):
            for lam in all_partitions(w):
                proj, scale = isotypic_projector(lam)
                assert proj == reference_central_sum(lam).scale(1 / scale)

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
                t = AlgebraElement.from_permutation(
                    Permutation.from_cycles(4, (k, k + 1))
                )
                assert t * proj == proj * t

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            isotypic_projector(P(4, 3))

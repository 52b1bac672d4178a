import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import conjugate, refines
from schurdet import (
    Partition,
    SetPartition,
    SizeGuardError,
    all_partitions,
    all_set_partitions,
    character,
    critical_set,
    dominance_leq,
    is_exceptional,
)


def P(*parts):
    return Partition(parts)


small_partitions = st.integers(1, 7).flatmap(
    lambda w: st.sampled_from(all_partitions(w))
)


class TestPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([-1])

    @pytest.mark.parametrize("parts", [[2.7, 1], [2.0, 1], "32", ["3", "2"], [True], [2, False]])
    def test_rejects_non_integers(self, parts):
        # int() would read these as (2,1), (2,1), (3,2), (3,2), (1) and (2,0)
        with pytest.raises(TypeError):
            Partition(parts)

    def test_basic_attributes(self):
        lam = P(4, 2, 1)
        assert lam.weight == 7
        assert lam.rows == 3
        assert lam.parts == (4, 2, 1)
        assert lam.part(0) == 4
        assert lam.part(5) == 0  # implicit trailing zeros
        assert str(lam) == "(4,2,1)"

    def test_empty_partition_is_allowed(self):
        empty = Partition([])
        assert empty.weight == 0
        assert conjugate(empty) == empty

    def test_conjugate_examples(self):
        assert conjugate(P(3, 1)) == P(2, 1, 1)
        assert conjugate(P(4)) == P(1, 1, 1, 1)
        assert conjugate(P(2, 2)) == P(2, 2)

    @given(small_partitions)
    def test_conjugate_is_an_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert conjugate(lam).weight == lam.weight

    def test_json_round_trip(self):
        lam = P(5, 3, 3, 1)
        assert Partition(lam.to_json_obj()) == lam
        assert lam.to_json_obj() == [5, 3, 3, 1]


class TestEnumeration:
    def test_counts_match_the_literature(self):
        # partition numbers p(1)..p(12)
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        assert [len(all_partitions(w)) for w in range(1, 13)] == expected

    def test_weight_four_order(self):
        assert all_partitions(4) == [
            P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1),
        ]

    def test_no_duplicates_and_right_weight(self):
        for w in range(1, 9):
            items = all_partitions(w)
            assert len(set(items)) == len(items)
            assert all(q.weight == w for q in items)

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            all_partitions(0)
        with pytest.raises(SizeGuardError):
            all_partitions(13)


class TestDominance:
    def test_examples(self):
        assert dominance_leq(P(2, 2), P(3, 1))
        assert dominance_leq(P(3, 1), P(4))
        assert not dominance_leq(P(3, 1), P(2, 2))
        # classic incomparable pair at weight 6
        assert not dominance_leq(P(3, 3), P(4, 1, 1))
        assert not dominance_leq(P(4, 1, 1), P(3, 3))

    def test_unequal_weights_compare_false(self):
        assert not dominance_leq(P(2), P(2, 1))
        assert not dominance_leq(P(2, 1), P(2))

    @given(small_partitions)
    def test_reflexive(self, lam):
        assert dominance_leq(lam, lam)

    def test_antisymmetric_and_transitive(self):
        for w in range(2, 7):
            items = all_partitions(w)
            for a in items:
                for b in items:
                    if dominance_leq(a, b) and dominance_leq(b, a):
                        assert a == b
                    for c in items:
                        if dominance_leq(a, b) and dominance_leq(b, c):
                            assert dominance_leq(a, c)

    def test_conjugation_reverses_the_order(self):
        for w in range(2, 7):
            for a in all_partitions(w):
                for b in all_partitions(w):
                    assert dominance_leq(a, b) == dominance_leq(
                        conjugate(b), conjugate(a)
                    )

    def test_extremes(self):
        for w in range(2, 8):
            top = P(w)
            bottom = Partition([1] * w)
            for lam in all_partitions(w):
                assert dominance_leq(lam, top)
                assert dominance_leq(bottom, lam)


class TestCriticalSet:
    def test_frozen_examples(self):
        assert critical_set(P(1, 1)) == frozenset({P(2)})
        assert critical_set(P(2, 1)) == frozenset({P(3)})
        assert critical_set(P(2, 2)) == frozenset({P(3, 1)})
        assert critical_set(P(3, 2)) == frozenset({P(4, 1)})
        assert critical_set(P(3, 1, 1)) == frozenset({P(3, 2)})
        assert critical_set(P(2, 2, 1)) == frozenset({P(3, 1, 1)})
        assert critical_set(P(2, 2, 2)) == frozenset({P(3, 1, 1, 1)})

    def test_row_and_hook_shapes(self):
        for p in range(2, 9):
            assert critical_set(P(p)) == frozenset()
            assert critical_set(Partition([p - 1, 1])) == frozenset({P(p)})

    def test_defining_property(self):
        """Critical elements are exactly the minimal partitions outside the down-set."""
        for w in range(2, 8):
            for lam in all_partitions(w):
                crit = critical_set(lam)
                outside = [
                    mu for mu in all_partitions(w) if not dominance_leq(mu, lam)
                ]
                for mu in crit:
                    assert mu in outside
                    assert not any(
                        nu != mu and dominance_leq(nu, mu) for nu in outside
                    )
                # completeness: everything outside sits above some critical element
                for nu in outside:
                    assert any(dominance_leq(mu, nu) for mu in crit)

    def test_nonexceptional_critical_elements_have_two_rows(self):
        for w in range(3, 8):
            for lam in all_partitions(w):
                if is_exceptional(lam):
                    continue
                assert all(mu.rows >= 2 for mu in critical_set(lam))


class TestExceptional:
    def test_examples(self):
        assert is_exceptional(P(5))
        assert is_exceptional(P(4, 1))
        assert is_exceptional(P(2))
        assert is_exceptional(P(1, 1))
        assert not is_exceptional(P(3, 2))
        assert not is_exceptional(P(2, 2, 1))
        assert not is_exceptional(P(1, 1, 1))

    def test_needs_weight_two(self):
        with pytest.raises(ValueError):
            is_exceptional(P(1))


def tableau_count(lam: Partition) -> int:
    return character(lam, (1,) * lam.weight)


class TestStandardTableauCount:
    def test_frozen_values(self):
        assert tableau_count(P(3)) == 1
        assert tableau_count(P(1, 1, 1)) == 1
        assert tableau_count(P(2, 1)) == 2
        assert tableau_count(P(2, 2)) == 2
        assert tableau_count(P(3, 1)) == 3
        assert tableau_count(P(3, 2)) == 5
        assert tableau_count(P(4, 4)) == 14
        assert tableau_count(P(3, 3, 2)) == 42

    def test_matches_hook_length_formula(self):
        for w in range(1, 9):
            for lam in all_partitions(w):
                assert tableau_count(lam) == oracles.hook_length_count(lam)

    def test_sum_of_squares_is_factorial(self):
        for w in range(1, 8):
            total = sum(tableau_count(q) ** 2 for q in all_partitions(w))
            assert total == math.factorial(w)


def class_size(nu: Partition) -> int:
    """Permutations of cycle type nu: w! / z_nu."""
    z = math.prod(r ** m * math.factorial(m) for r, m in Counter(nu.parts).items())
    return math.factorial(nu.weight) // z


class TestCharacter:
    def test_row_orthogonality(self):
        for w in range(1, 8):
            shapes = all_partitions(w)
            for lam in shapes:
                for mu in shapes:
                    total = sum(
                        class_size(nu) * character(lam, nu.parts) * character(mu, nu.parts)
                        for nu in shapes
                    )
                    assert total == (math.factorial(w) if lam == mu else 0)

    def test_trivial_sign_and_conjugate(self):
        for w in range(1, 8):
            for nu in all_partitions(w):
                sign = (-1) ** (w - nu.rows)
                assert character(P(w), nu.parts) == 1
                assert character(P(*[1] * w), nu.parts) == sign
                for lam in all_partitions(w):
                    assert character(conjugate(lam), nu.parts) == sign * character(lam, nu.parts)

    def test_independent_of_the_cycle_order(self):
        for lam in all_partitions(6):
            for nu in all_partitions(6):
                assert character(lam, nu.parts[::-1]) == character(lam, nu.parts)

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            character(P(13), (13,))
        with pytest.raises(ValueError):
            character(P(3, 1), (3,))
        with pytest.raises(ValueError):
            character(P(3, 1), (4, 0))


class TestSetPartition:
    def test_canonical_form(self):
        pi = SetPartition([[3], [1, 2]])
        assert pi.blocks == ((1, 2), (3,))
        assert pi == SetPartition([[2, 1], [3]])
        assert str(pi) == "{{1,2}, {3}}"

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition([[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            SetPartition([[1], [3]])  # gap
        with pytest.raises(ValueError):
            SetPartition([[1], []])

    @pytest.mark.parametrize(
        "blocks", [[[1.9], [2]], [[1.0], [2]], [[True], [2]], ["12"], [["1"], ["2"]]]
    )
    def test_rejects_non_integers(self, blocks):
        # int() would read the first as {{1},{2}}
        with pytest.raises(TypeError):
            SetPartition(blocks)

    def test_shape(self):
        pi = SetPartition([[1, 4], [2], [3, 5, 6]])
        assert pi.shape() == P(3, 2, 1)
        assert pi.ground_size == 6

    def test_shape_is_built_once_outside_equality_and_hashing(self):
        pi = SetPartition([[1, 4], [2], [3, 5, 6]])
        fresh = SetPartition(pi.blocks)
        assert pi.shape() is pi.shape()
        assert pi == fresh and hash(pi) == hash(fresh)
        assert repr(pi) == repr(fresh)

    def test_refines_examples(self):
        fine = SetPartition([[1], [2], [3]])
        mid = SetPartition([[1, 2], [3]])
        coarse = SetPartition([[1, 2, 3]])
        assert refines(fine, mid) and refines(mid, coarse) and refines(fine, coarse)
        assert not refines(coarse, mid)
        assert not refines(mid, SetPartition([[1, 3], [2]]))

    def test_refines_needs_matching_ground(self):
        with pytest.raises(ValueError):
            refines(SetPartition([[1, 2]]), SetPartition([[1, 2, 3]]))

    def test_refinement_is_a_partial_order(self):
        items = all_set_partitions(4)
        for a in items:
            assert refines(a, a)
            for b in items:
                if refines(a, b) and refines(b, a):
                    assert a == b
                for c in items:
                    if refines(a, b) and refines(b, c):
                        assert refines(a, c)

    def test_bell_counts(self):
        expected = [1, 2, 5, 15, 52, 203, 877, 4140]
        assert [len(all_set_partitions(g)) for g in range(1, 9)] == expected

    def test_enumeration_has_no_duplicates(self):
        for g in range(1, 7):
            items = all_set_partitions(g)
            assert len(set(items)) == len(items)
            assert all(pi.ground_size == g for pi in items)

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            all_set_partitions(0)
        with pytest.raises(SizeGuardError):
            all_set_partitions(9)

    def test_json_round_trip(self):
        pi = SetPartition([[1, 3], [2], [4, 5]])
        assert SetPartition(pi.to_json_obj()) == pi
        assert pi.to_json_obj() == [[1, 3], [2], [4, 5]]

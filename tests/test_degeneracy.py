import json
from fractions import Fraction

import pytest

from schurdet import (
    InvalidWitnessError,
    KernelWitness,
    Partition,
    SetPartition,
    SizeGuardError,
    Tensor,
    all_partitions,
    all_permutations,
    antisymmetrize,
    critical_equation_failures,
    critical_equations_hold,
    degeneracy_sweep,
    diagonal_kernel_failure,
    evaluate,
    is_in_kernel,
    kernel_failure,
    permute_factors,
    positive_equation_residual,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
    slot_system_det,
    slot_system_eigencheck,
    slot_system_matrix,
    substitution_values,
)


def P(*parts):
    return Partition(parts)


E1 = (Fraction(1), Fraction(0))
E2 = (Fraction(0), Fraction(1))


class TestKernelWitness:
    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidWitnessError):
            KernelWitness([E1, (0, 0), E2])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidWitnessError):
            KernelWitness([E1, (1, 0, 0)])

    def test_diagonal_constructor(self):
        w = KernelWitness.diagonal((1, 2), 3)
        assert w.order == 3 and w.dim == 2
        assert w.vectors == ((Fraction(1), Fraction(2)),) * 3

    def test_membership_on_a_rank_one_tensor(self):
        t = rank_one([E1, E1, E1])
        assert is_in_kernel(t, KernelWitness([E2, E2, E2]))
        assert is_in_kernel(t, KernelWitness([E1, E2, E2]))
        # two aligned slots leave the third slice nonzero
        assert kernel_failure(t, KernelWitness([E1, E1, E2])) == (3, 0)

    def test_witness_must_match_the_tensor(self):
        t = random_tensor(3, 3, 1)
        with pytest.raises(InvalidWitnessError):
            kernel_failure(t, KernelWitness([E1, E2, E1]))


class TestAntisymmetrize:
    def test_idempotent(self):
        t = random_tensor(3, 3, 5)
        a = antisymmetrize(t)
        assert antisymmetrize(a) == a

    def test_repeated_arguments_vanish(self):
        for dim in (3, 4):
            a = antisymmetrize(random_tensor(3, dim, dim))
            x = random_vector(dim, 10 + dim)
            y = random_vector(dim, 20 + dim)
            assert evaluate(a, [x, x, y]) == 0
            assert evaluate(a, [x, y, x]) == 0
            assert evaluate(a, [y, x, x]) == 0

    def test_too_many_slots_for_the_dimension_gives_zero(self):
        assert antisymmetrize(random_tensor(3, 2, 8)).is_zero

    def test_mean_of_signed_slot_permutations(self):
        t = Tensor(3, 2, [Fraction(k - 3, k + 1) for k in range(8)])
        total = Tensor.zero(3, 2)
        for perm in all_permutations(3):
            total = total + permute_factors(perm, t).scale(perm.sign)
        assert antisymmetrize(t) == total.scale(Fraction(1, 6))

    def test_order_past_the_group_bound_is_refused(self):
        # dim 1 passes the dense-size guard at any order; the group is 9! elements
        with pytest.raises(SizeGuardError):
            antisymmetrize(Tensor(9, 1, [1]))


class TestPositiveEquations:
    def test_discrete_partition_acts_as_identity(self):
        t = random_tensor(3, 2, 11)
        pi = SetPartition([[1], [2], [3]])
        assert positive_equation_residual(pi, t) == t

    def test_pair_block_kills_antisymmetric_matrices(self):
        t = project_isotypic(P(1, 1), random_tensor(2, 3, 13))
        assert positive_equation_residual(SetPartition([[1, 2]]), t).is_zero

    def test_critical_equations_on_components(self):
        # every shape at orders 3 and 4, one seeded tensor each
        for order in (3, 4):
            for lam in all_partitions(order):
                projected = project_isotypic(lam, random_tensor(order, 3, 17))
                assert critical_equations_hold(lam, projected)

    def test_noncritical_shape_leaves_a_residual(self):
        # for the hook component the only critical shape is the full block;
        # a two-element block does not annihilate it
        projected = project_isotypic(P(2, 1), random_tensor(3, 3, 2024))
        pi = SetPartition([[1, 2], [3]])
        assert not positive_equation_residual(pi, projected).is_zero
        assert critical_equation_failures(P(2, 1), projected) == []

    def test_failures_reported_for_the_wrong_component(self):
        # a generic symmetric tensor violates the full-block equation
        # demanded of the hook component
        sym = project_isotypic(P(3), random_tensor(3, 3, 31))
        failures = critical_equation_failures(P(2, 1), sym)
        assert SetPartition([[1, 2, 3]]) in failures

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            critical_equations_hold(P(2, 1), random_tensor(2, 2, 1))
        with pytest.raises(ValueError):
            positive_equation_residual(
                SetPartition([[1, 2]]), random_tensor(3, 2, 1)
            )


class TestSlotSystem:
    def test_matrix_shape(self):
        m = slot_system_matrix(2)
        assert m == [
            [0, 1, 1],
            [1, 0, 1],
            [1, 1, 0],
        ]

    def test_determinant_values(self):
        for mu1 in range(1, 11):
            assert slot_system_det(mu1) == Fraction((-1) ** mu1 * mu1)

    def test_eigencheck(self):
        for mu1 in range(1, 11):
            assert slot_system_eigencheck(mu1)

    def test_largest_system_is_within_the_det_bound(self):
        assert slot_system_det(64) == 64

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            slot_system_matrix(0)
        with pytest.raises(SizeGuardError):
            slot_system_matrix(65)
        with pytest.raises(SizeGuardError):
            slot_system_eigencheck(17)


class TestSubstitutionValues:
    def test_symmetric_tensor_gives_equal_values(self):
        sym = project_isotypic(P(3), random_tensor(3, 3, 41))
        x = random_vector(3, 42, nonzero=True)
        y = random_vector(3, 43)
        values = substitution_values(sym, x, y)
        assert len(values) == 3
        assert len(set(values)) == 1

    def test_rank_one_values(self):
        t = rank_one([E1, E1, E1])
        values = substitution_values(t, E2, E1)
        # y = e1 in one slot, x = e2 elsewhere: every term has a zero factor
        assert values == [0, 0, 0]
        assert substitution_values(t, E1, E1) == [1, 1, 1]


class TestDegeneracySweep:
    def test_passes_on_a_nonexceptional_component(self):
        report = degeneracy_sweep(P(1, 1, 1), 3, 4, 101)
        assert report.verdict == "pass"
        assert report.failures == ()
        assert report.witnesses_found == 4

    def test_fails_on_an_exceptional_component(self):
        report = degeneracy_sweep(P(2, 1), 3, 3, 101)
        assert report.verdict == "fail"
        assert report.failures
        checks = {f.check for f in report.failures}
        assert checks <= {"critical-equations", "diagonal-kernel", "substitution"}
        assert "diagonal-kernel" in checks

    def test_deterministic(self):
        a = degeneracy_sweep(P(2, 2), 3, 3, 7)
        b = degeneracy_sweep(P(2, 2), 3, 3, 7)
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    def test_report_json_shape(self):
        report = degeneracy_sweep(P(2, 2), 3, 2, 9)
        obj = report.to_json_obj()
        assert obj["lambda"] == [2, 2]
        assert obj["n"] == 3
        assert obj["trials"] == 2
        assert obj["verdict"] == "pass"
        assert obj["failures"] == []
        assert obj["witnesses_found"] == 2

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            degeneracy_sweep(P(3, 2, 1), 3, 1, 1)
        with pytest.raises(SizeGuardError):
            degeneracy_sweep(P(2, 1), 4, 1, 1)
        with pytest.raises(ValueError):
            degeneracy_sweep(P(2, 1), 3, 0, 1)

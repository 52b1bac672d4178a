import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurdet import (
    InvalidWitnessError,
    KernelWitness,
    Partition,
    SetPartition,
    SizeGuardError,
    SplitMix64,
    Tensor,
    algebra_action,
    all_partitions,
    all_set_partitions,
    annihilates,
    critical_equation_failures,
    critical_set,
    degeneracy_crosscheck_222,
    degeneracy_sweep,
    det_exact,
    evaluate,
    kernel_failure,
    positive_element,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
    slot_system_eigencheck,
    slot_system_matrix,
    substitution_values,
)
from schurdet import degeneracy, rational

from oracles import (
    reference_algebra_action,
    reference_contract_first,
    reference_evaluate,
    reference_slot_slice,
    reference_sweep,
)
from test_tensor_space import fraction_tensors, fractions

# orders 1-5 and dims 1-3: every (p, n) a sweep runs, and order 1
sweep_tensors = fraction_tensors(st.integers(1, 5), st.integers(1, 3))


def first_failure(tensor, vectors):
    """The first nonzero (slot, component) of the reference slices over slots 1..p."""
    for slot in range(1, tensor.order + 1):
        for component, value in enumerate(reference_slot_slice(tensor, vectors, slot)):
            if value != 0:
                return slot, component
    return None


def reference_substitution_values(tensor, x, y):
    """The reference evaluations with y in slot k and x in every other slot, k = 1..p."""
    p = tensor.order
    return [reference_evaluate(tensor, [x] * k + [y] + [x] * (p - 1 - k)) for k in range(p)]


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
        w = KernelWitness([(1, 2)] * 3)
        assert w.order == 3 and w.dim == 2
        assert w.vectors == ((Fraction(1), Fraction(2)),) * 3

    def test_vectors_are_kept_as_numerators_over_their_denominator(self):
        w = KernelWitness([(Fraction(1, 2), 1), ("2/3", Fraction(-4, 9)), (3, 0)])
        assert w.vectors == ((1, 2), (6, -4), (3, 0))
        assert all(type(v) is int for vec in w.vectors for v in vec)

    def test_membership_on_a_rank_one_tensor(self):
        t = rank_one([E1, E1, E1])
        assert kernel_failure(t, KernelWitness([E2, E2, E2])) is None
        assert kernel_failure(t, KernelWitness([E1, E2, E2])) is None
        # two aligned slots leave the third slice nonzero
        assert kernel_failure(t, KernelWitness([E1, E1, E2])) == (3, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_per_slot_witnesses_match_the_reference(self, data):
        t = data.draw(sweep_tensors)
        vector = st.lists(fractions, min_size=t.dim, max_size=t.dim).filter(any)
        vectors = [data.draw(vector) for _ in range(t.order)]
        witness = KernelWitness(vectors)
        assert all(type(v) is int for vec in witness.vectors for v in vec)
        assert kernel_failure(t, witness) == first_failure(t, vectors)

    @pytest.mark.parametrize(
        "order, slot", [(p, k) for p in range(1, 6) for k in range(1, p + 1)]
    )
    def test_passes_the_slots_before_the_first_failing_one(self, order, slot):
        """A rank-one term failing only at `slot`, plus one failing only at the next
        slot: the slots before pass through the chain, and the first failure wins."""
        # x^j = (j, 1) / 5 pairs nonzero with u_j = (1, j) and w_j = (2, j), but
        # x^slot = (slot, -1) kills u_slot only and x^(slot+1) kills w_(slot+1) only
        us = [(1, j) for j in range(1, order + 1)]
        ws = [(2, j) for j in range(1, order + 1)]
        xs = [(Fraction(j, 5), Fraction(1, 5)) for j in range(1, order + 1)]
        xs[slot - 1] = (slot, -1)
        t = rank_one(us)
        if slot < order:
            xs[slot] = (slot + 1, -2)
            t = t + rank_one(ws)
        expected = first_failure(t, xs)
        assert expected is not None and expected[0] == slot
        if slot < order:
            assert any(reference_slot_slice(t, xs, slot + 1))
        assert kernel_failure(t, KernelWitness(xs)) == expected

    def test_witness_must_match_the_tensor(self):
        t = random_tensor(3, 3, 1)
        with pytest.raises(InvalidWitnessError):
            kernel_failure(t, KernelWitness([E1, E2, E1]))


def alternating(t):
    """The order-p tensor's part in the p-th exterior power: the (1^p) projection."""
    return project_isotypic(Partition([1] * t.order), t)


class TestAntisymmetrize:
    def test_idempotent(self):
        t = random_tensor(3, 3, 5)
        a = alternating(t)
        assert alternating(a) == a

    def test_repeated_arguments_vanish(self):
        for dim in (3, 4):
            a = alternating(random_tensor(3, dim, dim))
            x = random_vector(dim, 10 + dim)
            y = random_vector(dim, 20 + dim)
            assert evaluate(a, [x, x, y]) == 0
            assert evaluate(a, [x, y, x]) == 0
            assert evaluate(a, [y, x, x]) == 0

    def test_too_many_slots_for_the_dimension_gives_zero(self):
        assert alternating(random_tensor(3, 2, 8)).is_zero

    def test_order_past_the_group_bound_is_refused(self):
        # dim 1 passes the dense-size guard at any order; (1^p) past order 6
        # is refused by the projector bound before any permutation is built
        for order in (7, 9):
            with pytest.raises(SizeGuardError):
                alternating(Tensor(order, 1, [1]))


class TestPositiveEquations:
    def test_discrete_partition_acts_as_identity(self):
        t = random_tensor(3, 2, 11)
        pi = SetPartition([[1], [2], [3]])
        assert algebra_action(positive_element(pi), t) == t

    def test_pair_block_kills_antisymmetric_matrices(self):
        t = project_isotypic(P(1, 1), random_tensor(2, 3, 13))
        assert algebra_action(positive_element(SetPartition([[1, 2]])), t).is_zero

    def test_critical_equations_on_components(self):
        # every shape at orders 3 and 4, one seeded tensor each
        for order in (3, 4):
            for lam in all_partitions(order):
                projected = project_isotypic(lam, random_tensor(order, 3, 17))
                assert not critical_equation_failures(lam, projected)

    def test_noncritical_shape_leaves_a_residual(self):
        # for the hook component the only critical shape is the full block;
        # a two-element block does not annihilate it
        projected = project_isotypic(P(2, 1), random_tensor(3, 3, 2024))
        pi = SetPartition([[1, 2], [3]])
        assert not algebra_action(positive_element(pi), projected).is_zero
        assert critical_equation_failures(P(2, 1), projected) == []

    def test_failures_reported_for_the_wrong_component(self):
        # a generic symmetric tensor violates the full-block equation
        # demanded of the hook component
        sym = project_isotypic(P(3), random_tensor(3, 3, 31))
        failures = critical_equation_failures(P(2, 1), sym)
        assert SetPartition([[1, 2, 3]]) in failures

    def test_failures_match_a_scan_of_every_set_partition(self):
        # raw tensors fail many equations; the list keeps enumeration order
        for order, dim in [(3, 3), (4, 2), (5, 2)]:
            t = random_tensor(order, dim, 41)
            for lam in all_partitions(order):
                shapes = critical_set(lam)
                expected = [
                    pi
                    for pi in all_set_partitions(order)
                    if pi.shape() in shapes
                    and not reference_algebra_action(positive_element(pi), t).is_zero
                ]
                assert critical_equation_failures(lam, t) == expected

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            critical_equation_failures(P(2, 1), random_tensor(2, 2, 1))
        with pytest.raises(ValueError):
            algebra_action(positive_element(SetPartition([[1, 2]])), random_tensor(3, 2, 1))


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
            assert det_exact(slot_system_matrix(mu1)) == Fraction((-1) ** mu1 * mu1)

    def test_eigencheck(self):
        for mu1 in range(1, 11):
            assert slot_system_eigencheck(mu1)

    def test_largest_system_is_within_the_det_bound(self):
        assert det_exact(slot_system_matrix(64)) == 64

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

    def test_exceptional_components_take_y_in_the_named_slot(self):
        # unlike a symmetric or rank-one tensor, these tell slot k from the all-x value
        for lam in (P(2, 1), P(3)):
            differs = False
            for seed in range(4):
                t = project_isotypic(lam, random_tensor(3, 3, 300 + seed))
                x = random_vector(3, 400 + seed, nonzero=True)
                y = random_vector(3, 500 + seed)
                values = substitution_values(t, x, y)
                for k in range(3):
                    vectors = [x] * 3
                    vectors[k] = y
                    assert values[k] == reference_evaluate(t, vectors)
                differs = differs or values != [reference_evaluate(t, [x] * 3)] * 3
            assert differs


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_order_matches_the_reference(self, data):
        t = data.draw(sweep_tensors)
        x, y = (data.draw(st.lists(fractions, min_size=t.dim, max_size=t.dim)) for _ in "xy")
        assert substitution_values(t, x, y) == reference_substitution_values(t, x, y)


def front_zero(tensor):
    """e_0 (x) tensor: one order up, with every entry off first index 0 zero."""
    zeros = [0] * (len(tensor.nums) * (tensor.dim - 1))
    return Tensor(tensor.order + 1, tensor.dim, list(tensor.entries) + zeros)


ZERO_SPACES = [(p, n) for p in range(1, 6) for n in range(1, 4)]


class TestZeroChain:
    """Once the slot-1 chain L_k is zero, `kernel_failure` and `substitution_values`
    stop: the answers still equal the slice-by-slice reference route."""

    @pytest.mark.parametrize("order, dim", ZERO_SPACES)
    def test_zero_tensors_match_the_reference(self, order, dim):
        t = Tensor.zero(order, dim)
        x = random_vector(dim, order, nonzero=True)
        y = random_vector(dim, order + dim, nonzero=True)
        assert kernel_failure(t, KernelWitness([x] * order)) is None
        assert first_failure(t, [x] * order) is None
        assert substitution_values(t, x, y) == reference_substitution_values(t, x, y) == [0] * order

    @pytest.mark.parametrize("order, dim", [(p, n) for p, n in ZERO_SPACES if p > 1 and n > 1])
    def test_a_chain_that_vanishes_after_slot_one(self, order, dim):
        # A = e_0 (x) B with x_0 = 0: L_2 = x_0 B = 0, though A is not
        t = front_zero(random_tensor(order - 1, dim, 60 + order))
        x = (0,) + random_vector(dim - 1, 70 + dim, nonzero=True)
        y = random_vector(dim, 80 + order)
        assert not t.is_zero and reference_contract_first(t, x).is_zero
        values = substitution_values(t, x, y)
        assert values == reference_substitution_values(t, x, y)
        assert values[1:] == [0] * (order - 1)
        witness = [x] + [random_vector(dim, 90 + k, nonzero=True) for k in range(order - 1)]
        assert kernel_failure(t, KernelWitness(witness)) == first_failure(t, witness)
        # with x^2_0 = 0 too, A = e_0 (x) e_0 (x) C has a zero first slice as well: no failure
        if order > 2:
            t = front_zero(front_zero(random_tensor(order - 2, dim, 60 + order)))
            witness[1] = x
            assert kernel_failure(t, KernelWitness(witness)) is None
            assert first_failure(t, witness) is None

    @pytest.mark.parametrize("order", range(1, 6))
    def test_a_zero_tensor_makes_no_annihilates_pass(self, order, monkeypatch):
        calls = []
        original = degeneracy.annihilates

        def counted(element, tensor):
            calls.append(element)
            return original(element, tensor)

        monkeypatch.setattr(degeneracy, "annihilates", counted)
        for lam in all_partitions(order):
            assert critical_equation_failures(lam, Tensor.zero(order, 3)) == []
        assert calls == []
        # on a nonzero tensor the same shapes do run them (order 1 has no critical shape)
        for lam in all_partitions(order):
            critical_equation_failures(lam, random_tensor(order, 3, 1))
        assert bool(calls) == (order > 1)

    @pytest.mark.parametrize(
        "tensor", [Tensor.zero(3, 2), random_tensor(3, 2, 5)], ids=["zero", "seeded"]
    )
    def test_errors_on_zero_tensors_are_those_on_any_tensor(self, tensor):
        with pytest.raises(InvalidWitnessError):
            kernel_failure(tensor, KernelWitness([(1, 0, 0)] * 3))
        with pytest.raises(ValueError):
            substitution_values(tensor, (1, 2, 3), (1, 0))
        with pytest.raises(ValueError):
            substitution_values(tensor, (1, 2), (1, 0, 0))
        with pytest.raises(TypeError):
            substitution_values(tensor, (1, 2), (0.5, 1))
        with pytest.raises(TypeError):
            substitution_values(tensor, (True, 2), (1, 1))
        with pytest.raises(ValueError):
            critical_equation_failures(P(2, 1, 1), tensor)


class TestOneScalarPath:
    """Seeded tensors and vectors enter as ints, so no scalar is coerced one at a
    time: a sweep trial and the crosscheck call `as_fraction` zero times.  Only `rational`
    calls it (pinned in test_module_boundaries.py), so counting its calls there counts all."""

    @pytest.fixture
    def coercions(self, monkeypatch):
        calls = []
        original = rational.as_fraction

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(rational, "as_fraction", counted)
        return calls

    def test_a_sweep_over_every_shape_coerces_nothing(self, coercions):
        for lam in all_partitions(5):
            degeneracy_sweep(lam, 3, 1, 1)
        assert coercions == []

    def test_the_crosscheck_on_the_null_pattern_coerces_nothing(self, coercions):
        null = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
        verdict, witness = degeneracy_crosscheck_222(null)
        assert verdict == "consistent" and witness is not None
        assert coercions == []


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

    def test_unprojected_tensor_records_its_failing_equations(self, monkeypatch):
        """Without the projection the critical equations fail, and the sweep records
        exactly the set partitions whose residual the oracle finds nonzero."""
        raw = []

        def unprojected(lam, tensor):
            raw.append(tensor)
            return tensor

        monkeypatch.setattr(degeneracy, "project_isotypic", unprojected)
        report = degeneracy_sweep(P(2, 2), 2, 1, 5)
        expected = [
            str(pi)
            for pi in all_set_partitions(4)
            if pi.shape() in critical_set(P(2, 2))
            and not reference_algebra_action(positive_element(pi), raw[0]).is_zero
        ]
        assert expected and report.verdict == "fail"
        recorded = report.to_json_obj()["failures"]
        trial_seed = SplitMix64(5).next_u64()
        assert [f for f in recorded if f["check"] == "critical-equations"] == [
            {"seed": trial_seed, "check": "critical-equations", "slot": None, "detail": detail}
            for detail in expected
        ]

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
        # the projector's degree guard, then the dense guard (17**3 > 4096)
        with pytest.raises(SizeGuardError):
            degeneracy_sweep(P(7), 2, 1, 1)
        with pytest.raises(SizeGuardError):
            degeneracy_sweep(P(2, 1), 17, 1, 1)
        with pytest.raises(ValueError):
            degeneracy_sweep(P(2, 1), 3, 0, 1)
        # within both guards the sweep runs; the hook (2,1) fails as predicted
        assert degeneracy_sweep(P(3, 2, 1), 3, 1, 1).verdict == "pass"
        assert degeneracy_sweep(P(2, 1), 4, 1, 1).verdict == "fail"

    def test_order_one_is_the_exceptional_row(self):
        report = degeneracy_sweep(P(1), 3, 2, 1)
        assert report.witnesses_found == 0
        assert {f.check for f in report.failures} == {"diagonal-kernel", "substitution"}


def hooks(order):
    """The set partitions {[p] - {k}, {k}}, k = 1..p; at order 1 the one block {1}."""
    return [
        SetPartition([b for b in ([j for j in range(1, order + 1) if j != k], [k]) if b])
        for k in range(1, order + 1)
    ]


class TestEveryX:
    """The sweep runs its seeded kernel and substitution checks only where "every slice
    vanishes for every x" fails, and answers that from the cheapest source: a zero
    tensor, passed critical equations of a shape with a part 1, or the p hook tests."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_the_decision_is_the_hook_tests_and_implies_the_seeded_checks(self, data):
        t = data.draw(sweep_tensors)
        p, n = t.order, t.dim
        hook_partitions = hooks(p)
        for lam in all_partitions(p):
            a = project_isotypic(lam, t)
            # the definition: slice k's coefficients are the orbit sums of its hook
            tests = [annihilates(positive_element(pi), a) for pi in hook_partitions]
            decision = degeneracy._every_x_vanishes(lam, a, critical_equation_failures(lam, a))
            assert decision == all(tests)
            if not decision:
                failing = hook_partitions[tests.index(False)]
                assert not reference_algebra_action(positive_element(failing), a).is_zero
                continue
            for seed in (1, 2, 3):
                x, y = random_vector(n, seed, nonzero=True), random_vector(n, seed + 100)
                assert kernel_failure(a, KernelWitness([x] * p)) is None
                assert substitution_values(a, x, y) == [0] * p
            # and the reference slices on the last x: A(x, ..., x, ., x, ..., x) = 0
            assert not any(any(reference_slot_slice(a, [x] * p, k)) for k in range(1, p + 1))

    def test_the_sweep_equals_the_sweep_without_the_pre_check(self):
        started = time.perf_counter()
        configs = [(lam, n) for p in range(1, 6) for lam in all_partitions(p) for n in (1, 2, 3)]
        configs += [(lam, 4) for lam in all_partitions(4)]
        for lam, n in configs:
            for seed in (11, 12, 13):
                expected = reference_sweep(lam, n, 3, seed)
                assert degeneracy_sweep(lam, n, 3, seed) == expected, (lam, n, seed)
        assert time.perf_counter() - started < 2

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name in ("kernel_failure", "substitution_values", "annihilates"):
            original = getattr(degeneracy, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(degeneracy, name, counted)
        return counts

    @pytest.mark.parametrize(
        "parts, hook_tests",
        [((3, 2), 0), ((2, 2, 1), 0), ((2, 1, 1, 1), 0), ((1,) * 5, 0), ((3, 1, 1), 5)],
    )
    def test_shapes_that_pass_every_x_run_no_seeded_check(self, calls, parts, hook_tests):
        lam = Partition(parts)
        critical = [pi for pi in all_set_partitions(5) if pi.shape() in critical_set(lam)]
        zero = project_isotypic(lam, random_tensor(5, 3, 1)).is_zero
        assert zero == (len(parts) > 3)
        report = degeneracy_sweep(lam, 3, 1, 1)
        assert report.verdict == "pass" and report.witnesses_found == 1
        # (3,2) and (2,2,1) reuse their critical equations, of shape (4,1) and (3,1,1)
        assert calls == ({} if zero else {"annihilates": len(critical) + hook_tests})

    @pytest.mark.parametrize("parts", [(5,), (4, 1)])
    def test_exceptional_shapes_run_both_seeded_checks_every_trial(self, calls, parts):
        lam = Partition(parts)
        report = degeneracy_sweep(lam, 3, 2, 1)
        assert report.verdict == "fail"
        assert calls["kernel_failure"] == calls["substitution_values"] == 2
        critical = sum(pi.shape() in critical_set(lam) for pi in all_set_partitions(5))
        # the hook tests stop at their first failure
        assert calls["annihilates"] == 2 * (critical + 1)

    @pytest.mark.parametrize("parts, seed", [((2, 1), 44), ((3,), 136)])
    def test_an_exceptional_trial_can_pass_at_its_seeded_witness(self, parts, seed):
        # every x fails, yet the seeded x is a kernel point: the trial counts a witness
        lam, p = Partition(parts), sum(parts)
        trial_seed = SplitMix64(seed).next_u64()
        tensor_seed, x_seed, y_seed = SplitMix64(trial_seed).next_ints(0, 2**64 - 1, 3)
        a = project_isotypic(lam, random_tensor(p, 2, tensor_seed))
        assert not degeneracy._every_x_vanishes(lam, a, critical_equation_failures(lam, a))
        x, y = random_vector(2, x_seed, nonzero=True), random_vector(2, y_seed)
        assert kernel_failure(a, KernelWitness([x] * p)) is None
        assert substitution_values(a, x, y) == [0] * p
        report = degeneracy_sweep(lam, 2, 1, seed)
        assert report.witnesses_found == 1 and report.failures == ()
        assert report == reference_sweep(lam, 2, 1, seed)

    @pytest.mark.parametrize("order, dim", [(p, n) for p in range(2, 6) for n in (2, 3)])
    def test_the_exceptional_shapes_fail_both_seeded_checks(self, order, dim):
        """Negative controls: a pre-check that passed these would hide both checks."""
        for lam in (Partition((order,)), Partition((order - 1, 1))):
            checks = {f.check for f in degeneracy_sweep(lam, dim, 5, order * 10 + dim).failures}
            assert checks == {"diagonal-kernel", "substitution"}, (lam, dim)

"""Acceptance gate: every stated requirement, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces the runtime budget for its criterion.  All
checks are exact, no tolerances anywhere.
"""

import math
import time
from fractions import Fraction

import oracles
from schurdet import (
    KernelWitness,
    Partition,
    algebra_action,
    all_partitions,
    all_permutations,
    character,
    critical_equation_failures,
    critical_set,
    degeneracy_crosscheck_222,
    degeneracy_sweep,
    derived_seed,
    det_exact,
    evaluate,
    hyperdet_222,
    is_exceptional,
    kernel_failure,
    isotypic_rank,
    permute_factors,
    pfaffian,
    positive_element,
    project_isotypic,
    random_skew_matrix,
    random_tensor,
    random_vector,
    rank_one,
    slot_system_eigencheck,
    slot_system_matrix,
    young_symmetrizer,
)
from schurdet.partitions import SetPartition
from schurdet.tensor_space import Tensor


def P(*parts):
    return Partition(parts)


def _finish(name: str, ok: bool, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    if budget is None:
        print(f"[{status}] {name} ({elapsed:.2f}s)")
    else:
        print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"


def test_criterion_1_slot_system_determinants_and_spectra():
    started = time.perf_counter()
    ok = True
    for mu1 in range(1, 11):
        if det_exact(slot_system_matrix(mu1)) != Fraction((-1) ** mu1 * mu1):
            ok = False
        if not slot_system_eigencheck(mu1):
            ok = False
    _finish("criterion 1: slot-system determinant and spectrum, mu1=1..10", ok, started, 1.0)


def test_criterion_2_critical_sets_orders_three_to_eight():
    started = time.perf_counter()
    ok = True
    singletons = 0
    shapes = 0
    for p in range(3, 9):
        for lam in all_partitions(p):
            crit = critical_set(lam)
            if not is_exceptional(lam):
                shapes += 1
                singletons += len(crit) == 1
                if not all(mu.rows >= 2 for mu in crit):
                    ok = False
        if critical_set(P(p - 1, 1)) != frozenset({P(p)}):
            ok = False
        if critical_set(P(p)) != frozenset():
            ok = False
    # informational: how often the critical set is a single shape
    print(
        f"  (critical sets: {shapes} non-exceptional shapes, "
        f"{singletons} with a one-element critical set)"
    )
    _finish("criterion 2: critical sets for orders 3..8", ok, started, 5.0)


def test_criterion_3_critical_equations_hold_on_components():
    started = time.perf_counter()
    ok = True
    index = 0
    for order in (3, 4):
        for lam in all_partitions(order):
            for _ in range(5):
                tensor = random_tensor(order, 3, derived_seed(3000, index))
                index += 1
                projected = project_isotypic(lam, tensor)
                if critical_equation_failures(lam, projected):
                    ok = False
    _finish(
        "criterion 3: positive equations for critical shapes, orders 3..4, dim 3",
        ok,
        started,
        30.0,
    )


def test_criterion_4_degeneracy_sweep_nonexceptional_components():
    started = time.perf_counter()
    ok = True
    for order in (3, 4, 5):
        shapes = [
            lam
            for lam in all_partitions(order)
            if not is_exceptional(lam) and lam.rows <= 3
        ]
        for i, lam in enumerate(shapes):
            report = degeneracy_sweep(lam, 3, 20, derived_seed(4000 + order, i))
            if report.verdict != "pass" or report.witnesses_found != 20:
                ok = False
    _finish(
        "criterion 4: seeded degeneracy sweeps, orders 3..5, 20 trials each",
        ok,
        started,
        120.0,
    )


def test_criterion_5_antisymmetric_tensors():
    started = time.perf_counter()
    ok = True
    evaluations = 0
    diagonal_checks = 0
    for dim in (3, 4):
        alt = project_isotypic(P(1, 1, 1), random_tensor(3, dim, derived_seed(5000, dim)))
        for k in range(25):
            base = derived_seed(5100 + dim, k)
            x = random_vector(dim, derived_seed(base, 0))
            y = random_vector(dim, derived_seed(base, 1))
            pattern = [[x, x, y], [x, y, x], [y, x, x]][k % 3]
            if evaluate(alt, pattern) != 0:
                ok = False
            evaluations += 1
        for k in range(10):
            x = random_vector(dim, derived_seed(5200 + dim, k), nonzero=True)
            if kernel_failure(alt, KernelWitness([x] * 3)) is not None:
                ok = False
            diagonal_checks += 1
    assert evaluations == 50 and diagonal_checks == 20
    _finish(
        "criterion 5: alternating order-3 tensors, repeated arguments and diagonals",
        ok,
        started,
        10.0,
    )


def test_criterion_6_isotypic_ranks_and_symmetrizer_normalization():
    started = time.perf_counter()
    ok = True
    for order in (2, 3, 4):
        for dim in (1, 2, 3):
            total = 0
            for lam in all_partitions(order):
                rank = isotypic_rank(lam, dim)
                total += rank
                expected = character(lam, (1,) * order) * oracles.ssyt_count(lam, dim)
                if rank != expected:
                    ok = False
            if total != dim**order:
                ok = False
    for order in range(2, 6):
        for lam in all_partitions(order):
            c = young_symmetrizer(lam)
            scalar = Fraction(math.factorial(order), character(lam, (1,) * order))
            if c * c != c.scale(scalar):
                ok = False
    _finish(
        "criterion 6: isotypic ranks against the two-route count, symmetrizer squares",
        ok,
        started,
        60.0,
    )


def test_criterion_7_small_hyperdeterminant():
    started = time.perf_counter()
    ok = True
    diagonal = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
    if hyperdet_222(diagonal) != 1:
        ok = False
    null_pattern = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
    verdict, witness = degeneracy_crosscheck_222(null_pattern)
    if hyperdet_222(null_pattern) != 0 or verdict != "consistent" or witness is None:
        ok = False
    for k in range(50):
        base = derived_seed(7000, k)
        vectors = [random_vector(2, derived_seed(base, j), nonzero=True) for j in range(3)]
        if hyperdet_222(rank_one(vectors)) != 0:
            ok = False
    for k in range(100):
        tensor = random_tensor(3, 2, derived_seed(7100, k))
        value = hyperdet_222(tensor)
        if value != oracles.expanded_quartic_invariant(tensor):
            ok = False
        if any(
            hyperdet_222(permute_factors(sigma, tensor)) != value
            for sigma in all_permutations(3)
        ):
            ok = False
        if hyperdet_222(tensor.scale(3)) != 81 * value:
            ok = False
    _finish(
        "criterion 7: 2x2x2 invariant: normalization, vanishing, invariance, oracle",
        ok,
        started,
        5.0,
    )


def test_criterion_8_pfaffian_squares_to_determinant():
    started = time.perf_counter()
    ok = True
    index = 0
    for size in (2, 4, 6, 8):
        for _ in range(20):
            matrix = random_skew_matrix(size, derived_seed(8000, index))
            index += 1
            if pfaffian(matrix) ** 2 != det_exact(matrix):
                ok = False
    _finish(
        "criterion 8: pfaffian squared equals determinant, sizes 2, 4, 6, 8",
        ok,
        started,
        1.0,
    )


def test_criterion_9_negative_controls():
    started = time.perf_counter()
    # (a) the single-row component genuinely escapes the vanishing statements:
    # some seeded symmetric tensor at dim 2 has a nonzero diagonal slice
    found_nonzero_slice = False
    for k in range(5):
        sym = project_isotypic(P(3), random_tensor(3, 2, derived_seed(9000, k)))
        x = random_vector(2, derived_seed(9100, k), nonzero=True)
        if kernel_failure(sym, KernelWitness([x] * 3)) is not None:
            found_nonzero_slice = True
    # (b) a non-critical block shape leaves a residual on the hook component
    found_residual = False
    pi = SetPartition([[1, 2], [3]])
    for k in range(5):
        projected = project_isotypic(P(2, 1), random_tensor(3, 3, derived_seed(9200, k)))
        if not algebra_action(positive_element(pi), projected).is_zero:
            found_residual = True
    ok = found_nonzero_slice and found_residual
    _finish("criterion 9: negative controls stay nonzero", ok, started, None)

"""Degeneracy checks: kernel witnesses, positive equations, seeded sweeps.

A witness (x^1, ..., x^p) lies in the kernel of A when every partial
evaluation with one slot left free is the zero covector.  The sweep draws
seeded tensors, projects them onto an isotypic component, and verifies the
vanishing statements that component is supposed to satisfy, reporting every
violation rather than stopping at the first.  A positive equation P_pi A = 0
is a zero test of orbit sums; it builds no P_pi A.  The seeded kernel and substitution
checks run only where "every slice vanishes for every x" fails (`_every_x_vanishes`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import InvalidWitnessError, SizeGuardError
from .linalg import MAX_DET_SIZE, rank_exact
from .partitions import Partition, SetPartition, all_set_partitions, critical_set
from .perm_algebra import positive_element
from .rational import integer_values
from .rng import SplitMix64
from .tensor_space import (
    Tensor,
    annihilates,
    contract_first,
    evaluate,
    project_isotypic,
    random_tensor,
    random_vector,
    slot_slice,
)

MAX_SLOT_SYSTEM = MAX_DET_SIZE - 1  # the mu1 system has mu1 + 1 rows
MAX_EIGENCHECK = 16


@dataclass(frozen=True)
class KernelWitness:
    """Candidate kernel point: one nonzero vector per slot, kept as the intake's integer
    numerators over its least denominator (an integer vector as it is).  That scales
    the vector by a positive factor, which scales its slices: `kernel_failure` agrees."""

    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, vectors: Iterable[Sequence]):
        vecs = tuple(tuple(integer_values(v)[0]) for v in vectors)
        if not vecs:
            raise InvalidWitnessError("witness needs at least one vector")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise InvalidWitnessError("witness vectors must share one dimension")
        for j, vec in enumerate(vecs, start=1):
            if not any(vec):
                raise InvalidWitnessError(f"witness vector in slot {j} is zero")
        object.__setattr__(self, "vectors", vecs)

    @property
    def order(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])


def kernel_failure(
    tensor: Tensor, witness: KernelWitness
) -> Optional[tuple[int, int]]:
    """First (slot, component) where a slice is nonzero; None if in the kernel.

    Slots are 1-based, components 0-based coordinates of the free slot.  Slice k
    is L_k(., x^(k+1), ..., x^p), L_1 = A and L_(k+1) = L_k paired with x^k in slot 1.
    A zero L_k has zero slices from k on; the first slice and contraction have run
    every check a later one would.
    """
    if witness.order != tensor.order or witness.dim != tensor.dim:
        raise InvalidWitnessError("witness does not match the tensor space")
    chain, vectors = tensor, witness.vectors
    for slot in range(1, tensor.order + 1):
        covector = slot_slice(chain, (None,) + vectors[slot:], 1)
        if any(covector):
            return slot, next(c for c, value in enumerate(covector) if value)
        if slot < tensor.order:
            chain = contract_first(chain, vectors[slot - 1])
            if chain.is_zero:
                break
    return None


@lru_cache(maxsize=None)
def _partitions_of_shapes(ground_size: int, shapes: frozenset) -> tuple[SetPartition, ...]:
    """The set partitions of 1..ground_size with shape in shapes, in enumeration order."""
    return tuple(pi for pi in all_set_partitions(ground_size) if pi.shape() in shapes)


def critical_equation_failures(lam: Partition, tensor: Tensor) -> list[SetPartition]:
    """Set partitions with critical shape whose positive equation fails on the tensor.

    The tensor is expected to lie in the lam-isotypic component; the caller
    projects first.  Only the set partitions of critical shape are visited, and
    each equation P_pi A = 0 is a zero test of orbit sums (`annihilates`).
    """
    if lam.weight != tensor.order:
        raise ValueError("partition weight must equal the tensor order")
    shapes = critical_set(lam)
    if tensor.is_zero:  # a zero tensor satisfies every positive equation
        return []
    candidates = _partitions_of_shapes(tensor.order, shapes)
    return [pi for pi in candidates if not annihilates(positive_element(pi), tensor)]


def _every_x_vanishes(lam: Partition, tensor: Tensor, critical_failed: list) -> bool:
    """Whether every slice A(x, ..., x, ., x, ..., x) is zero for every x.  Free slot k's
    coefficients are A's orbit sums over the other slots: P_pi A = 0 for the p hooks
    pi = {[p] - {k}, {k}}.  A passed critical pi' with a block {k} refines that pi, and
    P_pi = sum over cosets of g P_pi', so such a shape answers all p.  Order 1 has none."""
    p = tensor.order
    if tensor.is_zero or not critical_failed and any(1 in mu.parts for mu in critical_set(lam)):
        return True
    hooks = _partitions_of_shapes(p, frozenset({Partition((p - 1, 1))})) if p > 1 else ()
    return bool(hooks) and all(annihilates(positive_element(pi), tensor) for pi in hooks)


def slot_system_matrix(mu1: int) -> list[list[int]]:
    """The (mu1+1) x (mu1+1) matrix with zero diagonal and ones elsewhere.

    Appears as the coefficient system tying together the single-substitution
    values of a degenerate tensor; its determinant is (-1)^mu1 * mu1.
    """
    if not 1 <= mu1 <= MAX_SLOT_SYSTEM:
        raise SizeGuardError(f"slot system supports 1 <= mu1 <= {MAX_SLOT_SYSTEM}")
    size = mu1 + 1
    return [[int(i != j) for j in range(size)] for i in range(size)]


def slot_system_eigencheck(mu1: int) -> bool:
    """Verify the spectrum: eigenvalue -1 with multiplicity mu1, eigenvalue mu1 once.

    rank(M + I) == 1 pins the (-1)-eigenspace; the all-ones vector must be an
    eigenvector with eigenvalue mu1.
    """
    if mu1 > MAX_EIGENCHECK:
        raise SizeGuardError(f"eigencheck supports mu1 <= {MAX_EIGENCHECK}")
    m = slot_system_matrix(mu1)
    if any(sum(row) != mu1 for row in m):
        return False
    for i, row in enumerate(m):
        row[i] += 1
    return rank_exact(m) == 1


def substitution_values(tensor: Tensor, x: Sequence, y: Sequence) -> list[Fraction]:
    """The p evaluations with y in one slot and x in all others, slot 1 first:
    value k is L_k(y, x, ..., x), L_1 = A and L_(k+1) = L_k paired with x in slot 1."""
    out, chain = [], tensor
    for rest in reversed(range(tensor.order)):
        out.append(evaluate(chain, [y] + [x] * rest))
        if rest:
            chain = contract_first(chain, x)
    return out


@dataclass(frozen=True)
class CheckFailure:
    """One violated vanishing statement inside a sweep trial."""

    seed: int
    check: str
    slot: Optional[int]
    detail: str

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of a seeded sweep over one isotypic component."""

    lam: Partition
    dim: int
    trials: int
    witnesses_found: int
    failures: tuple[CheckFailure, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> str:
        return "fail" if self.failures else "pass"

    def to_json_obj(self) -> dict:
        return {
            "lambda": self.lam.to_json_obj(),
            "n": self.dim,
            "trials": self.trials,
            "witnesses_found": self.witnesses_found,
            "verdict": self.verdict,
            "failures": [f.to_json_obj() for f in self.failures],
        }


def degeneracy_sweep(
    lam: Partition, dim: int, trials: int, seed: int
) -> DegeneracyReport:
    """Project seeded random tensors onto the lam component and test degeneracy.

    Per trial: the positive equations for every critical-shape set partition,
    the diagonal kernel witness, and the single-substitution values must all
    vanish.  Where every x passes (a zero tensor, passed critical equations of a
    shape with a part 1, which refines each hook, or the p hook orbit tests), so does
    the seeded x: x and y are drawn and checked only on the other trials.  For the two
    exceptional shapes these statements are expected to fail; the report simply records
    what happened.  The size is bounded by `random_tensor`'s dense guard and
    `isotypic_projector`'s degree guard.
    """
    p = lam.weight
    if trials < 1:
        raise ValueError("trials must be at least 1")
    failures: list[CheckFailure] = []
    witnesses = 0
    trial_seeds = SplitMix64(seed)
    for _ in range(trials):
        trial_seed = trial_seeds.next_u64()
        tensor_seed, x_seed, y_seed = SplitMix64(trial_seed).next_ints(0, 2**64 - 1, 3)
        projected = project_isotypic(lam, random_tensor(p, dim, tensor_seed))
        critical_failed = critical_equation_failures(lam, projected)
        for pi in critical_failed:
            failures.append(
                CheckFailure(trial_seed, "critical-equations", None, str(pi))
            )
        if _every_x_vanishes(lam, projected, critical_failed):
            witnesses += 1
            continue
        x = random_vector(dim, x_seed, nonzero=True)
        y = random_vector(dim, y_seed)
        miss = kernel_failure(projected, KernelWitness([x] * p))
        if miss is None:
            witnesses += 1
        else:
            slot, component = miss
            failures.append(
                CheckFailure(
                    trial_seed, "diagonal-kernel", slot, f"component {component}"
                )
            )
        for slot, value in enumerate(substitution_values(projected, x, y), start=1):
            if value != 0:
                failures.append(
                    CheckFailure(trial_seed, "substitution", slot, f"value {value}")
                )
    return DegeneracyReport(lam, dim, trials, witnesses, tuple(failures))

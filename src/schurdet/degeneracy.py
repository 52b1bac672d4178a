"""Degeneracy checks: kernel witnesses, positive equations, seeded sweeps.

A witness (x^1, ..., x^p) lies in the kernel of A when every partial
evaluation with one slot left free is the zero covector.  The sweep draws
seeded tensors, projects them onto an isotypic component, and verifies the
vanishing statements that component is supposed to satisfy, reporting every
violation rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional, Sequence

from .errors import InvalidWitnessError, SizeGuardError
from .linalg import Matrix, det_exact, rank_exact
from .partitions import Partition, SetPartition, all_set_partitions, critical_set
from .perm_algebra import AlgebraElement, all_permutations, positive_element
from .rng import SplitMix64
from .tensor_space import (
    Tensor,
    Vector,
    algebra_action,
    evaluate,
    is_zero_vector,
    make_vector,
    project_isotypic,
    random_tensor,
    random_vector,
    slot_slice,
)

MAX_SLOT_SYSTEM = 64
MAX_EIGENCHECK = 16
MAX_SWEEP_ORDER = 5
MAX_SWEEP_DIM = 3


@dataclass(frozen=True)
class KernelWitness:
    """Candidate kernel point: one nonzero vector per slot."""

    vectors: tuple[Vector, ...]

    def __init__(self, vectors: Iterable[Sequence]):
        vecs = tuple(make_vector(v) for v in vectors)
        if not vecs:
            raise InvalidWitnessError("witness needs at least one vector")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise InvalidWitnessError("witness vectors must share one dimension")
        for j, vec in enumerate(vecs, start=1):
            if is_zero_vector(vec):
                raise InvalidWitnessError(f"witness vector in slot {j} is zero")
        object.__setattr__(self, "vectors", vecs)

    @classmethod
    def diagonal(cls, vector: Sequence, order: int) -> KernelWitness:
        return cls([vector] * order)

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

    Slots are 1-based, components 0-based coordinates of the free slot.
    """
    if witness.order != tensor.order or witness.dim != tensor.dim:
        raise InvalidWitnessError("witness does not match the tensor space")
    for slot in range(1, tensor.order + 1):
        covector = slot_slice(tensor, witness.vectors, slot)
        for component, value in enumerate(covector):
            if value != 0:
                return slot, component
    return None


def is_in_kernel(tensor: Tensor, witness: KernelWitness) -> bool:
    return kernel_failure(tensor, witness) is None


def diagonal_kernel_failure(
    tensor: Tensor, vector: Sequence
) -> Optional[tuple[int, int]]:
    """Kernel failure for the repeated witness (x, x, ..., x)."""
    return kernel_failure(tensor, KernelWitness.diagonal(vector, tensor.order))


def antisymmetrize(tensor: Tensor) -> Tensor:
    """Project onto fully alternating tensors: average of signed slot permutations."""
    p = tensor.order
    signed_mean = AlgebraElement(
        p, {perm: Fraction(perm.sign, factorial(p)) for perm in all_permutations(p)}
    )
    return algebra_action(signed_mean, tensor)


def positive_equation_residual(pi: SetPartition, tensor: Tensor) -> Tensor:
    """Action on the tensor of the unsigned sum over permutations preserving pi."""
    if pi.ground_size != tensor.order:
        raise ValueError("set partition ground size must equal the tensor order")
    return algebra_action(positive_element(pi), tensor)


def critical_equation_failures(lam: Partition, tensor: Tensor) -> list[SetPartition]:
    """Set partitions with critical shape whose positive equation fails on the tensor.

    The tensor is expected to lie in the lam-isotypic component; the caller
    projects first.
    """
    if lam.weight != tensor.order:
        raise ValueError("partition weight must equal the tensor order")
    shapes = {c for c in critical_set(lam)}
    if not shapes:
        return []
    failures = []
    for pi in all_set_partitions(tensor.order):
        if pi.shape() not in shapes:
            continue
        if not positive_equation_residual(pi, tensor).is_zero:
            failures.append(pi)
    return failures


def critical_equations_hold(lam: Partition, tensor: Tensor) -> bool:
    return not critical_equation_failures(lam, tensor)


def slot_system_matrix(mu1: int) -> Matrix:
    """The (mu1+1) x (mu1+1) matrix with zero diagonal and ones elsewhere.

    Appears as the coefficient system tying together the single-substitution
    values of a degenerate tensor; its determinant is (-1)^mu1 * mu1.
    """
    if not 1 <= mu1 <= MAX_SLOT_SYSTEM:
        raise SizeGuardError(f"slot system supports 1 <= mu1 <= {MAX_SLOT_SYSTEM}")
    size = mu1 + 1
    return [
        [Fraction(0) if i == j else Fraction(1) for j in range(size)]
        for i in range(size)
    ]


def slot_system_det(mu1: int) -> Fraction:
    return det_exact(slot_system_matrix(mu1))


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
    """The p evaluations with y in one slot and x in all others, slot 1 first."""
    xs = make_vector(x)
    ys = make_vector(y)
    out = []
    for slot in range(1, tensor.order + 1):
        vectors: list = [xs] * tensor.order
        vectors[slot - 1] = ys
        out.append(evaluate(tensor, vectors))
    return out


@dataclass(frozen=True)
class CheckFailure:
    """One violated vanishing statement inside a sweep trial."""

    seed: int
    check: str
    slot: Optional[int]
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "check": self.check,
            "slot": self.slot,
            "detail": self.detail,
        }


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
    vanish.  For the two exceptional shapes these statements are expected to
    fail; the report simply records what happened.
    """
    p = lam.weight
    if not 2 <= p <= MAX_SWEEP_ORDER:
        raise SizeGuardError(f"sweep supports 2 <= order <= {MAX_SWEEP_ORDER}")
    if dim > MAX_SWEEP_DIM:
        raise SizeGuardError(f"sweep supports dim <= {MAX_SWEEP_DIM}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    failures: list[CheckFailure] = []
    witnesses = 0
    trial_seeds = SplitMix64(seed)
    for _ in range(trials):
        trial_seed = trial_seeds.next_u64()
        inputs = SplitMix64(trial_seed)
        tensor = random_tensor(p, dim, inputs.next_u64())
        projected = project_isotypic(lam, tensor)
        x = random_vector(dim, inputs.next_u64(), nonzero=True)
        y = random_vector(dim, inputs.next_u64())

        for pi in critical_equation_failures(lam, projected):
            failures.append(
                CheckFailure(trial_seed, "critical-equations", None, str(pi))
            )
        miss = diagonal_kernel_failure(projected, x)
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

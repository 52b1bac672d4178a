"""Exact rational machinery for isotypic tensor components and their degeneracy.

The package keeps everything over the rationals: partitions and their
dominance order, the group algebra of slot permutations with its Young
symmetrizers and isotypic projectors, dense tensors with the slot action,
positive-equation and kernel-witness degeneracy checks, and the two small
classical invariants (Pfaffian, 2x2x2 hyperdeterminant) used as independent
cross-checks.
"""

from .degeneracy import (
    CheckFailure,
    DegeneracyReport,
    KernelWitness,
    critical_equation_failures,
    degeneracy_sweep,
    kernel_failure,
    slot_system_eigencheck,
    slot_system_matrix,
    substitution_values,
)
from .errors import InternalConsistencyError, InvalidWitnessError, SizeGuardError
from .hyperdet import (
    degeneracy_crosscheck_222,
    hyperdet_222,
    pfaffian,
    random_skew_matrix,
    schlafli_coefficients,
)
from .linalg import det_exact, rank_exact
from .partitions import (
    Partition,
    SetPartition,
    all_partitions,
    all_set_partitions,
    character,
    critical_set,
    dominance_leq,
    is_exceptional,
)
from .perm_algebra import (
    AlgebraElement,
    Permutation,
    all_permutations,
    column_antisymmetrizer,
    column_group,
    isotypic_projector,
    positive_element,
    row_group,
    row_symmetrizer,
    young_symmetrizer,
)
from .rational import as_fraction
from .rng import SplitMix64, derived_seed
from .tensor_space import (
    Tensor,
    algebra_action,
    evaluate,
    isotypic_rank,
    permute_factors,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
    slot_slice,
)

__all__ = [
    "AlgebraElement",
    "CheckFailure",
    "DegeneracyReport",
    "InternalConsistencyError",
    "InvalidWitnessError",
    "KernelWitness",
    "Partition",
    "Permutation",
    "SetPartition",
    "SizeGuardError",
    "SplitMix64",
    "Tensor",
    "algebra_action",
    "all_partitions",
    "all_permutations",
    "all_set_partitions",
    "as_fraction",
    "character",
    "column_antisymmetrizer",
    "column_group",
    "critical_equation_failures",
    "critical_set",
    "degeneracy_crosscheck_222",
    "degeneracy_sweep",
    "derived_seed",
    "det_exact",
    "dominance_leq",
    "evaluate",
    "hyperdet_222",
    "is_exceptional",
    "isotypic_projector",
    "isotypic_rank",
    "kernel_failure",
    "permute_factors",
    "pfaffian",
    "positive_element",
    "project_isotypic",
    "random_skew_matrix",
    "random_tensor",
    "random_vector",
    "rank_exact",
    "rank_one",
    "row_group",
    "row_symmetrizer",
    "schlafli_coefficients",
    "slot_slice",
    "slot_system_eigencheck",
    "slot_system_matrix",
    "substitution_values",
    "young_symmetrizer",
]

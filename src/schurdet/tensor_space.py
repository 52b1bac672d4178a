"""Dense order-p tensors over the rationals, with the slot permutation action.

Entries live in a flat tuple in lexicographic order with the first slot index
slowest: the entry at (i_1, ..., i_p), all indices 0-based, sits at flat
position ((i_1 * n + i_2) * n + ...) + i_p.

Slots are numbered 1..p, matching the points permutations act on.  The action
is (sigma . A)_{i_1 ... i_p} = A_{i_{sigma(1)} ... i_{sigma(p)}}, which makes
(sigma tau) . A = sigma . (tau . A) under the package's composition convention.

Scalars are exact Fractions at the API; algebra_action, contract_first and
slot_slice run their inner loops on integer numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, SizeGuardError
from .linalg import rank_exact
from .partitions import Partition
from .perm_algebra import AlgebraElement, Permutation, isotypic_projector
from .rational import as_fraction, common_denominator
from .rng import SplitMix64

MAX_DENSE_SIZE = 4096
MAX_RANK_SIZE = 1024

Vector = tuple[Fraction, ...]


def make_vector(values: Iterable) -> Vector:
    return tuple(as_fraction(v) for v in values)


def is_zero_vector(vec: Sequence[Fraction]) -> bool:
    return all(v == 0 for v in vec)


def _dense_size(order: int, dim: int) -> int:
    """dim**order, refused as soon as a partial product passes MAX_DENSE_SIZE.

    dim = 1 never grows, so it skips the loop whatever the order.
    """
    if order < 0 or dim < 1:
        raise ValueError("dim must be positive and order non-negative")
    size = 1
    for _ in range(order if dim > 1 else 0):
        size *= dim
        if size > MAX_DENSE_SIZE:
            raise SizeGuardError(
                f"dense tensor of order {order} and dim {dim} would have more than "
                f"{MAX_DENSE_SIZE} entries"
            )
    return size


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor with rational entries."""

    order: int
    dim: int
    entries: tuple[Fraction, ...]

    def __init__(self, order: int, dim: int, entries: Iterable):
        if order < 1:
            raise ValueError("order must be positive")
        size = _dense_size(order, dim)
        entries = tuple(as_fraction(v) for v in entries)
        if len(entries) != size:
            raise ValueError(f"expected {size} entries, got {len(entries)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zero(cls, order: int, dim: int) -> Tensor:
        return cls(order, dim, [Fraction(0)] * _dense_size(order, dim))

    @classmethod
    def from_map(cls, order: int, dim: int, assignments: dict) -> Tensor:
        """Build from {(i_1, ..., i_p): value} with 0-based indices; rest zero."""
        entries = [Fraction(0)] * _dense_size(order, dim)
        for indices, value in assignments.items():
            entries[cls._flat(dim, order, tuple(indices))] = as_fraction(value)
        return cls(order, dim, entries)

    @staticmethod
    def _flat(dim: int, order: int, indices: tuple[int, ...]) -> int:
        if len(indices) != order:
            raise ValueError("index tuple length must equal the order")
        flat = 0
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"index {i} out of range for dim {dim}")
            flat = flat * dim + i
        return flat

    def entry(self, indices: tuple[int, ...]) -> Fraction:
        return self.entries[self._flat(self.dim, self.order, indices)]

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def __add__(self, other: Tensor) -> Tensor:
        self._check_same_space(other)
        return Tensor(
            self.order, self.dim, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: Tensor) -> Tensor:
        self._check_same_space(other)
        return Tensor(
            self.order, self.dim, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def scale(self, scalar) -> Tensor:
        scalar = as_fraction(scalar)
        return Tensor(self.order, self.dim, [scalar * v for v in self.entries])

    def _check_same_space(self, other: Tensor) -> None:
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("tensors live in different spaces")

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "entries": [str(v) for v in self.entries],
        }

    @staticmethod
    def from_json_obj(obj) -> Tensor:
        if not isinstance(obj, dict):
            raise ValueError("tensor document must be an object")
        missing = {"order", "dim", "entries"} - set(obj)
        if missing:
            raise ValueError(f"tensor document missing keys: {sorted(missing)}")
        order, dim, entries = obj["order"], obj["dim"], obj["entries"]
        if not all(type(v) is int for v in (order, dim)):
            raise ValueError("order and dim must be integers")
        if not isinstance(entries, list):
            raise ValueError("entries must be a list")
        return Tensor(order, dim, entries)


def rank_one(vectors: Sequence[Sequence]) -> Tensor:
    """Outer product x^1 (x) ... (x) x^p of the given vectors."""
    if not vectors:
        raise ValueError("need at least one vector")
    dim = len(vectors[0])
    _dense_size(len(vectors), dim)
    vecs = [make_vector(v) for v in vectors]
    if any(len(v) != dim for v in vecs):
        raise ValueError("all factors must share one dimension")
    entries = [Fraction(1)]
    for vec in vecs:
        entries = [a * b for a in entries for b in vec]
    return Tensor(len(vecs), dim, entries)


@lru_cache(maxsize=None)
def _perm_table(images: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """Flat-index map for the slot action: out[f] = in[table[f]]."""
    order = len(images)
    size = dim**order
    table = []
    for flat in range(size):
        digits = []
        rem = flat
        for _ in range(order):
            rem, d = divmod(rem, dim)
            digits.append(d)
        digits.reverse()
        source = 0
        for k in range(order):
            source = source * dim + digits[images[k] - 1]
        table.append(source)
    return tuple(table)


def permute_factors(perm: Permutation, tensor: Tensor) -> Tensor:
    """Slot action: result at (i_1..i_p) is the entry at (i_{perm(1)}..i_{perm(p)})."""
    if perm.degree != tensor.order:
        raise ValueError("permutation degree must equal the tensor order")
    table = _perm_table(perm.images, tensor.dim)
    return Tensor(
        tensor.order, tensor.dim, [tensor.entries[s] for s in table]
    )


def algebra_action(element: AlgebraElement, tensor: Tensor) -> Tensor:
    """Linear extension of the slot action to group algebra elements.

    Terms are grouped by coefficient: the entries each group's permutations
    gather are summed with integer adds, then each group costs one multiply
    per entry.
    """
    if element.degree != tensor.order:
        raise ValueError("element degree must equal the tensor order")
    coeffs, coeff_den = common_denominator([coeff for _, coeff in element.terms()])
    entries, entry_den = common_denominator(tensor.entries)
    groups: dict[int, list[int]] = {}
    for (perm, _), coeff in zip(element.terms(), coeffs):
        table = _perm_table(perm.images, tensor.dim)
        summed = groups.get(coeff)
        if summed is None:
            groups[coeff] = [entries[s] for s in table]
        else:
            groups[coeff] = [a + entries[s] for a, s in zip(summed, table)]
    out = [0] * len(entries)
    for coeff, summed in groups.items():
        out = [o + coeff * a for o, a in zip(out, summed)]
    den = coeff_den * entry_den
    return Tensor(tensor.order, tensor.dim, [Fraction(v, den) for v in out])


def contract_first(tensor: Tensor, vector: Sequence) -> Tensor | Fraction:
    """Pair slot 1 with the vector; scalar result once the last slot is used."""
    vec = make_vector(vector)
    if len(vec) != tensor.dim:
        raise ValueError("vector length must equal the tensor dimension")
    weights, weight_den = common_denominator(vec)
    entries, entry_den = common_denominator(tensor.entries)
    block = tensor.dim ** (tensor.order - 1)
    out = [0] * block
    for d, weight in enumerate(weights):
        if weight:
            row = entries[d * block : (d + 1) * block]
            out = [o + weight * e for o, e in zip(out, row)]
    den = weight_den * entry_den
    values = [Fraction(v, den) for v in out]
    if tensor.order == 1:
        return values[0]
    return Tensor(tensor.order - 1, tensor.dim, values)


def evaluate(tensor: Tensor, vectors: Sequence[Sequence]) -> Fraction:
    """Full evaluation A(x^1, ..., x^p): the slot-1 slice paired with x^1."""
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    first = make_vector(vectors[0])
    if len(first) != tensor.dim:
        raise ValueError("vector length must equal the tensor dimension")
    covector = slot_slice(tensor, vectors, 1)
    return sum((a * b for a, b in zip(first, covector)), Fraction(0))


def slot_slice(tensor: Tensor, vectors: Sequence, slot: int) -> Vector:
    """Partial evaluation leaving slot `slot` (1-based) free.

    vectors[slot - 1] is ignored and may be None.  Slots before the free one go
    through contract_first; slots after it are contracted where they lie, last
    first, each pass turning every run of dim adjacent entries into one.
    """
    if not 1 <= slot <= tensor.order:
        raise ValueError(f"slot must be in 1..{tensor.order}")
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    current = tensor
    for vec in vectors[: slot - 1]:
        current = contract_first(current, vec)
    dim = tensor.dim
    entries, den = common_denominator(current.entries)
    for vec in reversed(vectors[slot:]):
        weights, weight_den = common_denominator(make_vector(vec))
        if len(weights) != dim:
            raise ValueError("vector length must equal the tensor dimension")
        out = [0] * (len(entries) // dim)
        for d, weight in enumerate(weights):
            if weight:
                out = [o + weight * e for o, e in zip(out, entries[d::dim])]
        entries, den = out, den * weight_den
    return tuple(Fraction(v, den) for v in entries)


def project_isotypic(lam: Partition, tensor: Tensor) -> Tensor:
    """Orthogonal projection of the tensor onto its lam-isotypic component."""
    if lam.weight != tensor.order:
        raise ValueError("partition weight must equal the tensor order")
    projector, _ = isotypic_projector(lam)
    return algebra_action(projector, tensor)


def isotypic_rank(lam: Partition, dim: int) -> int:
    """Dimension of the lam-isotypic component of the order-p tensor space.

    The rank is taken of a dense size x size matrix, so size is capped at
    MAX_RANK_SIZE (about a million cells) before the projector or any row is
    built.
    """
    size = _dense_size(lam.weight, dim)
    if size > MAX_RANK_SIZE:
        raise SizeGuardError(
            f"isotypic_rank builds a {size} x {size} matrix; at most "
            f"{MAX_RANK_SIZE} x {MAX_RANK_SIZE} is supported"
        )
    projector, _ = isotypic_projector(lam)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in projector.terms():
        table = _perm_table(perm.images, dim)
        for f, s in enumerate(table):
            matrix[f][s] += coeff
    return rank_exact(matrix)


def random_tensor(order: int, dim: int, seed: int) -> Tensor:
    """Seeded tensor with integer entries in [-9, 9], drawn in flat entry order."""
    size = _dense_size(order, dim)
    rng = SplitMix64(seed)
    return Tensor(order, dim, [Fraction(rng.next_int(-9, 9)) for _ in range(size)])


def random_vector(dim: int, seed: int, nonzero: bool = False) -> Vector:
    """Seeded vector with integer entries in [-9, 9]; optionally rejected until nonzero."""
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = SplitMix64(seed)
    for _ in range(64):
        vec = tuple(Fraction(rng.next_int(-9, 9)) for _ in range(dim))
        if not nonzero or not is_zero_vector(vec):
            return vec
    raise InternalConsistencyError("could not draw a nonzero vector")

"""Dense order-p tensors over the rationals, with the slot permutation action.

Entries live in a flat tuple in lexicographic order with the first slot index
slowest: the entry at (i_1, ..., i_p), all indices 0-based, sits at flat
position ((i_1 * n + i_2) * n + ...) + i_p.

Slots are numbered 1..p, matching the points permutations act on.  The action
is (sigma . A)_{i_1 ... i_p} = A_{i_{sigma(1)} ... i_{sigma(p)}}, which makes
(sigma tau) . A = sigma . (tau . A) under the package's composition convention.

A Tensor stores integer numerators over one positive denominator in lowest
terms, and the kernels here work on those integers; scalars are Fractions at
the API (`Tensor.entries`, `entry`, `contract_first`, `slot_slice`, `evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, SizeGuardError
from .linalg import rank_exact
from .partitions import Partition
from .perm_algebra import AlgebraElement, Permutation, isotypic_projector
from .rational import as_fraction, common_denominator
from .rng import SplitMix64

MAX_DENSE_SIZE = 4096
MAX_RANK_SIZE = 1024
MAX_TENSOR_BITS = 1 << 22  # bound on size * bit length of the common denominator

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
    """Immutable dense tensor nums[i] / den, den > 0 and gcd(den, *nums) == 1, so
    the form is canonical: equality and hashing compare the fields.  `entries`
    is the read-only Fraction view, built on the first read."""

    order: int
    dim: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, order: int, dim: int, entries: Iterable):
        if order < 1:
            raise ValueError("order must be positive")
        size = _dense_size(order, dim)
        values = [as_fraction(v) for v in entries]
        if len(values) != size:
            raise ValueError(f"expected {size} entries, got {len(values)}")
        den = 1
        for d in {v.denominator for v in values}:
            if (den := lcm(den, d)).bit_length() * size > MAX_TENSOR_BITS:
                raise SizeGuardError(f"common denominator passes {MAX_TENSOR_BITS // size} bits")
        nums = [v.numerator * (den // v.denominator) for v in values]
        # frozen: the fields go straight into the instance dict, here and below
        vars(self).update(order=order, dim=dim, nums=tuple(nums), den=den)

    @classmethod
    def _from_ints(cls, order: int, dim: int, nums: Sequence[int], den: int) -> Tensor:
        """The tensor nums[i] / den (den > 0, length unchecked), in lowest terms."""
        common = gcd(den, *nums)
        if common != 1:
            nums, den = [v // common for v in nums], den // common
        tensor = object.__new__(cls)
        vars(tensor).update(order=order, dim=dim, nums=tuple(nums), den=den)
        return tensor

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @classmethod
    def zero(cls, order: int, dim: int) -> Tensor:
        return cls._from_ints(order, dim, [0] * _dense_size(order, dim), 1)

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
        return Fraction(self.nums[self._flat(self.dim, self.order, indices)], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other: Tensor) -> Tensor:
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("tensors live in different spaces")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = [a * x + b * y for x, y in zip(self.nums, other.nums)]
        return Tensor._from_ints(self.order, self.dim, nums, den)

    def __sub__(self, other: Tensor) -> Tensor:
        return self + other.scale(-1)

    def scale(self, scalar) -> Tensor:
        scalar = as_fraction(scalar)
        nums = [scalar.numerator * v for v in self.nums]
        return Tensor._from_ints(self.order, self.dim, nums, scalar.denominator * self.den)

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
    nums = tensor.nums
    return Tensor._from_ints(tensor.order, tensor.dim, [nums[s] for s in table], tensor.den)


def algebra_action(element: AlgebraElement, tensor: Tensor) -> Tensor:
    """Linear extension of the slot action to group algebra elements.

    Terms are grouped by coefficient: the entries each group's permutations
    gather are summed with integer adds, then each group costs one multiply
    per entry.
    """
    if element.degree != tensor.order:
        raise ValueError("element degree must equal the tensor order")
    coeffs, coeff_den = common_denominator([coeff for _, coeff in element.terms()])
    entries = tensor.nums
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
    return Tensor._from_ints(tensor.order, tensor.dim, out, coeff_den * tensor.den)


def contract_first(tensor: Tensor, vector: Sequence) -> Tensor | Fraction:
    """Pair slot 1 with the vector; scalar result once the last slot is used."""
    vec = make_vector(vector)
    if len(vec) != tensor.dim:
        raise ValueError("vector length must equal the tensor dimension")
    weights, weight_den = common_denominator(vec)
    entries = tensor.nums
    block = tensor.dim ** (tensor.order - 1)
    out = [0] * block
    for d, weight in enumerate(weights):
        if weight:
            row = entries[d * block : (d + 1) * block]
            out = [o + weight * e for o, e in zip(out, row)]
    den = weight_den * tensor.den
    if tensor.order == 1:
        return Fraction(out[0], den)
    return Tensor._from_ints(tensor.order - 1, tensor.dim, out, den)


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
    entries, den = current.nums, current.den
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
    return Tensor._from_ints(order, dim, [rng.next_int(-9, 9) for _ in range(size)], 1)


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

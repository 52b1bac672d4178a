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
One coefficient over a whole Young subgroup acts by orbit sums, the differences
of running sums at the orbits' ends in a layout cached by the subgroup's blocks;
any other element by its cached integer matrix on each weight space.  Spaces whose
digit counts agree up to order share one matrix, and a type the element kills has
none, so a projection and `isotypic_rank` visit only the types it keeps.  One integer
loop contracts slot 1, one pass over an outer product the slots after a free one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter, mul, sub
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, SizeGuardError
from .linalg import rank_exact
from .partitions import Partition
from .perm_algebra import AlgebraElement, Permutation, isotypic_projector
from .rational import integer_values, refuse_denominators, refuse_numerators
from .rng import SplitMix64

MAX_DENSE_SIZE = 4096


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


def _tensor_size(order: int, dim: int) -> int:
    """_dense_size for a tensor, whose order must be positive."""
    if order < 1:
        raise ValueError("order must be positive")
    return _dense_size(order, dim)


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
        size = _tensor_size(order, dim)
        nums, den = integer_values(entries)
        if len(nums) != size:
            raise ValueError(f"expected {size} entries, got {len(nums)}")
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
        return cls._from_ints(order, dim, [0] * _tensor_size(order, dim), 1)

    @classmethod
    def from_map(cls, order: int, dim: int, assignments: dict) -> Tensor:
        """Build from {(i_1, ..., i_p): value} with 0-based indices; rest zero."""
        entries = [0] * _tensor_size(order, dim)
        for indices, value in assignments.items():
            entries[cls._flat(dim, order, tuple(indices))] = value
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
        refuse_denominators("summed", {self.den, other.den}, len(self.nums))  # lcm(d, d) = d
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = [a * x + b * y for x, y in zip(self.nums, other.nums)]
        return Tensor._from_ints(self.order, self.dim, nums, den)

    def __sub__(self, other: Tensor) -> Tensor:
        return self + other.scale(-1)

    def scale(self, scalar) -> Tensor:
        (num,), den = integer_values([scalar])
        refuse_denominators("scaled", (den, self.den), len(self.nums))
        nums = [num * v for v in self.nums]
        return Tensor._from_ints(self.order, self.dim, nums, den * self.den)

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
    """Outer product x^1 (x) ... (x) x^p of the given vectors, each through the intake;
    the factors' denominators are refused by size before any product is formed."""
    if not vectors:
        raise ValueError("need at least one vector")
    dim = len(vectors[0])
    size = _dense_size(len(vectors), dim)
    if any(len(v) != dim for v in vectors):
        raise ValueError("all factors must share one dimension")
    nums, dens = zip(*map(integer_values, vectors))
    refuse_denominators("rank-one", dens, size)
    entries = [prod(factors) for factors in itertools.product(*nums)]
    return Tensor._from_ints(len(vectors), dim, entries, prod(dens))


@lru_cache(maxsize=None)
def _perm_table(images: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """Flat-index map for the slot action: out[f] = in[table[f]]; digit j of f
    goes to the slot k with images[k - 1] = j."""
    order = len(images)
    weights = [0] * order
    for k, j in enumerate(images, start=1):
        weights[j - 1] = dim ** (order - k)
    digits = itertools.product(range(dim), repeat=order)
    return tuple(sum(map(mul, d, weights)) for d in digits)


def permute_factors(perm: Permutation, tensor: Tensor) -> Tensor:
    """Slot action: result at (i_1..i_p) is the entry at (i_{perm(1)}..i_{perm(p)})."""
    if perm.degree != tensor.order:
        raise ValueError("permutation degree must equal the tensor order")
    table = _perm_table(perm.images, tensor.dim)
    nums = tensor.nums
    return Tensor._from_ints(tensor.order, tensor.dim, [nums[s] for s in table], tensor.den)


def _orbit_table(blocks: tuple, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of the Young subgroup S_B of the sorted blocks B on flat indices.

    Each flat index's representative is the flat index of its digits sorted
    within every block; its stabiliser order is |S_B| / |orbit|, with
    |S_B| = prod |B_k|! taken from the block sizes.
    """
    order = sum(map(len, blocks))
    # the sorted digits of every block, placed in block order, with their slots' weights
    slots = [[k - 1 for k in b] for b in blocks]
    weights = [dim ** (order - 1 - k) for block in slots for k in block]
    rep = [
        sum(map(mul, [d for block in slots for d in sorted(digits[k] for k in block)], weights))
        for digits in itertools.product(range(dim), repeat=order)
    ]
    group_order = prod(factorial(len(b)) for b in blocks)
    orbit_size = Counter(rep)
    return tuple(rep), tuple(group_order // orbit_size[r] for r in rep)


@lru_cache(maxsize=None)
def _orbit_layout(blocks: tuple, dim: int) -> tuple:
    """`_orbit_table` as (gather, ends, spread, stab): entries orbit by orbit, their running sums
    at each orbit's end, and each index's sum from the orbit sums (differences of the ends)."""
    rep, stab = _orbit_table(blocks, dim)
    if len(rep) == 1:  # dim 1: one entry, which a one-index itemgetter would return bare
        return tuple, tuple, tuple, stab
    order = sorted(range(len(rep)), key=rep.__getitem__)
    last = {rep[f]: k for k, f in enumerate(order)}  # orbits in order, each at its last entry
    index = {r: k for k, r in enumerate(last)}
    return itemgetter(*order), itemgetter(*last.values()), itemgetter(*map(index.get, rep)), stab


def _young_layout(element: AlgebraElement, tensor: Tensor) -> tuple | None:
    """(c, layout, running sums at the orbits' ends) for c times a whole Young subgroup, else None."""
    if element.degree != tensor.order:
        raise ValueError("element degree must equal the tensor order")
    young = element.young_sum
    if young is None:
        return None
    layout = _orbit_layout(young[1], tensor.dim)
    return young[0], layout, layout[1](list(itertools.accumulate(layout[0](tensor.nums))))


@lru_cache(maxsize=32)  # keyed by coefficients, so scaled copies must not pile up
def _weight_blocks(terms: frozenset, degree: int, dim: int) -> tuple:
    """An element's integer matrix on each weight type, as (rows, spaces) pairs.

    A slot permutation keeps each word's digit counts and commutes with relabelling
    the digits, so spaces whose counts agree up to order (one type, the counts
    sorted decreasing) share one block.  `rows` is that of the representative space,
    whose counts do not increase with the digit: row i holds what its i-th word
    takes from each of its words.  Each of `spaces` lists a space's flat indices as
    the relabelled representative words, so row i belongs to spaces[s][i].  Rows
    are tuples, shared by `algebra_action` and `isotypic_rank`; a type the element
    kills is absent.
    """
    flat = {w: f for f, w in enumerate(itertools.product(range(dim), repeat=degree))}
    spaces: dict[tuple, list] = {}
    for w in flat:
        spaces.setdefault(tuple(sorted(w)), []).append(w)
    types: dict[tuple, tuple] = {}
    for word, members in spaces.items():  # by sorted word, so a type's representative comes first
        common = Counter(word).most_common()  # ties by digit; representative digit k -> common[k][0]
        reps, found = types.setdefault(tuple(c for _, c in common), (members, []))
        found.append(tuple(flat[tuple(common[d][0] for d in w)] for w in reps))
    local = {(0,) + w: i for reps, _ in types.values() for i, w in enumerate(reps)}
    blocks = [[[0] * len(reps) for _ in reps] for reps, _ in types.values()]
    rows = [row for block in blocks for row in block]  # every representative word's, in local's order
    columns = list(zip(*local))  # 1-based digits; column 0 keeps zip going at degree 0
    for images, coeff in terms:  # word w takes the word with w_j in slot k, images[k-1] = j
        for row, j in zip(rows, map(local.__getitem__, zip(*map(columns.__getitem__, (0, *images))))):
            row[j] += coeff
    kept = [(b, s) for b, (_, s) in zip(blocks, types.values()) if any(map(any, b))]
    return tuple((tuple(map(tuple, b)), tuple(s)) for b, s in kept)


def algebra_action(element: AlgebraElement, tensor: Tensor) -> Tensor:
    """Linear extension of the slot action to group algebra elements.

    One coefficient c over a whole Young subgroup S_B takes one pass of orbit
    sums, (c * sum of h . A over S_B)_i = c * |Stab(i)| * (sum of A over the
    orbit of i).  Any other element multiplies each weight space's entries by
    its cached `_weight_blocks` matrix, one sum of products per entry.  The
    denominators' product is refused by size first.
    """
    refuse_denominators("acted", (element.den, tensor.den), len(tensor.nums))
    young = _young_layout(element, tensor)
    entries = tensor.nums
    if young is None:
        out = [0] * len(entries)
        for rows, spaces in _weight_blocks(element.term_set, element.degree, tensor.dim):
            for indices in spaces:
                column = [entries[f] for f in indices]
                for f, row in zip(indices, rows):
                    out[f] = sum(map(mul, row, column))
    else:
        coeff, (_, _, spread, stab), ends = young
        sums = list(map(sub, ends, (0,) + ends[:-1]))
        out = [coeff * s * v for s, v in zip(stab, spread(sums))]
    return Tensor._from_ints(tensor.order, tensor.dim, out, element.den * tensor.den)


def annihilates(element: AlgebraElement, tensor: Tensor) -> bool:
    """Whether algebra_action(element, tensor) is zero, for one coefficient over a
    whole Young subgroup S_B (a positive element), else ValueError.  Stabiliser
    orders are positive, so that is whether every S_B-orbit sum is zero."""
    young = _young_layout(element, tensor)
    if young is None:
        raise ValueError("annihilates takes one coefficient over a whole Young subgroup")
    return not any(young[2])


def _contract(nums: Sequence[int], den: int, dim: int, vector: Sequence) -> tuple:
    """Pair slot 1 of the entries nums / den with the vector, as (nums, den): each
    weight times its run of len(nums) / dim entries, refused by size first."""
    if len(vector) != dim:
        raise ValueError("vector length must equal the tensor dimension")
    weights, weight_den = integer_values(vector)
    block = len(nums) // dim
    refuse_numerators("contracted", max(map(abs, weights)).bit_length(), block)
    if weight_den > 1:  # an integer vector, as every seeded draw is, adds no denominator
        refuse_denominators("contracted", (den, weight_den), block)
    out = [0] * block
    for d, weight in enumerate(weights):
        if weight:
            out = [o + weight * e for o, e in zip(out, nums[d * block : (d + 1) * block])]
    return out, den * weight_den


def _contract_trailing(nums: Sequence[int], den: int, dim: int, vectors: Sequence) -> tuple:
    """Pair the last len(vectors) slots of nums / den with the vectors (none: as they are), as
    (nums, den): their outer product, refused by size before it is formed, against each run."""
    if not vectors:
        return nums, den
    weights, dens, bits = [], [], 0
    for vector in vectors:
        if len(vector) != dim:
            raise ValueError("vector length must equal the tensor dimension")
        w, d = integer_values(vector)
        weights.append(w)
        bits += max(map(abs, w)).bit_length()
        if d > 1:  # an integer vector, as every seeded draw is, adds no denominator
            dens.append(d)
    run = dim ** len(weights)
    refuse_numerators("contracted", bits, run)
    if dens:
        refuse_denominators("contracted", (den, *dens), len(nums) // run)
    outer = weights[0]
    for w in weights[1:]:
        outer = [a * b for a in outer for b in w]
    out = [sum(map(mul, nums[i : i + run], outer)) for i in range(0, len(nums), run)]
    return out, den * prod(dens)


def contract_first(tensor: Tensor, vector: Sequence) -> Tensor | Fraction:
    """Pair slot 1 with the vector; scalar result once the last slot is used."""
    out, den = _contract(tensor.nums, tensor.den, tensor.dim, vector)
    if tensor.order == 1:
        return Fraction(out[0], den)
    return Tensor._from_ints(tensor.order - 1, tensor.dim, out, den)


def evaluate(tensor: Tensor, vectors: Sequence[Sequence]) -> Fraction:
    """Full evaluation A(x^1, ..., x^p): slots 2..p in one pass, then x^1 in another."""
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    nums, den = _contract_trailing(tensor.nums, tensor.den, tensor.dim, vectors[1:])
    (value,), den = _contract_trailing(nums, den, tensor.dim, vectors[:1])
    return Fraction(value, den)


def slot_slice(tensor: Tensor, vectors: Sequence, slot: int) -> tuple[Fraction, ...]:
    """Partial evaluation leaving slot `slot` (1-based) free.

    vectors[slot - 1] is ignored and may be None.  Slots before the free one go
    through contract_first; slots after it are contracted in one pass.
    """
    if not 1 <= slot <= tensor.order:
        raise ValueError(f"slot must be in 1..{tensor.order}")
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    current = tensor
    for vec in vectors[: slot - 1]:
        current = contract_first(current, vec)
    entries, den = _contract_trailing(current.nums, current.den, tensor.dim, vectors[slot:])
    return tuple(map(Fraction, entries)) if den == 1 else tuple(Fraction(v, den) for v in entries)


def project_isotypic(lam: Partition, tensor: Tensor) -> Tensor:
    """Orthogonal projection of the tensor onto its lam-isotypic component."""
    if lam.weight != tensor.order:
        raise ValueError("partition weight must equal the tensor order")
    projector, _ = isotypic_projector(lam)  # first, so its degree bound holds at any dim
    if lam.rows > tensor.dim:  # S_lam V = 0 when lam has more rows than dim V
        return Tensor.zero(tensor.order, tensor.dim)
    return algebra_action(projector, tensor)


def isotypic_rank(lam: Partition, dim: int) -> int:
    """Dimension of the lam-isotypic component of the order-p tensor space.

    `rank_exact` of each of the projector's cached `_weight_blocks` (a killed type, of rank 0,
    has none), times the number of weight spaces of its type; they are the blocks
    `project_isotypic` applies, so it is bounded as a projection is: dim**p, then the degree.
    """
    _dense_size(lam.weight, dim)
    projector, _ = isotypic_projector(lam)
    blocks = _weight_blocks(projector.term_set, lam.weight, dim)
    return sum(rank_exact(rows) * len(spaces) for rows, spaces in blocks)


def random_tensor(order: int, dim: int, seed: int) -> Tensor:
    """Seeded tensor with integer entries in [-9, 9], drawn in flat entry order."""
    size = _tensor_size(order, dim)
    return Tensor._from_ints(order, dim, SplitMix64(seed).next_ints(-9, 9, size), 1)


def random_vector(dim: int, seed: int, nonzero: bool = False) -> tuple[int, ...]:
    """Seeded vector of the ints drawn in [-9, 9]; optionally rejected until nonzero.

    A vector is an order-1 tensor, so dim is bounded as a tensor's size is.
    """
    _tensor_size(1, dim)
    rng = SplitMix64(seed)
    for _ in range(64):
        vec = tuple(rng.next_ints(-9, 9, dim))
        if not nonzero or any(vec):
            return vec
    raise InternalConsistencyError("could not draw a nonzero vector")

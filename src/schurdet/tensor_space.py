"""Dense order-p tensors over the rationals, with the slot permutation action.

Entries live in a flat tuple in lexicographic order with the first slot index
slowest: the entry at (i_1, ..., i_p), all indices 0-based, sits at flat
position ((i_1 * n + i_2) * n + ...) + i_p.

Slots are numbered 1..p, matching the points permutations act on.  The action
is (sigma . A)_{i_1 ... i_p} = A_{i_{sigma(1)} ... i_{sigma(p)}}, which makes
(sigma tau) . A = sigma . (tau . A) under the package's composition convention.
A permutation acts through `algebra_action` as its one-term element.

A Tensor stores integer numerators over one positive denominator in lowest
terms, and the kernels here work on those integers; scalars are Fractions at
the API (`Tensor.entries`, `entry`, `contract_first`, `slot_slice`, `evaluate`).
One coefficient over a whole Young subgroup acts by orbit sums, the differences
of running sums at the orbits' ends in a layout cached by the subgroup's blocks, built from
each block's arrangements of its digit multisets with one stabiliser per orbit;
any other element by its cached integer matrix on each weight space, the columns packed
in integer lanes so that a space's outputs take one multiply-add per entry.  Spaces whose digit
counts agree up to order share one matrix, and a type the element kills has none, so a projection
and `isotypic_rank` visit only the types it keeps.  Every product of vectors (`rank_one`'s, a
contraction's) is formed by `_outer`, and `_pair` pairs it with the leading or trailing slots.
"""

from __future__ import annotations

import itertools
from array import array
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
from .perm_algebra import AlgebraElement, isotypic_projector
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
    """Outer product x^1 (x) ... (x) x^p of the given vectors, formed by `_outer`."""
    if not vectors:
        raise ValueError("need at least one vector")
    dim = len(vectors[0])
    size = _dense_size(len(vectors), dim)
    entries, den = _outer("rank-one", vectors, dim, 1, size, size)
    return Tensor._from_ints(len(vectors), dim, entries, den)


@lru_cache(maxsize=None)
def _orbit_layout(blocks: tuple, dim: int) -> tuple:
    """Orbits of the Young subgroup S_B of the sorted blocks B on flat indices, as (gather, ends,
    spread, stab): the entries orbit by orbit, their running sums at each orbit's end, each index's
    orbit, and each orbit's stabiliser order |S_B| / |orbit|, with |S_B| = prod |B_k|!.

    A block's words over its own slots, grouped by their sorted digits, are the arrangements of
    one multiset, each kept as its flat contribution.  An orbit is one group per block, and its
    members are the sums of one contribution from each, so only the words over one block are sorted.
    """
    order, orbits = sum(map(len, blocks)), [[0]]
    for block in blocks:
        weights = [dim ** (order - k) for k in block]
        groups: dict[tuple, list] = {}
        for word in itertools.product(range(dim), repeat=len(block)):
            groups.setdefault(tuple(sorted(word)), []).append(sum(map(mul, word, weights)))
        orbits = [[a + b for a in members for b in group] for members in orbits for group in groups.values()]
    group_order = prod(factorial(len(b)) for b in blocks)
    stab = tuple(group_order // len(members) for members in orbits)
    gather = [f for members in orbits for f in members]
    if len(gather) == 1:  # dim 1: one entry, which a one-index itemgetter would return bare
        return tuple, tuple, tuple, stab
    spread = [0] * len(gather)
    for k, members in enumerate(orbits):
        for f in members:
            spread[f] = k
    ends = [end - 1 for end in itertools.accumulate(map(len, orbits))]
    return itemgetter(*gather), itemgetter(*ends), itemgetter(*spread), stab


def _young_layout(element: AlgebraElement, tensor: Tensor) -> tuple | None:
    """(c, layout, running sums at the orbits' ends) for c times a whole Young subgroup, else None."""
    if element.degree != tensor.order:
        raise ValueError("element degree must equal the tensor order")
    young = element.young_sum
    if young is None:
        return None
    layout = _orbit_layout(young[1], tensor.dim)
    return young[0], layout, layout[1](list(itertools.accumulate(layout[0](tensor.nums))))


def _packed(rows: tuple, width: int) -> tuple[int, ...]:
    """Each column j of the rows as one integer, sum_i rows[i][j] * 2**(width * i)."""
    return tuple(sum(v << width * i for i, v in enumerate(column)) for column in zip(*rows))


@lru_cache(maxsize=32)  # keyed by coefficients, so scaled copies must not pile up
def _weight_blocks(terms: frozenset, degree: int, dim: int) -> tuple:
    """An element's integer matrix on each weight type, as (blocks, scatter, gather), where
    blocks holds one (rows, spaces, columns) triple per type.

    A slot permutation keeps each word's digit counts and commutes with relabelling
    the digits, so spaces whose counts agree up to order (one type, the counts
    sorted decreasing) share one block.  `rows` is that of the representative space,
    whose counts do not increase with the digit: row i holds what its i-th word
    takes from each of its words.  Each of `spaces` lists a space's flat indices as
    the relabelled representative words, so row i belongs to spaces[s][i].  Rows
    are tuples, shared by `algebra_action` and `isotypic_rank`; a type the element
    kills is absent.  `columns` are the rows `_packed` in 64-bit lanes; `scatter` takes a
    tensor's entries to block, space and row order, killed types last, and `gather` back.
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
    kept = [(tuple(map(tuple, b)), tuple(s)) for b, (_, s) in zip(blocks, types.values()) if any(map(any, b))]
    order = [f for _, spaces in kept for indices in spaces for f in indices]
    order += set(range(len(flat))).difference(order)  # then the killed types' indices
    inverse = sorted(range(len(order)), key=order.__getitem__)  # one entry: both are tuple
    scatter, gather = (itemgetter(*o) if len(o) > 1 else tuple for o in (order, inverse))
    return tuple((rows, spaces, _packed(rows, 64)) for rows, spaces in kept), scatter, gather


def algebra_action(element: AlgebraElement, tensor: Tensor) -> Tensor:
    """Linear extension of the slot action to group algebra elements.

    One coefficient c over a whole Young subgroup S_B takes one pass of orbit
    sums, (c * sum of h . A over S_B)_i = c * |Stab(i)| * (sum of A over the
    orbit of i).  Any other element takes each weight space's entries v to the lanes
    of sum_j v_j * columns[j] of its cached `_weight_blocks`: |output| < 2**bits, the
    bit lengths of max|v|, max|c| and the support size summed, so lanes of whole words
    past bits hold it, each biased by 2**(w-1) and flipped back to two's complement.
    The denominators' product is refused by size first.
    """
    refuse_denominators("acted", (element.den, tensor.den), len(tensor.nums))
    young = _young_layout(element, tensor)
    entries = tensor.nums
    if young is None:
        blocks, scatter, gather = _weight_blocks(element.term_set, element.degree, tensor.dim)
        bits = max(map(abs, entries)).bit_length() + element._bits + len(element.nums).bit_length()
        step = 8 * (bits // 64 + 1)  # bytes per lane: whole words, with room for the sign
        values, lanes = iter(scatter(entries)), []
        for rows, spaces, columns in blocks:
            columns = columns if step == 8 else _packed(rows, 8 * step)
            bias = int.from_bytes((bytes(step - 1) + b"\x80") * len(rows), "little")
            for _ in spaces:  # columns first, so that map takes only len(rows) values
                data = (sum(map(mul, columns, values), bias) ^ bias).to_bytes(step * len(rows), "little")
                lanes += array("q", data) if step == 8 else [
                    int.from_bytes(data[i : i + step], "little", signed=True) for i in range(0, len(data), step)
                ]
        out = gather(lanes + [0] * (len(entries) - len(lanes)))
    else:
        coeff, (_, _, spread, stab), ends = young
        out = spread([coeff * s * v for s, v in zip(stab, map(sub, ends, (0,) + ends[:-1]))])
    return Tensor._from_ints(tensor.order, tensor.dim, out, element.den * tensor.den)


def annihilates(element: AlgebraElement, tensor: Tensor) -> bool:
    """Whether algebra_action(element, tensor) is zero, for one coefficient over a
    whole Young subgroup S_B (a positive element), else ValueError.  Stabiliser
    orders are positive, so that is whether every S_B-orbit sum is zero."""
    young = _young_layout(element, tensor)
    if young is None:
        raise ValueError("annihilates takes one coefficient over a whole Young subgroup")
    return not any(young[2])


def _outer(what: str, vectors: Sequence, dim: int, den: int, size: int, entries: int) -> tuple:
    """The vectors' outer product, each vector through the intake, as (products, den times
    the vectors' denominators).  Refused by size before it is formed: the bit lengths of the
    vectors' largest numerators, summed, times max(size, entries), and when some vector is
    not integer, (den, *their denominators) times entries."""
    weights, dens, bits = [], [], 0
    for vector in vectors:
        if len(vector) != dim:
            raise ValueError("vector length must equal the tensor dimension")
        w, d = integer_values(vector)
        weights.append(w)
        bits += max(map(abs, w)).bit_length()
        if d > 1:  # an integer vector, as every seeded draw is, adds no denominator
            dens.append(d)
    refuse_numerators(what, bits, size if size > entries else entries)
    if dens:
        refuse_denominators(what, (den, *dens), entries)
        den *= prod(dens)
    outer = weights[0]
    for w in weights[1:]:
        outer = [a * b for a in outer for b in w]
    return outer, den


def _pair(nums: Sequence[int], den: int, dim: int, vectors: Sequence, leading: bool) -> tuple:
    """Pair the first (leading) or last len(vectors) slots of nums / den with the vectors (none:
    as they are), as (nums, den): leading, each product weight times its contiguous block of
    the rest; trailing, the products against each contiguous run."""
    if not vectors:
        return nums, den
    run = dim ** len(vectors)
    rest = len(nums) // run
    outer, den = _outer("contracted", vectors, dim, den, run, rest)
    if not leading:
        return [sum(map(mul, nums[i : i + run], outer)) for i in range(0, len(nums), run)], den
    out = [0] * rest
    for d, weight in enumerate(outer):
        if weight:
            out = [o + weight * e for o, e in zip(out, nums[d * rest : (d + 1) * rest])]
    return out, den


def contract_first(tensor: Tensor, vector: Sequence) -> Tensor | Fraction:
    """Pair slot 1 with the vector; scalar result once the last slot is used."""
    out, den = _pair(tensor.nums, tensor.den, tensor.dim, (vector,), True)
    if tensor.order == 1:
        return Fraction(out[0], den)
    return Tensor._from_ints(tensor.order - 1, tensor.dim, out, den)


def evaluate(tensor: Tensor, vectors: Sequence[Sequence]) -> Fraction:
    """Full evaluation A(x^1, ..., x^p): slots 2..p in one pass, then x^1 in another."""
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    nums, den = _pair(tensor.nums, tensor.den, tensor.dim, vectors[1:], False)
    (value,), den = _pair(nums, den, tensor.dim, vectors[:1], False)
    return Fraction(value, den)


def slot_slice(tensor: Tensor, vectors: Sequence, slot: int) -> tuple[Fraction, ...]:
    """Partial evaluation leaving slot `slot` (1-based) free.

    vectors[slot - 1] is ignored and may be None.  The slots before the free one are
    paired in one leading pass, then the slots after it in one trailing pass.
    """
    if not 1 <= slot <= tensor.order:
        raise ValueError(f"slot must be in 1..{tensor.order}")
    if len(vectors) != tensor.order:
        raise ValueError("need one vector per slot")
    nums, den = _pair(tensor.nums, tensor.den, tensor.dim, vectors[: slot - 1], True)
    entries, den = _pair(nums, den, tensor.dim, vectors[slot:], False)
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
    blocks = _weight_blocks(projector.term_set, lam.weight, dim)[0]
    return sum(rank_exact(rows) * len(spaces) for rows, spaces, _ in blocks)


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

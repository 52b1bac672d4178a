"""Permutations of {1, ..., p} and their rational group algebra.

Composition convention, fixed globally: ``(s * t)(i) = s(t(i))`` — the right
factor acts first.  Every symmetrizer and every tensor action in the package
derives from this single choice.

Every group is enumerated as a Young subgroup: the permutations moving each
block of a set partition within itself.  The Young symmetrizer takes its rows
and columns from the row-major filling: boxes numbered consecutively left to
right, top to bottom.

An AlgebraElement holds integer numerators over one denominator, as a Tensor
does, and multiply works on those integers; scalars are Fractions at the API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InternalConsistencyError, SizeGuardError
from .partitions import Partition, SetPartition, as_int_tuple, character
from .rational import integer_values, refuse_denominators, refuse_numerators

MAX_GROUP_DEGREE = 8
MAX_PROJECTOR_DEGREE = 6


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., p}, stored as the tuple of images of 1, ..., p."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = as_int_tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Iterable[int]) -> Permutation:
        """Build from disjoint cycles; unmentioned points are fixed."""
        images = list(range(1, degree + 1))
        for cycle in cycles:
            cycle = tuple(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition with the right factor applied first."""
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(self.images[j - 1] for j in other.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Orbits of the permutation, fixed points included, as sorted-start cycles."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            point = self(start)
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self(point)
            out.append(tuple(cycle))
        return out

    @property
    def sign(self) -> int:
        """Parity: (-1) ** (degree - number of cycles)."""
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.images) + "]"


def all_permutations(degree: int) -> list[Permutation]:
    """The whole symmetric group on 1..degree, images in lexicographic order."""
    return [Permutation(g) for g in _young_subgroup(degree, (tuple(range(1, degree + 1)),))]


@dataclass(frozen=True)
class AlgebraElement:
    """A finite rational-linear combination of permutations of {1, ..., p}.

    Stored as nums[images] / den: a read-only map from image tuples to nonzero
    integers, over den > 0 with gcd(den, *nums) == 1, so equality compares the
    fields.  `terms` is the (Permutation, Fraction) view, built on first use.
    Multiplication is the bilinear extension of composition.
    """

    degree: int
    den: int
    nums: Mapping[tuple[int, ...], int]

    def __init__(self, degree: int, terms=None):
        terms = terms or {}
        if any(perm.degree != degree for perm in terms):
            raise ValueError("term degree mismatch")
        nums, den = integer_values(terms.values())
        canonical = self._from_ints(degree, dict(zip((p.images for p in terms), nums)), den)
        # frozen: the fields go straight into the instance dict, here and below
        vars(self).update(vars(canonical))

    @classmethod
    def _from_ints(cls, degree: int, nums: dict, den: int) -> AlgebraElement:
        """nums[images] / den (den > 0, keys unchecked) in lowest terms, zeros dropped."""
        common = gcd(den, *nums.values())
        nums = MappingProxyType({k: v // common for k, v in nums.items() if v})
        element = object.__new__(cls)
        vars(element).update(degree=degree, den=den // common, nums=nums)
        return element

    @classmethod
    def unit(cls, degree: int) -> AlgebraElement:
        return cls(degree, {Permutation.identity(degree): 1})

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self.nums.get(perm.images, 0), self.den)

    @cached_property
    def terms(self) -> tuple[tuple[Permutation, Fraction], ...]:
        """The (Permutation, Fraction) pairs, sorted by image tuple."""
        return tuple((Permutation(k), Fraction(v, self.den)) for k, v in sorted(self.nums.items()))

    @cached_property
    def term_set(self) -> frozenset:
        """frozenset(nums.items()): the hashable key of cached per-element tables."""
        return frozenset(self.nums.items())

    @cached_property
    def _bits(self) -> int:
        """The bit length of the largest numerator, which `multiply` budgets."""
        return max(map(abs, self.nums.values()), default=0).bit_length()

    @cached_property
    def young_sum(self) -> tuple[int, tuple] | None:
        """(c, B) when nums is c on exactly the Young subgroup S_B, else None."""
        coeffs = set(self.nums.values())
        blocks = young_blocks(frozenset(self.nums)) if len(coeffs) == 1 else None
        return None if blocks is None else (coeffs.pop(), blocks)

    @property
    def support_size(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        refuse_denominators("summed", {self.den, other.den}, len(self.nums.keys() | other.nums.keys()))
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = {k: a * v for k, v in self.nums.items()}
        for k, v in other.nums.items():
            nums[k] = nums.get(k, 0) + b * v
        return AlgebraElement._from_ints(self.degree, nums, den)

    def __neg__(self) -> AlgebraElement:
        return self.scale(-1)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, scalar) -> AlgebraElement:
        (num,), den = integer_values([scalar])
        refuse_denominators("scaled", (den, self.den), len(self.nums))
        nums = {k: num * v for k, v in self.nums.items()}
        return AlgebraElement._from_ints(self.degree, nums, den * self.den)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> AlgebraElement:
        return self.scale(scalar)

    __hash__ = None  # nums is a mapping

    def __repr__(self) -> str:
        return " + ".join(f"{c}*{p}" for p, c in self.terms) or "0"


def multiply(left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """Group algebra product: bilinear extension of composition.

    A left factor that is c times the sum of a Young subgroup H = S_B goes by
    coset sums: right's numerators are summed over each coset H tau, keyed by
    the block of each image, and each nonzero sum goes to its |H| members h * tau.
    Any other left factor composes every pair sigma * tau.  Numerators and
    denominators are refused by size first, for at most min(|left| * |right|, p!) terms.
    """
    if left.degree != right.degree:
        raise ValueError("degree mismatch")
    terms = min(len(left.nums) * len(right.nums), factorial(left.degree))
    refuse_numerators("multiplied", left._bits + right._bits, terms)
    refuse_denominators("multiplied", (left.den, right.den), terms)
    # at degree 1 itemgetter(*tau) would return a point, not a tuple
    young = left.young_sum if left.degree > 1 else None
    acc: dict[tuple[int, ...], int] = {}
    if young is None:
        for sigma, a in left.nums.items():
            look = ((0,) + sigma).__getitem__  # look(j) = sigma(j)
            for tau, b in right.nums.items():
                key = tuple(map(look, tau))
                acc[key] = acc.get(key, 0) + a * b
    else:
        a, blocks = young
        block_of = {x: k for k, block in enumerate(blocks) for x in block}
        cosets: dict[tuple[int, ...], list] = {}  # block pattern -> [tau, sum]
        for tau, b in right.nums.items():
            cosets.setdefault(itemgetter(*tau)(block_of), [tau, 0])[1] += b
        padded = [(0,) + h for h in left.nums]  # (h * tau)(j) = padded[tau(j)]
        for tau, total in cosets.values():
            if total:  # distinct cosets, and distinct h in one, give distinct products
                for g in map(itemgetter(*tau), padded):
                    acc[g] = a * total
    return AlgebraElement._from_ints(left.degree, acc, left.den * right.den)


def young_blocks(group: frozenset) -> tuple[tuple[int, ...], ...] | None:
    """The blocks B, sorted, when a set of image tuples is exactly the Young subgroup S_B.

    Each point's images form its block.  When every point lies in its own block
    and the blocks partition the points, the set lies in S_B, and it is S_B
    exactly when it has prod |B_k|! members; any other set gives None.
    """
    images = [frozenset(column) for column in zip(*group)]
    blocks = set(images)
    partition = sum(map(len, blocks)) == len(images) and all(x in b for x, b in enumerate(images, 1))
    if not partition or prod(factorial(len(b)) for b in blocks) != len(group):
        return None
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@lru_cache(maxsize=None)
def _young_subgroup(ground_size: int, blocks: tuple) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the permutations of 1..ground_size mapping each block to itself.

    Every group enumeration comes here, so MAX_GROUP_DEGREE is checked before
    the first image tuple is built.
    """
    if ground_size > MAX_GROUP_DEGREE:
        raise SizeGuardError(
            f"groups are enumerated to degree {MAX_GROUP_DEGREE}, got {ground_size}"
        )
    out = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = list(range(1, ground_size + 1))
        for block, targets in zip(blocks, choice):
            for source, target in zip(block, targets):
                images[source - 1] = target
        out.append(tuple(images))
    return tuple(out)


@lru_cache(maxsize=None)
def _positive_fields(ground_size: int, blocks: tuple) -> dict:
    """A positive element's fields: a shared read-only support; _bits 1, young_sum (1, blocks) preset."""
    nums = MappingProxyType(dict.fromkeys(_young_subgroup(ground_size, blocks), 1))
    return {"degree": ground_size, "den": 1, "nums": nums, "_bits": 1, "young_sum": (1, blocks)}


def positive_element(pi: SetPartition) -> AlgebraElement:
    """Sum of all permutations whose cycle partition refines pi.

    Those are exactly the permutations moving each block of pi within itself,
    so the support is the product of the per-block symmetric groups.
    """
    element = object.__new__(AlgebraElement)
    vars(element).update(_positive_fields(pi.ground_size, pi.blocks))
    return element


def _row_major_tableau(lam: Partition) -> tuple[SetPartition, SetPartition]:
    """The rows and the columns of the row-major filling of lam."""
    rows, start = [], 1
    for length in lam.parts:
        rows.append(range(start, start + length))
        start += length
    columns = [[x for x in col if x is not None] for col in itertools.zip_longest(*rows)]
    return SetPartition(rows), SetPartition(columns)


def young_symmetrizer(lam: Partition) -> AlgebraElement:
    """Product (row sum) * (signed column sum) for the row-major filling of lam.

    The row sum is the positive element of the rows' set partition; the column
    sum runs over the Young subgroup of the columns, each permutation weighted
    by its sign.  Squares to (p! / f) times itself, f = character(lam, (1,) * p)
    the number of standard tableaux of shape lam.
    """
    rows, columns = _row_major_tableau(lam)
    signed = {g: Permutation(g).sign for g in _young_subgroup(lam.weight, columns.blocks)}
    return positive_element(rows) * AlgebraElement._from_ints(lam.weight, signed, 1)


@lru_cache(maxsize=None)
def isotypic_projector(lam: Partition) -> tuple[AlgebraElement, Fraction]:
    """Idempotent projector onto the lam-isotypic block, with its normalizer.

    z = sum over sigma of (f * chi(sigma) / p!) * sigma, built as integer
    numerators over p!, with chi the character of lam and f = chi(1).  The
    normalizer (p! / f)^2 is the factor by which the central sum of the Young
    symmetrizer's conjugates exceeds z.  One O(p!) integer check: z * z has
    identity coefficient sum z(sigma)^2 (characters are real), which is
    z(1) = f^2 / p! exactly when <chi, chi> = 1.
    """
    p = lam.weight
    if p > MAX_PROJECTOR_DEGREE:
        raise SizeGuardError(
            f"isotypic_projector supports weight <= {MAX_PROJECTOR_DEGREE}, got {p}"
        )
    f = character(lam, (1,) * p)
    nums = {
        sigma.images: f * character(lam, tuple(map(len, sigma.cycles())))
        for sigma in all_permutations(p)
    }
    if sum(v * v for v in nums.values()) != f * f * factorial(p):
        raise InternalConsistencyError(f"the character of {lam} is not irreducible")
    return AlgebraElement._from_ints(p, nums, factorial(p)), Fraction(factorial(p), f) ** 2

"""Permutations of {1, ..., p} and their rational group algebra.

Composition convention, fixed globally: ``(s * t)(i) = s(t(i))`` — the right
factor acts first.  Every symmetrizer and every tensor action in the package
derives from this single choice.

The row/column subgroups of a Young diagram use the row-major filling: boxes
numbered consecutively left to right, top to bottom.

An AlgebraElement holds integer numerators over one denominator, as a Tensor
does, and multiply works on those integers; scalars are Fractions at the API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InternalConsistencyError, SizeGuardError
from .partitions import Partition, SetPartition, as_int_tuple, character
from .rational import as_fraction, common_denominator

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

    def inverse(self) -> Permutation:
        images = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Permutation(images)

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

    def cycle_partition(self) -> SetPartition:
        """The set partition of {1..p} into orbits."""
        return SetPartition(self.cycles())

    @property
    def sign(self) -> int:
        """Parity: (-1) ** (degree - number of cycles)."""
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.images) + "]"


def all_permutations(degree: int) -> list[Permutation]:
    """The whole symmetric group on 1..degree, images in lexicographic order."""
    return _block_stabilizer(degree, [tuple(range(1, degree + 1))])


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
        nums, den = common_denominator([as_fraction(c) for c in terms.values()])
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

    @classmethod
    def from_permutation(cls, perm: Permutation, coeff=1) -> AlgebraElement:
        return cls(perm.degree, {perm: coeff})

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self.nums.get(perm.images, 0), self.den)

    @cached_property
    def terms(self) -> tuple[tuple[Permutation, Fraction], ...]:
        """The (Permutation, Fraction) pairs, sorted by image tuple."""
        return tuple((Permutation(k), Fraction(v, self.den)) for k, v in sorted(self.nums.items()))

    @property
    def support_size(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
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
        scalar = as_fraction(scalar)
        nums = {k: scalar.numerator * v for k, v in self.nums.items()}
        return AlgebraElement._from_ints(self.degree, nums, scalar.denominator * self.den)

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

    The right factor's image tuples are grouped by numerator, so each (sigma,
    group) pair costs one integer multiply.  sigma * tau is composed on the
    image tuples, permutations by construction, and its numerator accumulated
    by tuple over the product of the two denominators.
    """
    if left.degree != right.degree:
        raise ValueError("degree mismatch")
    groups: dict[int, list[tuple[int, ...]]] = {}
    for tau, b in right.nums.items():
        groups.setdefault(b, []).append(tau)
    acc: dict[tuple[int, ...], int] = {}
    for sigma, a in left.nums.items():
        # look(j) = sigma(j); the leading 0 makes the 1-based images index directly
        look = ((0,) + sigma).__getitem__
        for b, taus in groups.items():
            c = a * b
            for images in taus:
                key = tuple(map(look, images))
                acc[key] = acc.get(key, 0) + c
    return AlgebraElement._from_ints(left.degree, acc, left.den * right.den)


def _row_major_rows(lam: Partition) -> list[tuple[int, ...]]:
    rows = []
    start = 1
    for length in lam.parts:
        rows.append(tuple(range(start, start + length)))
        start += length
    return rows


def _row_major_columns(lam: Partition) -> list[tuple[int, ...]]:
    rows = _row_major_rows(lam)
    width = lam.parts[0] if lam.parts else 0
    return [
        tuple(row[j] for row in rows if len(row) > j) for j in range(width)
    ]


def _block_stabilizer(degree: int, blocks: list[tuple[int, ...]]) -> list[Permutation]:
    """All permutations of 1..degree mapping each listed block to itself.

    Every group enumeration comes here, so MAX_GROUP_DEGREE is checked before
    the first permutation is built.
    """
    if degree > MAX_GROUP_DEGREE:
        raise SizeGuardError(
            f"groups are enumerated to degree {MAX_GROUP_DEGREE}, got {degree}"
        )
    out = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = list(range(1, degree + 1))
        for block, perm_of_block in zip(blocks, choice):
            for source, target in zip(block, perm_of_block):
                images[source - 1] = target
        out.append(Permutation(images))
    return out


def row_group(lam: Partition) -> list[Permutation]:
    """Permutations preserving each row of the row-major filling of lam."""
    return _block_stabilizer(lam.weight, _row_major_rows(lam))


def column_group(lam: Partition) -> list[Permutation]:
    """Permutations preserving each column of the row-major filling of lam."""
    return _block_stabilizer(lam.weight, _row_major_columns(lam))


@lru_cache(maxsize=None)
def row_symmetrizer(lam: Partition) -> AlgebraElement:
    """Sum of the row group, all coefficients +1."""
    return AlgebraElement(lam.weight, dict.fromkeys(row_group(lam), 1))


@lru_cache(maxsize=None)
def column_antisymmetrizer(lam: Partition) -> AlgebraElement:
    """Signed sum of the column group."""
    return AlgebraElement(lam.weight, {p: p.sign for p in column_group(lam)})


@lru_cache(maxsize=None)
def young_symmetrizer(lam: Partition) -> AlgebraElement:
    """Product (row symmetrizer) * (column antisymmetrizer) for lam.

    Squares to (p! / f) times itself, f = character(lam, (1,) * p) the number
    of standard tableaux of shape lam.
    """
    return row_symmetrizer(lam) * column_antisymmetrizer(lam)


@lru_cache(maxsize=None)
def _young_subgroup(ground_size: int, blocks: tuple) -> tuple[tuple[int, ...], ...]:
    return tuple(g.images for g in _block_stabilizer(ground_size, list(blocks)))


def positive_element(pi: SetPartition) -> AlgebraElement:
    """Sum of all permutations whose cycle partition refines pi.

    Those are exactly the permutations moving each block of pi within itself,
    so the support is the product of the per-block symmetric groups.
    """
    support = _young_subgroup(pi.ground_size, pi.blocks)
    return AlgebraElement._from_ints(pi.ground_size, dict.fromkeys(support, 1), 1)


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

"""Permutations of {1, ..., p} and their rational group algebra.

Composition convention, fixed globally: ``(s * t)(i) = s(t(i))`` — the right
factor acts first.  Every symmetrizer and every tensor action in the package
derives from this single choice.

The row/column subgroups of a Young diagram use the row-major filling: boxes
numbered consecutively left to right, top to bottom.

Scalars are exact Fractions at the API; the inner loop of multiply runs on
integer numerators over one common denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator

from .errors import InternalConsistencyError, SizeGuardError
from .partitions import Partition, SetPartition
from .rational import as_fraction, common_denominator

MAX_GROUP_DEGREE = 8
MAX_PROJECTOR_DEGREE = 6


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., p}, stored as the tuple of images of 1, ..., p."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(int(v) for v in images)
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


class AlgebraElement:
    """A finite rational-linear combination of permutations of {1, ..., p}.

    Terms with coefficient zero are never stored, so equality is equality of
    the term maps.  Multiplication is the bilinear extension of composition.
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        clean: dict[Permutation, Fraction] = {}
        for perm, coeff in (terms or {}).items():
            if perm.degree != degree:
                raise ValueError("term degree mismatch")
            coeff = as_fraction(coeff)
            if coeff:
                clean[perm] = coeff
        self._terms = clean

    @classmethod
    def unit(cls, degree: int) -> AlgebraElement:
        return cls(degree, {Permutation.identity(degree): Fraction(1)})

    @classmethod
    def from_permutation(cls, perm: Permutation, coeff=1) -> AlgebraElement:
        return cls(perm.degree, {perm: as_fraction(coeff)})

    def coefficient(self, perm: Permutation) -> Fraction:
        return self._terms.get(perm, Fraction(0))

    def terms(self) -> Iterator[tuple[Permutation, Fraction]]:
        return iter(self._terms.items())

    @property
    def support_size(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        terms = dict(self._terms)
        for perm, coeff in other._terms.items():
            terms[perm] = terms.get(perm, Fraction(0)) + coeff
        return AlgebraElement(self.degree, terms)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.degree, {p: -c for p, c in self._terms.items()})

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, scalar) -> AlgebraElement:
        scalar = as_fraction(scalar)
        return AlgebraElement(
            self.degree, {p: scalar * c for p, c in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> AlgebraElement:
        return self.scale(scalar)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.degree == other.degree
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = [f"{c}*{p}" for p, c in sorted(self._terms.items(), key=lambda t: t[0].images)]
        return " + ".join(bits)

    def to_json_obj(self) -> list[dict]:
        return [
            {"perm": list(perm.images), "coeff": str(coeff)}
            for perm, coeff in sorted(self._terms.items(), key=lambda t: t[0].images)
        ]

    @staticmethod
    def from_json_obj(obj, degree: int | None = None) -> AlgebraElement:
        terms: dict[Permutation, Fraction] = {}
        for item in obj:
            perm = Permutation(item["perm"])
            terms[perm] = terms.get(perm, Fraction(0)) + as_fraction(item["coeff"])
            degree = perm.degree if degree is None else degree
        if degree is None:
            raise ValueError("cannot infer degree of an empty element")
        return AlgebraElement(degree, terms)


def multiply(left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """Group algebra product: bilinear extension of composition.

    Both factors' coefficients become integer numerators over one common
    denominator each, and the right factor's terms are grouped by numerator,
    so each (sigma, group) pair costs one integer multiply.  sigma * tau is
    composed on the bare image tuples and its numerator accumulated in a dict
    keyed by those tuples; each distinct product then becomes one validated
    Permutation and one Fraction, and sums that cancel to zero are dropped.
    """
    if left.degree != right.degree:
        raise ValueError("degree mismatch")
    left_nums, left_den = common_denominator([a for _, a in left.terms()])
    right_nums, right_den = common_denominator([b for _, b in right.terms()])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for (tau, _), b in zip(right.terms(), right_nums):
        groups.setdefault(b, []).append(tau.images)
    acc: dict[tuple[int, ...], int] = {}
    for (sigma, _), a in zip(left.terms(), left_nums):
        # look(j) = sigma(j); the leading 0 makes the 1-based images index directly
        look = ((0,) + sigma.images).__getitem__
        for b, taus in groups.items():
            c = a * b
            for images in taus:
                key = tuple(map(look, images))
                acc[key] = acc.get(key, 0) + c
    den = left_den * right_den
    return AlgebraElement(left.degree, {
        Permutation(key): Fraction(v, den) for key, v in acc.items() if v
    })


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
    return AlgebraElement(lam.weight, {p: Fraction(1) for p in row_group(lam)})


@lru_cache(maxsize=None)
def column_antisymmetrizer(lam: Partition) -> AlgebraElement:
    """Signed sum of the column group."""
    return AlgebraElement(
        lam.weight, {p: Fraction(p.sign) for p in column_group(lam)}
    )


@lru_cache(maxsize=None)
def young_symmetrizer(lam: Partition) -> AlgebraElement:
    """Product (row symmetrizer) * (column antisymmetrizer) for lam.

    Squares to (p! / standard_tableau_count(lam)) times itself.
    """
    return row_symmetrizer(lam) * column_antisymmetrizer(lam)


def positive_element(pi: SetPartition) -> AlgebraElement:
    """Sum of all permutations whose cycle partition refines pi.

    Those are exactly the permutations moving each block of pi within itself,
    so the support is the product of the per-block symmetric groups.
    """
    support = _block_stabilizer(pi.ground_size, list(pi.blocks))
    return AlgebraElement(pi.ground_size, {perm: Fraction(1) for perm in support})


@lru_cache(maxsize=None)
def isotypic_projector(lam: Partition) -> tuple[AlgebraElement, Fraction]:
    """Idempotent projector onto the lam-isotypic block, with its normalizer.

    The central element z = sum over g of g * c * g^{-1} (c the Young
    symmetrizer) is a class function: its coefficient on sigma is
    (p! / |K|) * m(K), where K is the conjugacy class (cycle type) of sigma
    and the class mass m(K) is the sum of c's coefficients on K.  z is built
    that way, without conjugating.  Then the scalar s with z*z = s*z —
    guaranteed because z is central and supported on a single isotypic
    block — is found and checked, and (z/s, s) returned.
    """
    p = lam.weight
    if p > MAX_PROJECTOR_DEGREE:
        raise SizeGuardError(
            f"isotypic_projector supports weight <= {MAX_PROJECTOR_DEGREE}, got {p}"
        )
    mass: dict[Partition, Fraction] = {}
    for sigma, coeff in young_symmetrizer(lam).terms():
        cycle_type = sigma.cycle_partition().shape()
        mass[cycle_type] = mass.get(cycle_type, 0) + coeff
    classes: dict[Partition, list[Permutation]] = {}
    for g in all_permutations(p):
        classes.setdefault(g.cycle_partition().shape(), []).append(g)
    central = AlgebraElement(p, {
        g: Fraction(mass.get(cycle_type, 0) * factorial(p), len(members))
        for cycle_type, members in classes.items()
        for g in members
    })
    identity = Permutation.identity(p)
    anchor = central.coefficient(identity)
    if not anchor:
        raise InternalConsistencyError("central sum lost its identity coefficient")
    square = central * central
    scale = square.coefficient(identity) / anchor
    if not scale:
        raise InternalConsistencyError("central sum squares to zero")
    if square != central.scale(scale):
        raise InternalConsistencyError("central sum square is not proportional to it")
    return central.scale(1 / scale), scale

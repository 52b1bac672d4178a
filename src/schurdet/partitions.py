"""Young diagrams, set partitions, dominance order, and critical sets.

Two different "partitions" live here and never mix:

* ``Partition`` — an integer partition (a Young diagram): weakly decreasing
  positive parts.
* ``SetPartition`` — a partition of the index set {1, ..., p} into disjoint
  nonempty blocks, kept in a canonical form so equality is structural.

Size guards keep everything exact and fast: enumeration is limited to
weight 12, exhaustive tableau counting to weight 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import SizeGuardError

MAX_ENUMERATION_WEIGHT = 12
MAX_TABLEAU_WEIGHT = 8
MAX_SET_PARTITION_GROUND = 8


@dataclass(frozen=True)
class Partition:
    """A Young diagram: weakly decreasing positive integer parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(v) for v in parts)
        for v in parts:
            if v < 1:
                raise ValueError(f"parts must be positive, got {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), with trailing zeros past the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def conjugate(self) -> Partition:
        """Transpose of the diagram: part i = number of parts >= i+1."""
        if not self.parts:
            return self
        return Partition(
            sum(1 for v in self.parts if v > i) for i in range(self.parts[0])
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.parts) + ")"

    def to_json_obj(self) -> list[int]:
        return list(self.parts)

    @staticmethod
    def from_json_obj(obj) -> Partition:
        return Partition(obj)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., p} into disjoint nonempty blocks.

    Canonical form: elements ascending within each block, blocks ordered by
    their minimum.  Equality and hashing are structural on that form.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = tuple(
            sorted(tuple(sorted(int(x) for x in block)) for block in blocks)
        )
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        p = len(seen)
        if seen != set(range(1, p + 1)):
            raise ValueError(f"blocks must cover 1..{p} exactly, got {sorted(seen)}")
        object.__setattr__(self, "blocks", canon)

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def shape(self) -> Partition:
        """Block sizes in weakly decreasing order."""
        return Partition(sorted((len(b) for b in self.blocks), reverse=True))

    def refines(self, other: SetPartition) -> bool:
        """True iff every block of self sits inside some block of other."""
        if self.ground_size != other.ground_size:
            raise ValueError("set partitions live on different ground sets")
        containing = {}
        for block in other.blocks:
            for x in block:
                containing[x] = block
        return all(
            all(containing[x] is containing[block[0]] for x in block)
            for block in self.blocks
        )

    def __str__(self) -> str:
        return "{" + ", ".join(
            "{" + ",".join(str(x) for x in b) + "}" for b in self.blocks
        ) + "}"

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    @staticmethod
    def from_json_obj(obj) -> SetPartition:
        return SetPartition(obj)


@lru_cache(maxsize=None)
def _all_partitions_cached(weight: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for k in range(min(max_part, remaining), 0, -1):
            rec(remaining - k, k, prefix + (k,))

    rec(weight, weight, ())
    return tuple(out)


def all_partitions(weight: int) -> list[Partition]:
    """Every partition of `weight`, in reverse-lexicographic order."""
    if not 1 <= weight <= MAX_ENUMERATION_WEIGHT:
        raise SizeGuardError(
            f"partition enumeration supports 1 <= weight <= {MAX_ENUMERATION_WEIGHT}, got {weight}"
        )
    return list(_all_partitions_cached(weight))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order: equal weights and every prefix sum of lam <= that of mu.

    Shorter partitions are padded with trailing zeros.  Unequal weights simply
    compare as False.
    """
    if lam.weight != mu.weight:
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam.part(i)
        b += mu.part(i)
        if a > b:
            return False
    return True


@lru_cache(maxsize=None)
def critical_set(lam: Partition) -> frozenset[Partition]:
    """Dominance-minimal partitions outside the down-set of lam.

    Computed from the definition by exhaustive scan over all partitions of the
    weight: form the down-set D = {mu : mu <= lam}, take the complement, and
    keep its minimal elements.
    """
    weight = lam.weight
    if weight > MAX_ENUMERATION_WEIGHT:
        raise SizeGuardError(
            f"critical_set supports weight <= {MAX_ENUMERATION_WEIGHT}, got {weight}"
        )
    outside = [mu for mu in all_partitions(weight) if not dominance_leq(mu, lam)]
    return frozenset(
        mu
        for mu in outside
        if not any(nu != mu and dominance_leq(nu, mu) for nu in outside)
    )


@lru_cache(maxsize=None)
def standard_tableau_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by exhaustive enumeration.

    Places the values 1..p one at a time; a value may go at the end of row i
    whenever the row has space and the row above is strictly longer so far,
    which is exactly the rows-and-columns-increasing condition.  This is also
    the dimension of the irreducible symmetric-group module for lam.
    """
    if lam.weight > MAX_TABLEAU_WEIGHT:
        raise SizeGuardError(
            f"standard_tableau_count supports weight <= {MAX_TABLEAU_WEIGHT}, got {lam.weight}"
        )
    row_lengths = lam.parts
    filled = [0] * len(row_lengths)

    def place(value: int) -> int:
        if value > lam.weight:
            return 1
        total = 0
        for i, length in enumerate(row_lengths):
            if filled[i] < length and (i == 0 or filled[i] < filled[i - 1]):
                filled[i] += 1
                total += place(value + 1)
                filled[i] -= 1
        return total

    return place(1)


def is_exceptional(lam: Partition) -> bool:
    """True iff lam is a single row (p) or a hook (p-1, 1).

    These are the only shapes whose components can carry a nonzero
    hyperdeterminant; every other shape has a second part >= 2 or a third row.
    """
    if lam.weight < 2:
        raise ValueError("is_exceptional needs weight >= 2")
    p = lam.weight
    return lam.parts == (p,) or lam.parts == (p - 1, 1)


@lru_cache(maxsize=None)
def all_set_partitions(ground_size: int) -> tuple[SetPartition, ...]:
    """Every set partition of {1, ..., ground_size} (Bell-number many)."""
    if not 1 <= ground_size <= MAX_SET_PARTITION_GROUND:
        raise SizeGuardError(
            f"set-partition enumeration supports 1 <= p <= {MAX_SET_PARTITION_GROUND}, got {ground_size}"
        )
    results: list[SetPartition] = []
    blocks: list[list[int]] = []

    def place(value: int) -> None:
        if value > ground_size:
            results.append(SetPartition(tuple(b) for b in blocks))
            return
        for block in blocks:
            block.append(value)
            place(value + 1)
            block.pop()
        blocks.append([value])
        place(value + 1)
        blocks.pop()

    place(1)
    return tuple(results)

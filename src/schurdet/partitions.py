"""Young diagrams and their characters, set partitions, dominance order, and
critical sets.

Two different "partitions" live here and never mix:

* ``Partition`` — an integer partition (a Young diagram): weakly decreasing
  positive parts.
* ``SetPartition`` — a partition of the index set {1, ..., p} into disjoint
  nonempty blocks, kept in a canonical form so equality is structural.

The number f^lam of standard tableaux is the character at the identity,
``character(lam, (1,) * p)``.  Size guards keep everything exact and fast:
enumeration and characters stop at weight 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import SizeGuardError

MAX_ENUMERATION_WEIGHT = 12
MAX_SET_PARTITION_GROUND = 8


def as_int_tuple(values: Iterable) -> tuple[int, ...]:
    """The values as a tuple; TypeError unless each is an int (not a bool)."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise TypeError(f"not all integers: {values!r}")
    return values


@dataclass(frozen=True)
class Partition:
    """A Young diagram: weakly decreasing positive integer parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = as_int_tuple(parts)
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

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.parts) + ")"

    def to_json_obj(self) -> list[int]:
        return list(self.parts)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., p} into disjoint nonempty blocks.

    Canonical form: elements ascending within each block, blocks ordered by
    their minimum.  Equality and hashing are structural on that form.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = tuple(sorted(tuple(sorted(as_int_tuple(block))) for block in blocks))
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
        """Block sizes in weakly decreasing order; built once, outside the compared fields."""
        if "_shape" not in vars(self):
            vars(self)["_shape"] = Partition(sorted(map(len, self.blocks), reverse=True))
        return vars(self)["_shape"]

    def __str__(self) -> str:
        return "{" + ", ".join(
            "{" + ",".join(str(x) for x in b) + "}" for b in self.blocks
        ) + "}"

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def all_partitions(weight: int) -> list[Partition]:
    """Every partition of `weight`, in reverse-lexicographic order."""
    if not 1 <= weight <= MAX_ENUMERATION_WEIGHT:
        raise SizeGuardError(
            f"partition enumeration supports 1 <= weight <= {MAX_ENUMERATION_WEIGHT}, got {weight}"
        )
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for k in range(min(max_part, remaining), 0, -1):
            rec(remaining - k, k, prefix + (k,))

    rec(weight, weight, ())
    return out


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order: equal weights and every prefix sum of lam <= that of mu.

    Shorter partitions are padded with trailing zeros.  Unequal weights simply
    compare as False.
    """
    if lam.weight != mu.weight:
        return False
    a = b = 0
    for i in range(max(lam.rows, mu.rows)):
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
    outside = [mu for mu in all_partitions(lam.weight) if not dominance_leq(mu, lam)]
    return frozenset(
        mu
        for mu in outside
        if not any(nu != mu and dominance_leq(nu, mu) for nu in outside)
    )


@lru_cache(maxsize=None)
def character(lam: Partition, cycle_type: tuple[int, ...]) -> int:
    """The irreducible character of lam at a permutation of the given cycle type.

    Murnaghan-Nakayama on the beta-numbers b_i = lam_i + rows - 1 - i:
    removing a border strip of length r moves one b to the free slot b - r,
    with sign (-1) to the number of beta-numbers it jumps over.  The cycle
    lengths are removed in the order given; the value does not depend on it.
    """
    if lam.weight > MAX_ENUMERATION_WEIGHT:
        raise SizeGuardError(
            f"character supports weight <= {MAX_ENUMERATION_WEIGHT}, got {lam.weight}"
        )
    if any(r < 1 for r in cycle_type) or sum(cycle_type) != lam.weight:
        raise ValueError(f"{cycle_type} is not a cycle type of weight {lam.weight}")
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    top = lam.rows - 1
    beta = [v + top - i for i, v in enumerate(lam.parts)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        moved = sorted((b - r if c == b else c for c in beta), reverse=True)
        smaller = Partition(v for v in (c - top + i for i, c in enumerate(moved)) if v)
        jumped = sum(1 for c in beta if b - r < c < b)
        total += (-1) ** jumped * character(smaller, rest)
    return total


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

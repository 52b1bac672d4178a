"""Independent routes for every answer the benchmark checks.

Nothing here imports schurdet.  Each function computes an expected answer by
a route the library does not take: the isotypic projection from characters
(Murnaghan-Nakayama) instead of conjugated Young symmetrizers, ranks from the
hook-length and hook-content formulas instead of elimination, the 2x2x2
invariant from Cayley's expanded quartic instead of the Schlafli pencil, and
the Pfaffian from the perfect-matching sum.  Inputs are plain ints and tuples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

MASK64 = (1 << 64) - 1


class Stream:
    """SplitMix64, written from the package README's specification."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.u64()
            if u < limit:
                return u % bound

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def derive(seed: int, index: int) -> int:
    """The (index+1)-th raw output of the stream seeded with `seed`."""
    stream = Stream(seed)
    for _ in range(index):
        stream.u64()
    return stream.u64()


def seeded_entries(count: int, seed: int) -> list[int]:
    stream = Stream(seed)
    return [stream.between(-9, 9) for _ in range(count)]


def seeded_vector(dim: int, seed: int, nonzero: bool) -> list[int]:
    stream = Stream(seed)
    for _ in range(64):
        vec = [stream.between(-9, 9) for _ in range(dim)]
        if not nonzero or any(vec):
            return vec
    raise RuntimeError("no nonzero vector in 64 draws")


# ---------------------------------------------------------------- partitions


def partitions(weight: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of `weight` in reverse-lexicographic order."""
    largest = weight if largest is None else largest
    if weight == 0:
        return [()]
    return [
        (k,) + rest
        for k in range(min(weight, largest), 0, -1)
        for rest in partitions(weight - k, k)
    ]


def set_partitions(points: list[int]) -> list[list[tuple[int, ...]]]:
    """Set partitions of `points`, each a list of blocks."""
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    out = []
    for smaller in set_partitions(rest):
        out.append([(first,)] + smaller)
        for i, block in enumerate(smaller):
            out.append(smaller[:i] + [(first,) + block] + smaller[i + 1 :])
    return out


def dominated(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """mu <= lam in dominance order (equal weights assumed)."""
    a = b = 0
    for i in range(max(len(mu), len(lam))):
        a += mu[i] if i < len(mu) else 0
        b += lam[i] if i < len(lam) else 0
        if a > b:
            return False
    return True


def critical_shapes(lam: tuple[int, ...]) -> set[tuple[int, ...]]:
    outside = [mu for mu in partitions(sum(lam)) if not dominated(mu, lam)]
    return {
        mu for mu in outside if not any(nu != mu and dominated(nu, mu) for nu in outside)
    }


def is_exceptional(lam: tuple[int, ...]) -> bool:
    return len(lam) == 1 or (len(lam) == 2 and lam[1] == 1)


def _hooks_and_contents(lam: tuple[int, ...]):
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    for i, row in enumerate(lam):
        for j in range(row):
            yield (row - j) + (conj[j] - i) - 1, j - i


def tableau_count(lam: tuple[int, ...]) -> int:
    """f^lam by the hook-length formula."""
    hooks = math.prod(h for h, _ in _hooks_and_contents(lam))
    return math.factorial(sum(lam)) // hooks


def isotypic_dimension(lam: tuple[int, ...], n: int) -> int:
    """f^lam * s_lam(1^n): hook-length times hook-content formula."""
    value = Fraction(tableau_count(lam))
    for hook, content in _hooks_and_contents(lam):
        value *= Fraction(n + content, hook)
    return int(value)


def character(lam: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """chi^lam on the class `cycle_type`, by Murnaghan-Nakayama on beta-sets."""
    if not cycle_type:
        return 1 if not lam else 0
    r, rest = cycle_type[0], cycle_type[1:]
    length = len(lam)
    beta = [lam[i] + length - 1 - i for i in range(length)]
    total = 0
    for b in beta:
        moved = b - r
        if moved < 0 or moved in beta:
            continue
        sign = -1 if sum(1 for c in beta if moved < c < b) % 2 else 1
        new_beta = sorted((moved if c == b else c for c in beta), reverse=True)
        smaller = tuple(
            part
            for part in (new_beta[i] - (length - 1 - i) for i in range(length))
            if part > 0
        )
        total += sign * character(smaller, rest)
    return total


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = perm[point]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


# -------------------------------------------------------- order-p tensors, n^p


class TensorSpace:
    """Index bookkeeping for dense order-p tensors over {0..n-1}, first index slowest."""

    def __init__(self, order: int, dim: int):
        self.order, self.dim = order, dim
        self.indices = list(itertools.product(range(dim), repeat=order))
        flat = {idx: f for f, idx in enumerate(self.indices)}
        self.classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for perm in itertools.permutations(range(order)):
            table = tuple(flat[tuple(idx[perm[k]] for k in range(order))] for idx in self.indices)
            self.classes.setdefault(cycle_type(perm), []).append(table)

    def isotypic_sum(self, lam: tuple[int, ...], entries: list[int]) -> list[int]:
        """sum over sigma of chi^lam(sigma) (sigma . T); the projection times p!/f^lam."""
        out = [0] * len(entries)
        for ctype, tables in self.classes.items():
            chi = character(lam, ctype)
            if not chi:
                continue
            for table in tables:
                for f, s in enumerate(table):
                    out[f] += chi * entries[s]
        return out

    def slice_at(self, entries, vectors, slot: int) -> list:
        """Covector left when every slot but `slot` (0-based) is paired with its vector."""
        out = [0] * self.dim
        for idx, value in zip(self.indices, entries):
            if value:
                weight = value
                for k, i in enumerate(idx):
                    if k != slot:
                        weight *= vectors[k][i]
                out[idx[slot]] += weight
        return out

    def value_at(self, entries, vectors):
        total = 0
        for idx, value in zip(self.indices, entries):
            if value:
                for k, i in enumerate(idx):
                    value *= vectors[k][i]
                total += value
        return total


def expected_sweep_report(
    space: TensorSpace, lam: tuple[int, ...], seed: int
) -> dict:
    """The JSON report of a one-trial degeneracy_sweep(lam, n, 1, seed), rebuilt.

    Regenerates the trial's tensor and vectors from the stream specification,
    projects by characters, and re-runs the three vanishing checks.  The
    positive equations of critical shapes vanish on every lam-component (for
    (p) the critical set is empty, for (p-1, 1) it is the full symmetrizer),
    so no critical-equation failure is ever expected.
    """
    p, n = space.order, space.dim
    trial_seed = derive(seed, 0)
    tensor = seeded_entries(n**p, derive(trial_seed, 0))
    x = seeded_vector(n, derive(trial_seed, 1), nonzero=True)
    y = seeded_vector(n, derive(trial_seed, 2), nonzero=False)
    summed = space.isotypic_sum(lam, tensor)
    scale = Fraction(tableau_count(lam), math.factorial(p))
    failures = []
    witnesses = 1
    for slot in range(p):
        covector = space.slice_at(summed, [x] * p, slot)
        nonzero = [c for c, v in enumerate(covector) if v]
        if nonzero:
            failures.append((trial_seed, "diagonal-kernel", slot + 1, f"component {nonzero[0]}"))
            witnesses = 0
            break
    for slot in range(p):
        vectors = [x] * p
        vectors[slot] = y
        value = space.value_at(summed, vectors) * scale
        if value:
            failures.append((trial_seed, "substitution", slot + 1, f"value {value}"))
    if not is_exceptional(lam) and failures:
        raise AssertionError(f"independent route contradicts the theorem for {lam}")
    return {
        "lambda": list(lam),
        "n": n,
        "trials": 1,
        "witnesses_found": witnesses,
        "verdict": "fail" if failures else "pass",
        "failures": [
            {"seed": s, "check": c, "slot": k, "detail": d} for s, c, k, d in failures
        ],
    }


# --------------------------------------------------------------- 2 x 2 x 2


PROBES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))


def cayley_hyperdet(a: list[int]) -> int:
    """Cayley's expanded quartic on flat entries a[4i + 2j + k]."""
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    return (
        a000**2 * a111**2
        + a001**2 * a110**2
        + a010**2 * a101**2
        + a100**2 * a011**2
        - 2
        * (
            a000 * a001 * a110 * a111
            + a000 * a010 * a101 * a111
            + a000 * a100 * a011 * a111
            + a001 * a010 * a101 * a110
            + a001 * a100 * a011 * a110
            + a010 * a100 * a011 * a101
        )
        + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111)
    )


def kills_all_slices(a: list[int], x, y, z) -> bool:
    def at(i, j, k):
        return a[4 * i + 2 * j + k]

    r = range(2)
    return (
        all(sum(at(i, j, k) * y[j] * z[k] for j in r for k in r) == 0 for i in r)
        and all(sum(at(i, j, k) * x[i] * z[k] for i in r for k in r) == 0 for j in r)
        and all(sum(at(i, j, k) * x[i] * y[j] for i in r for j in r) == 0 for k in r)
    )


def first_grid_witness(a: list[int]):
    """The first probe triple, in the library's search order, that is in the kernel."""
    for triple in itertools.product(PROBES, repeat=3):
        if kills_all_slices(a, *triple):
            return triple
    return None


def _matchings(points: list[int]):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for pos, partner in enumerate(rest):
        for tail in _matchings(rest[:pos] + rest[pos + 1 :]):
            yield [(first, partner)] + tail


def pfaffian(m: list[list[int]]) -> int:
    """Sum over perfect matchings of (-1)^crossings times the matched entries."""
    total = 0
    for matching in _matchings(list(range(len(m)))):
        crossings = sum(
            1 for (i, j), (k, l) in itertools.combinations(matching, 2) if i < k < j < l or k < i < l < j
        )
        total += (-1) ** crossings * math.prod(m[i][j] for i, j in matching)
    return total

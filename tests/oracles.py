"""Independent oracles used to cross-check library results.

Each of these computes a value by a route the library deliberately does not
use: closed-form counting formulas, the fully expanded quartic invariant,
plain Fraction loops over multi-indices for the slot action, contraction and
slicing, and over term pairs for the group algebra product (the library runs
those on integer numerators over one denominator, with coset sums for Young
subgroups), the isotypic projector from the Young symmetrizer, by explicit
conjugation and by class masses (the library builds it from characters), rank
and determinant by Fraction Gaussian elimination (the library eliminates
fraction-free on integers), the isotypic rank from one dense matrix (the
library splits it by weight space), the Pfaffian by Fraction expansion over
copied minors, the 2x2x2 kernel probe search over KernelWitness candidates and
slot slices, and the Schläfli coefficients from Fraction 2 x 2 determinants of
the first-index pencil (the library runs all three on integers; the pencil
route lives only here), and SplitMix64 written from its specification (the
library batches its draws).
Agreement with the library is then a genuine two-route check.
"""

import itertools
import math
from fractions import Fraction

from schurdet import KernelWitness, Partition, Tensor, as_fraction, kernel_failure
from schurdet.perm_algebra import AlgebraElement, all_permutations, young_symmetrizer


def hook_length_count(lam: Partition) -> int:
    """Standard tableau count through the hook length product formula."""
    parts = lam.parts
    conj = lam.conjugate().parts
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return math.factorial(lam.weight) // prod


def ssyt_count(lam: Partition, dim: int) -> int:
    """Semistandard tableaux of shape lam with entries in 1..dim, by brute force.

    Rows weakly increase left to right, columns strictly increase downward.
    """
    parts = lam.parts
    if not parts:
        return 1
    rows: list[list[int]] = []

    def fill(row_index: int) -> int:
        if row_index == len(parts):
            return 1
        length = parts[row_index]
        total = 0
        for values in itertools.combinations_with_replacement(range(1, dim + 1), length):
            if row_index > 0 and any(
                values[j] <= rows[row_index - 1][j] for j in range(length)
            ):
                continue
            rows.append(list(values))
            total += fill(row_index + 1)
            rows.pop()
        return total

    return fill(0)


def expanded_quartic_invariant(tensor: Tensor) -> Fraction:
    """The 2x2x2 invariant as the classical fully expanded degree-4 polynomial."""
    a = {idx: tensor.entry(idx) for idx in itertools.product(range(2), repeat=3)}
    value = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[0, 1, 1] ** 2 * a[1, 0, 0] ** 2
    )
    value -= 2 * (
        a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 1] * a[1, 1, 0] * a[1, 0, 0]
        + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 0, 0]
    )
    value += 4 * (
        a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1]
    )
    return value


def _indices(tensor: Tensor):
    return itertools.product(range(tensor.dim), repeat=tensor.order)


def reference_algebra_action(element: AlgebraElement, tensor: Tensor) -> Tensor:
    """sum_sigma c_sigma (sigma . A), from (sigma . A)_i = A_{i_sigma(1) ... i_sigma(p)}."""
    out = {}
    terms = list(element.terms)
    for idx in _indices(tensor):
        total = Fraction(0)
        for perm, coeff in terms:
            source = tuple(idx[perm(k) - 1] for k in range(1, tensor.order + 1))
            total += coeff * tensor.entry(source)
        out[idx] = total
    return Tensor.from_map(tensor.order, tensor.dim, out)


def reference_contract_first(tensor: Tensor, vector) -> Tensor | Fraction:
    """B_{i_2 ... i_p} = sum_d v_d A_{d i_2 ... i_p}; a scalar when p = 1."""
    vec = [Fraction(v) for v in vector]
    if tensor.order == 1:
        return sum((w * tensor.entry((d,)) for d, w in enumerate(vec)), Fraction(0))
    out = {}
    for rest in itertools.product(range(tensor.dim), repeat=tensor.order - 1):
        out[rest] = sum(
            (w * tensor.entry((d,) + rest) for d, w in enumerate(vec)), Fraction(0)
        )
    return Tensor.from_map(tensor.order - 1, tensor.dim, out)


def reference_evaluate(tensor: Tensor, vectors) -> Fraction:
    """A(x^1, ..., x^p) = sum_i A_i x^1_{i_1} ... x^p_{i_p}."""
    total = Fraction(0)
    for idx in _indices(tensor):
        term = tensor.entry(idx)
        for vec, i in zip(vectors, idx):
            term *= Fraction(vec[i])
        total += term
    return total


def reference_slot_slice(tensor: Tensor, vectors, slot: int) -> tuple[Fraction, ...]:
    """c_k = sum over i with i_slot = k of A_i times x^j_{i_j} for every j != slot."""
    out = [Fraction(0)] * tensor.dim
    for idx in _indices(tensor):
        term = tensor.entry(idx)
        for j, (vec, i) in enumerate(zip(vectors, idx), start=1):
            if j != slot:
                term *= Fraction(vec[i])
        out[idx[slot - 1]] += term
    return tuple(out)


def reference_central_sum(lam: Partition) -> AlgebraElement:
    """sum over g in S_p of g * c * g^{-1}, c the Young symmetrizer of lam."""
    terms: dict = {}
    c = list(young_symmetrizer(lam).terms)
    for g in all_permutations(lam.weight):
        g_inv = g.inverse()
        for sigma, coeff in c:
            conj = g * sigma * g_inv
            terms[conj] = terms.get(conj, Fraction(0)) + coeff
    return AlgebraElement(lam.weight, terms)


def reference_class_mass_projector(lam: Partition) -> AlgebraElement:
    """The isotypic projector from Young-symmetrizer class masses.

    The central sum of the Young symmetrizer c's conjugates is a class
    function: its coefficient on sigma is (p! / |K|) * m(K), with K the
    conjugacy class (cycle type) of sigma and m(K) the sum of c's coefficients
    on K.  Divided by (p! / f)^2, f from the hook length formula, it is the
    projector.
    """
    p = lam.weight
    mass: dict = {}
    for sigma, coeff in young_symmetrizer(lam).terms:
        cycle_type = sigma.cycle_partition().shape()
        mass[cycle_type] = mass.get(cycle_type, 0) + coeff
    classes: dict = {}
    for g in all_permutations(p):
        classes.setdefault(g.cycle_partition().shape(), []).append(g)
    scale = Fraction(math.factorial(p), hook_length_count(lam)) ** 2
    return AlgebraElement(p, {
        g: mass.get(cycle_type, 0) * math.factorial(p) / (len(members) * scale)
        for cycle_type, members in classes.items()
        for g in members
    })


def reference_multiply(left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """sum over term pairs of (a * b) (sigma * tau), composing Permutation objects."""
    terms: dict = {}
    right_terms = list(right.terms)
    for sigma, a in left.terms:
        for tau, b in right_terms:
            perm = sigma * tau
            terms[perm] = terms.get(perm, Fraction(0)) + a * b
    return AlgebraElement(left.degree, terms)


def reference_isotypic_rank(lam: Partition, dim: int) -> int:
    """Rank of the class-mass projector as one dense dim^p x dim^p matrix.

    Row i of sigma's slot operator has a 1 at (i_sigma(1), ..., i_sigma(p)).
    The whole matrix, at most 243 x 243, goes through Fraction elimination,
    with no split into weight spaces (the library reduces one block per space).
    """
    p = lam.weight
    indices = list(itertools.product(range(dim), repeat=p))
    if len(indices) > 243:
        raise ValueError("the dense reference rank stops at 243 x 243")
    flat = {idx: f for f, idx in enumerate(indices)}
    matrix = [[0] * len(indices) for _ in indices]
    # the integer numerators: the common denominator does not change the rank
    for images, coeff in reference_class_mass_projector(lam).nums.items():
        for row, idx in zip(matrix, indices):
            row[flat[tuple(idx[j - 1] for j in images)]] += coeff
    return reference_rank(matrix)


def _fraction_matrix(rows) -> list[list[Fraction]]:
    out = [[as_fraction(x) for x in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def _fraction_eliminate(m: list[list[Fraction]]) -> tuple[int, int]:
    """Reduce m to row echelon form in place; return (rank, parity of row swaps)."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    swaps = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            swaps += 1
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            lead = m[r][col]
            if not lead:
                continue
            factor = lead / pivot
            row, prow = m[r], m[rank]
            for c in range(col, n_cols):
                if prow[c]:
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == n_rows:
            break
    return rank, swaps


def reference_rank(rows) -> int:
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    m = _fraction_matrix(rows)
    if not m:
        return 0
    rank, _ = _fraction_eliminate(m)
    return rank


def reference_det(rows) -> Fraction:
    """Determinant of a square matrix, by Gaussian elimination on Fractions."""
    m = _fraction_matrix(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return Fraction(1)
    rank, swaps = _fraction_eliminate(m)
    if rank < size:
        return Fraction(0)
    det = Fraction(-1) ** swaps
    for i in range(size):
        det *= m[i][i]
    return det


GRID_PROBES = tuple(
    (Fraction(a), Fraction(b)) for a, b in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
)


def reference_grid_witness(tensor: Tensor) -> KernelWitness | None:
    """First probe triple, x slowest and z fastest, whose slot slices all vanish."""
    for triple in itertools.product(GRID_PROBES, repeat=3):
        candidate = KernelWitness(triple)
        if kernel_failure(tensor, candidate) is None:
            return candidate
    return None


def _det2(m) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _pencil_slices(tensor: Tensor):
    """The two 2 x 2 Fraction slices obtained by fixing the first index to 0 and 1."""
    return [[[tensor.entry((i, j, k)) for k in range(2)] for j in range(2)] for i in range(2)]


def reference_schlafli_coefficients(tensor: Tensor) -> tuple[Fraction, Fraction, Fraction]:
    """(b0, b1, b2) of det(A0 + t A1) from Fraction 2 x 2 determinants of the pencil."""
    a0, a1 = _pencil_slices(tensor)
    b0, b2 = _det2(a0), _det2(a1)
    summed = [[a0[i][j] + a1[i][j] for j in range(2)] for i in range(2)]
    return b0, _det2(summed) - b0 - b2, b2


def reference_pfaffian(rows) -> Fraction:
    """Pfaffian by first-row expansion over Fraction minors, copied at every step."""
    rows = _fraction_matrix(rows)
    size = len(rows)
    if size == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, size):
        coeff = rows[0][j]
        if coeff == 0:
            continue
        keep = [k for k in range(size) if k not in (0, j)]
        minor = [[rows[r][c] for c in keep] for r in keep]
        term = coeff * reference_pfaffian(minor)
        # expansion sign for pairing slot 1 with slot j+1 (1-based): (-1)^(j+1)
        total += term if j % 2 else -term
    return total


class ReferenceSplitMix64:
    """SplitMix64 from the step in rng's module docstring, one raw output at a time,
    and bounded draws by that docstring's rejection rule; nothing from schurdet."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def raw(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def draw(self, lo: int, hi: int) -> int:
        """lo + (u mod m) for the first raw output u below 2**64 - (2**64 mod m)."""
        m = hi - lo + 1
        while True:
            u = self.raw()
            if u < 2**64 - 2**64 % m:
                return lo + u % m

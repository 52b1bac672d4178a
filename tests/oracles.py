"""Independent oracles used to cross-check library results.

Each of these computes a value by a route the library deliberately does not
use: closed-form counting formulas, the fully expanded quartic invariant,
plain Fraction loops over multi-indices for the slot action, contraction and
slicing, and over term pairs for the group algebra product (the library runs
those on integer numerators over one denominator), and the central sum of the
Young symmetrizer by explicit conjugation (the library builds it as a class
function).
Agreement with the library is then a genuine two-route check.
"""

import itertools
import math
from fractions import Fraction

from schurdet import Partition, Tensor
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
    for idx in _indices(tensor):
        total = Fraction(0)
        for perm, coeff in element.terms():
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
    for g in all_permutations(lam.weight):
        g_inv = g.inverse()
        for sigma, coeff in young_symmetrizer(lam).terms():
            conj = g * sigma * g_inv
            terms[conj] = terms.get(conj, Fraction(0)) + coeff
    return AlgebraElement(lam.weight, terms)


def reference_multiply(left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """sum over term pairs of (a * b) (sigma * tau), composing Permutation objects."""
    terms: dict = {}
    for sigma, a in left.terms():
        for tau, b in right.terms():
            perm = sigma * tau
            terms[perm] = terms.get(perm, Fraction(0)) + a * b
    return AlgebraElement(left.degree, terms)

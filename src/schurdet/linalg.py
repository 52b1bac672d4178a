"""Exact rank/determinant by fraction-free integer elimination.

Matrices are plain lists of row lists; entries anything ``as_fraction`` takes.
Each row is cleared of denominators once; below a pivot p, a row with lead l
becomes (a*row - b*pivot_row) / content, where g = gcd(p, l), a = p/g, b = l/g.
"""

from fractions import Fraction
from math import gcd

from .errors import SizeGuardError
from .rational import as_fraction, common_denominator

MAX_DET_SIZE = 65
MAX_MATRIX_BITS = 1 << 22  # bound on the sum of row length * bit length of the row denominator

Matrix = list[list[Fraction]]


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the least positive integer that clears it, and their product.

    The shape is checked before any entry is read; the rows' denominators
    share one MAX_MATRIX_BITS budget, as a `Tensor`'s does.
    """
    m = [list(row) for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    scale, budget = 1, MAX_MATRIX_BITS
    for i, row in enumerate(m):
        if not set(map(type, row)) <= {int}:
            m[i], den = common_denominator([as_fraction(x) for x in row], budget)
            budget -= den.bit_length() * len(row)
            scale *= den
    return m, scale


def _eliminate(m: list[list[int]]) -> tuple[int, int, int]:
    """Reduce m to row echelon form; return (rank, num, den), det(m) = num / den if square."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank, num, den = 0, 1, 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            num = -num
        pivot = m[rank][col]
        num *= pivot
        support = [(c, y) for c, y in enumerate(m[rank]) if y]
        for r in range(rank + 1, n_rows):
            lead = m[r][col]
            if not lead:
                continue
            g = gcd(pivot, lead)
            a, b = pivot // g, lead // g
            row = m[r] if a == 1 else [a * x for x in m[r]]
            for c, y in support:  # pivot rows are sparse: touch only their nonzeros
                row[c] -= b * y
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
                num *= content
            m[r] = row
            den *= a
        rank += 1
    return rank, num, den


def rank_exact(rows) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    return _eliminate(_integer_rows(rows)[0])[0]


def det_exact(rows) -> Fraction:
    """Determinant of a square matrix, by fraction-free integer elimination.

    More than MAX_DET_SIZE rows (the largest slot system has 65), or a matrix
    that is not square, is refused before any entry is read.
    """
    if len(rows) > MAX_DET_SIZE:
        raise SizeGuardError(
            f"determinant supports at most {MAX_DET_SIZE} rows, got {len(rows)}"
        )
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    rank, num, den = _eliminate(m)
    return Fraction(num, den * scale) if rank == len(m) else Fraction(0)

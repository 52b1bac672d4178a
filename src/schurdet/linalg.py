"""Exact rank/determinant by Bareiss's fraction-free integer elimination.

Matrices are plain lists of row lists; entries anything ``as_fraction`` takes.
Each row is cleared of denominators once; elimination then builds only minors."""

from fractions import Fraction

from .errors import SizeGuardError
from .rational import as_fraction, common_denominator

MAX_DET_SIZE = 65
MAX_DET_BITS = 1024  # bound on the sum over the rows of the largest entry's bit length
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


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """Reduce m to row echelon form in place; return (rank, det(m) if square, else 0).

    Below a pivot p, with q the previous pivot (1 at first), a row with lead l
    becomes (p*row - l*pivot_row) // q, and with lead 0 p*row // q. By Sylvester's
    identity p*x - l*y is q times a minor of m, so every division is exact.
    """
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank, q, sign = 0, 1, 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, n_rows):
            row, lead = m[r], m[r][col]
            if lead:
                m[r] = [(p * x - lead * y) // q for x, y in zip(row, top)]
            elif p != q:
                m[r] = [p * x // q for x in row]
        q = p
        rank += 1
    return rank, sign * q if rank == n_rows == n_cols else 0


def rank_exact(rows) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    return _eliminate(_integer_rows(rows)[0])[0]


def det_exact(rows) -> Fraction:
    """Determinant of a square matrix, by fraction-free integer elimination.

    More than MAX_DET_SIZE rows (the largest slot system has 65), or a matrix
    that is not square, is refused before any entry is read; integer rows past
    MAX_DET_BITS, before elimination, so no minor passes Hadamard's bound.
    """
    if len(rows) > MAX_DET_SIZE:
        raise SizeGuardError(f"determinant supports at most {MAX_DET_SIZE} rows, got {len(rows)}")
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    bits = sum(max(map(int.bit_length, row)) for row in m)
    if bits > MAX_DET_BITS:
        raise SizeGuardError(f"determinant rows' largest entries sum to {bits} bits > {MAX_DET_BITS}")
    return Fraction(_eliminate(m)[1], scale)

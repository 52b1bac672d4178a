"""Exact linear algebra over the rationals: Gaussian elimination, det, rank.

Matrices are plain lists of row lists; entries anything ``as_fraction`` takes.
No pivoting strategy beyond "first nonzero" is needed since arithmetic is exact.
"""

from fractions import Fraction

from .errors import SizeGuardError
from .rational import as_fraction

MAX_DET_SIZE = 65

Matrix = list[list[Fraction]]


def copy_matrix(rows) -> Matrix:
    out = [[as_fraction(x) for x in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def _eliminate(m: Matrix) -> tuple[int, int]:
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


def rank_exact(rows) -> int:
    """Rank over the rationals, by exact elimination."""
    m = copy_matrix(rows)
    if not m:
        return 0
    rank, _ = _eliminate(m)
    return rank


def det_exact(rows) -> Fraction:
    """Determinant of a square matrix, by exact elimination.

    More than MAX_DET_SIZE rows (the largest slot system has 65) is refused
    before any entry is copied.
    """
    if len(rows) > MAX_DET_SIZE:
        raise SizeGuardError(
            f"determinant supports at most {MAX_DET_SIZE} rows, got {len(rows)}"
        )
    m = copy_matrix(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return Fraction(1)
    rank, swaps = _eliminate(m)
    if rank < size:
        return Fraction(0)
    det = Fraction(-1) ** swaps
    for i in range(size):
        det *= m[i][i]
    return det

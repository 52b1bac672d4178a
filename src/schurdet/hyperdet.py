"""Closed-form degeneracy invariants for the two small classical cases.

Order 2 is classical: a skew-symmetric bilinear form degenerates exactly when
its Pfaffian vanishes.  For 2 x 2 x 2 tensors the invariant is the quartic
hyperdeterminant, computed here through the pencil of first-index slices: with
det(A0 + t A1) = b0 + b1 t + b2 t^2, the invariant is b1^2 - 4 b0 b2.  The
all-ones-diagonal tensor gets value +1 under this normalization.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .degeneracy import KernelWitness, is_in_kernel
from .errors import SizeGuardError
from .linalg import Matrix
from .rational import as_fraction
from .rng import SplitMix64
from .tensor_space import Tensor

MAX_PFAFFIAN = 8


def random_skew_matrix(size: int, seed: int) -> Matrix:
    """Seeded skew-symmetric matrix, entries in [-9, 9] above the diagonal."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    rng = SplitMix64(seed)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = Fraction(rng.next_int(-9, 9))
            rows[i][j] = value
            rows[j][i] = -value
    return rows


def det2(matrix: Sequence[Sequence]) -> Fraction:
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        raise ValueError("need a 2 x 2 matrix")
    a, b = (as_fraction(v) for v in matrix[0])
    c, d = (as_fraction(v) for v in matrix[1])
    return a * d - b * c


def pfaffian(matrix: Sequence[Sequence]) -> Fraction:
    """Pfaffian of an even-size skew-symmetric matrix, by first-row expansion.

    Squares to the determinant.  The shape is checked before any entry is read.
    """
    size = len(matrix)
    if size % 2:
        raise ValueError("Pfaffian needs an even-size matrix")
    if size > MAX_PFAFFIAN:
        raise SizeGuardError(f"pfaffian supports size <= {MAX_PFAFFIAN}")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    rows = [[as_fraction(v) for v in row] for row in matrix]
    if any(rows[i][j] != -rows[j][i] for i in range(size) for j in range(size)):
        raise ValueError("matrix is not skew-symmetric")
    return _pfaffian_recursive(rows)


def _pfaffian_recursive(rows: list[list[Fraction]]) -> Fraction:
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
        term = coeff * _pfaffian_recursive(minor)
        # expansion sign for pairing slot 1 with slot j+1 (1-based): (-1)^(j+1)
        total += term if j % 2 else -term
    return total


def _check_222(tensor: Tensor) -> None:
    if tensor.order != 3 or tensor.dim != 2:
        raise ValueError("expected an order-3 tensor of dimension 2")


def pencil_slices(tensor: Tensor) -> tuple[Matrix, Matrix]:
    """The two 2 x 2 slices obtained by fixing the first index to 0 and 1."""
    _check_222(tensor)
    a0 = [[tensor.entry((0, j, k)) for k in range(2)] for j in range(2)]
    a1 = [[tensor.entry((1, j, k)) for k in range(2)] for j in range(2)]
    return a0, a1


def schlafli_coefficients(tensor: Tensor) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (b0, b1, b2) of det(A0 + t A1) as a quadratic in t."""
    a0, a1 = pencil_slices(tensor)
    b0 = det2(a0)
    b2 = det2(a1)
    summed = [[a0[i][j] + a1[i][j] for j in range(2)] for i in range(2)]
    b1 = det2(summed) - b0 - b2
    return b0, b1, b2


def hyperdet_222(tensor: Tensor) -> Fraction:
    """Degree-4 degeneracy invariant of a 2 x 2 x 2 tensor.

    Vanishes exactly when some triple of nonzero vectors kills all slices.
    """
    b0, b1, b2 = schlafli_coefficients(tensor)
    return b1 * b1 - 4 * b0 * b2


_PROBE_VECTORS: tuple[tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(a), Fraction(b))
    for a, b in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
)


def degeneracy_crosscheck_222(
    tensor: Tensor, witness: Optional[KernelWitness] = None
) -> tuple[str, Optional[KernelWitness]]:
    """Compare the invariant's verdict with direct kernel evidence.

    With a witness supplied, it must genuinely lie in the kernel; the verdict
    is then "consistent" iff the invariant vanishes.  Without one, a fixed
    rational probe grid is searched; "inconsistent" is returned only when a
    found witness contradicts a nonzero invariant.  A vanishing invariant with
    no rational witness found is still "consistent": the guaranteed witness
    may need an extension field.
    """
    _check_222(tensor)
    value = hyperdet_222(tensor)
    if witness is not None:
        if witness.order != 3 or witness.dim != 2:
            raise ValueError("witness does not match a 2 x 2 x 2 tensor")
        if not is_in_kernel(tensor, witness):
            raise ValueError("supplied witness is not in the kernel")
        return ("consistent" if value == 0 else "inconsistent"), witness

    for triple in itertools.product(_PROBE_VECTORS, repeat=3):
        candidate = KernelWitness(triple)
        if is_in_kernel(tensor, candidate):
            return ("consistent" if value == 0 else "inconsistent"), candidate
    return "consistent", None

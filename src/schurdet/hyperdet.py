"""Closed-form degeneracy invariants for the two small classical cases.

Order 2 is classical: a skew-symmetric bilinear form degenerates exactly when
its Pfaffian vanishes, here found by fraction-free skew elimination.  For
2 x 2 x 2 tensors the invariant is the quartic hyperdeterminant, computed here
through the pencil of first-index slices: with det(A0 + t A1) = b0 + b1 t +
b2 t^2, the invariant is b1^2 - 4 b0 b2.  The all-ones-diagonal tensor gets
value +1 under this normalization.

All three kernels run on integers; the invariant takes one `Fraction` at the end.
The probe search prunes each x with A(x, ., .) nonsingular and each y whose slot-3
slice is nonzero, and confirms its witness through `kernel_failure`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .degeneracy import KernelWitness, kernel_failure
from .errors import InternalConsistencyError, SizeGuardError
from .linalg import MAX_DET_SIZE, refuse_row_bits
from .rational import integer_values
from .rng import SplitMix64
from .tensor_space import Tensor

MAX_PFAFFIAN = 8
MAX_PFAFFIAN_BITS = 1 << 17  # on the rows' largest entries, summed: 8 CLI rows of 14,284 fit


def random_skew_matrix(size: int, seed: int) -> list[list[int]]:
    """Seeded skew-symmetric matrix of ints, drawn in [-9, 9] above the diagonal by rows.

    A size det_exact would refuse is refused before any entry is drawn.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size > MAX_DET_SIZE:
        raise SizeGuardError(f"skew matrices are drawn to size {MAX_DET_SIZE}, got {size}")
    values = iter(SplitMix64(seed).next_ints(-9, 9, size * (size - 1) // 2))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = next(values)
            rows[j][i] = -rows[i][j]
    return rows


def pfaffian(matrix: Sequence[Sequence]) -> Fraction:
    """Pfaffian of an even-size skew-symmetric matrix, by fraction-free skew elimination.

    Squares to the determinant.  The shape is checked before any entry is read, the
    common denominator d against the intake's budget before d^(size/2) is built.  It
    eliminates d * A, under MAX_PFAFFIAN_BITS, over integers: Pf(A) = Pf(dA) / d^(size/2)."""
    size = len(matrix)
    if size % 2:
        raise ValueError("Pfaffian needs an even-size matrix")
    if size > MAX_PFAFFIAN:
        raise SizeGuardError(f"pfaffian supports size <= {MAX_PFAFFIAN}")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    nums, den = integer_values(v for row in matrix for v in row)
    m = [nums[i * size : (i + 1) * size] for i in range(size)]
    if any(m[i][j] != -m[j][i] for i in range(size) for j in range(i, size)):
        raise ValueError("matrix is not skew-symmetric")
    refuse_row_bits("pfaffian", m, MAX_PFAFFIAN_BITS)
    return Fraction(_integer_pfaffian(m), den ** (size // 2))


def _integer_pfaffian(m: list[list[int]]) -> int:
    """Pf of the skew integer matrix m, which it reduces in place.  Stage k moves row
    k's first nonzero column to k + 1 (a sign flip); with p = m[k][k+1] and q the last
    pivot, each m[i][j], k + 1 < i < j, becomes the Pfaffian minor on 0..k+1, i, j:
    (p m_ij - m_ki m_(k+1)j + m_kj m_(k+1)i) / q, exact by Knuth's "Overlapping Pfaffians"."""
    size, sign, q = len(m), 1, 1
    for k in range(0, size, 2):
        j = next((j for j in range(k + 1, size) if m[k][j]), None)
        if j is None:
            return 0
        if j > k + 1:
            sign = -sign
            m[j], m[k + 1] = m[k + 1], m[j]
            for row in m:
                row[j], row[k + 1] = row[k + 1], row[j]
        a, b, p = m[k], m[k + 1], m[k][k + 1]
        for i in range(k + 2, size):
            for j in range(i + 1, size):
                m[i][j] = (p * m[i][j] - a[i] * b[j] + a[j] * b[i]) // q
                m[j][i] = -m[i][j]
        q = p
    return sign * q


def _pencil(tensor: Tensor) -> tuple[int, int, int]:
    """Coefficients (b0, b1, b2) of det(A0 + t A1) in t, as minors of the numerators."""
    if tensor.order != 3 or tensor.dim != 2:
        raise ValueError("expected an order-3 tensor of dimension 2")
    a000, a001, a010, a011, a100, a101, a110, a111 = tensor.nums
    b0 = a000 * a011 - a001 * a010
    b1 = a000 * a111 + a100 * a011 - a001 * a110 - a101 * a010
    b2 = a100 * a111 - a101 * a110
    return b0, b1, b2


def hyperdet_222(tensor: Tensor) -> Fraction:
    """Degree-4 degeneracy invariant of a 2 x 2 x 2 tensor: b1^2 - 4 b0 b2 over den^4.

    Vanishes exactly when some triple of nonzero vectors kills all slices.
    """
    b0, b1, b2 = _pencil(tensor)
    return Fraction(b1 * b1 - 4 * b0 * b2, tensor.den**4)


_PROBE_VECTORS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))


def degeneracy_crosscheck_222(tensor: Tensor) -> tuple[str, Optional[KernelWitness]]:
    """Compare the invariant's verdict with direct kernel evidence.

    A fixed integer probe grid is searched for a kernel witness;
    "inconsistent" is returned only when a found witness contradicts a
    nonzero invariant.  A vanishing invariant with no rational witness found
    is still "consistent": the guaranteed witness may need an extension field.

    The search reads the numerators (the condition is homogeneous), z fastest.
    With M = A(x, ., .), a nonsingular M has no nonzero y with y M = 0, so it skips
    all 36 (y, z); the slot-3 slice y M has no z, so y M != 0 skips all six z; each
    other z is tested on the slices M z and (y A(i, ., .) z)_i.  The first
    triple that passes is confirmed by `kernel_failure`, the slot-slice route.
    """
    value = hyperdet_222(tensor)  # checks the format
    a = tensor.nums  # a[4i + 2j + k]
    for x in _PROBE_VECTORS:
        m00, m01, m10, m11 = (x[0] * u + x[1] * v for u, v in zip(a[:4], a[4:]))
        if m00 * m11 != m01 * m10:
            continue
        for y0, y1 in _PROBE_VECTORS:
            if y0 * m00 + y1 * m10 or y0 * m01 + y1 * m11:
                continue
            r = [(y0 * a[i] + y1 * a[i + 2], y0 * a[i + 1] + y1 * a[i + 3]) for i in (0, 4)]
            for z in _PROBE_VECTORS:
                if not any(u * z[0] + v * z[1] for u, v in [(m00, m01), (m10, m11), *r]):
                    found = KernelWitness((x, (y0, y1), z))
                    if kernel_failure(tensor, found) is not None:
                        raise InternalConsistencyError(f"{found} fails the slot slices")
                    return ("consistent" if value == 0 else "inconsistent"), found
    return "consistent", None

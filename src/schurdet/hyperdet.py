"""Closed-form degeneracy invariants for the two small classical cases.

Order 2 is classical: a skew-symmetric bilinear form degenerates exactly when
its Pfaffian vanishes.  For 2 x 2 x 2 tensors the invariant is the quartic
hyperdeterminant, computed here through the pencil of first-index slices: with
det(A0 + t A1) = b0 + b1 t + b2 t^2, the invariant is b1^2 - 4 b0 b2.  The
all-ones-diagonal tensor gets value +1 under this normalization.

All three kernels run on integers.  The kernel probe search prunes each y whose
slot-3 slice is nonzero and confirms its witness through `kernel_failure`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .degeneracy import KernelWitness, kernel_failure
from .errors import InternalConsistencyError, SizeGuardError
from .linalg import MAX_DET_SIZE, Matrix
from .rational import as_fraction, common_denominator
from .rng import SplitMix64
from .tensor_space import Tensor

MAX_PFAFFIAN = 8


def random_skew_matrix(size: int, seed: int) -> Matrix:
    """Seeded skew-symmetric matrix, entries in [-9, 9] above the diagonal.

    A size det_exact would refuse is refused before any entry is drawn.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size > MAX_DET_SIZE:
        raise SizeGuardError(f"skew matrices are drawn to size {MAX_DET_SIZE}, got {size}")
    values = iter(SplitMix64(seed).next_ints(-9, 9, size * (size - 1) // 2))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = Fraction(next(values))
            rows[i][j] = value
            rows[j][i] = -value
    return rows


def pfaffian(matrix: Sequence[Sequence]) -> Fraction:
    """Pfaffian of an even-size skew-symmetric matrix, by first-row expansion.

    Squares to the determinant.  The shape is checked before any entry is read.
    With d the common denominator, it expands d * A over integers: Pf(A) = Pf(dA) / d^(size/2).
    """
    size = len(matrix)
    if size % 2:
        raise ValueError("Pfaffian needs an even-size matrix")
    if size > MAX_PFAFFIAN:
        raise SizeGuardError(f"pfaffian supports size <= {MAX_PFAFFIAN}")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    nums, den = common_denominator([as_fraction(v) for row in matrix for v in row])
    m = [nums[i * size : (i + 1) * size] for i in range(size)]
    if any(m[i][j] != -m[j][i] for i in range(size) for j in range(size)):
        raise ValueError("matrix is not skew-symmetric")
    return Fraction(_integer_pfaffian(m, tuple(range(size))), den ** (size // 2))


def _integer_pfaffian(m: list[list[int]], indices: tuple[int, ...]) -> int:
    """Pf of m on indices x indices; pairing indices[0] with rest[pos] has sign (-1)^pos."""
    if not indices:
        return 1
    first, rest = indices[0], indices[1:]
    total = 0
    for pos, j in enumerate(rest):
        if m[first][j]:
            term = m[first][j] * _integer_pfaffian(m, rest[:pos] + rest[pos + 1 :])
            total += -term if pos % 2 else term
    return total


def schlafli_coefficients(tensor: Tensor) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (b0, b1, b2) of det(A0 + t A1) in t: minors of the numerators over den^2."""
    if tensor.order != 3 or tensor.dim != 2:
        raise ValueError("expected an order-3 tensor of dimension 2")
    a000, a001, a010, a011, a100, a101, a110, a111 = tensor.nums
    scale = tensor.den**2
    b0 = a000 * a011 - a001 * a010
    b1 = a000 * a111 + a100 * a011 - a001 * a110 - a101 * a010
    b2 = a100 * a111 - a101 * a110
    return Fraction(b0, scale), Fraction(b1, scale), Fraction(b2, scale)


def hyperdet_222(tensor: Tensor) -> Fraction:
    """Degree-4 degeneracy invariant of a 2 x 2 x 2 tensor.

    Vanishes exactly when some triple of nonzero vectors kills all slices.
    """
    b0, b1, b2 = schlafli_coefficients(tensor)
    return b1 * b1 - 4 * b0 * b2


_PROBE_VECTORS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))


def degeneracy_crosscheck_222(tensor: Tensor) -> tuple[str, Optional[KernelWitness]]:
    """Compare the invariant's verdict with direct kernel evidence.

    A fixed integer probe grid is searched for a kernel witness;
    "inconsistent" is returned only when a found witness contradicts a
    nonzero invariant.  A vanishing invariant with no rational witness found
    is still "consistent": the guaranteed witness may need an extension field.

    The search reads the numerators (the condition is homogeneous), z fastest.
    With M = A(x, ., .) the slot-3 slice y M has no z, so y M != 0 skips all six
    z; each other z is tested on the slices M z and (y A(i, ., .) z)_i.  The first
    triple that passes is confirmed by `kernel_failure`, the slot-slice route.
    """
    value = hyperdet_222(tensor)  # checks the format
    a = tensor.nums  # a[4i + 2j + k]
    for x in _PROBE_VECTORS:
        m00, m01, m10, m11 = (x[0] * u + x[1] * v for u, v in zip(a[:4], a[4:]))
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

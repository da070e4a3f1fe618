"""Principal pivot transform and the identities that constrain it.

The pivot of A on X partially inverts A: A(x_X, x_C) = (y_X, y_C) holds
exactly when A*X(y_X, x_C) = (x_X, y_C), where C is the complement of X.
It is computed by solving that relation for (x_X, y_C) with one Gauss-Jordan
elimination on the columns of X (``matrix.pivot_rows``); the inverse is the
same elimination on the full domain.  The checks here test the partial
inverse law, nullity invariance and Tucker's identity on one instance each.
"""

from __future__ import annotations

from collections.abc import Sequence

from .matrix import (
    Matrix,
    PivotUndefinedError,
    SubsetMask,
    _block_rank_det,
    check_same_domain,
    mat_vec,
    nullity_by_bits,
    pivot_rows,
)

__all__ = [
    "pivot",
    "verify_partial_inverse",
    "nullity_after_pivot",
    "tucker_determinant_check",
]


def pivot(A: Matrix, X: SubsetMask) -> Matrix:
    """The pivot A*X: invert the X block, with the complement adjusted.

    The result, in block form with P = A[X]:

        (P | Q ; R | S)  ->  (P^-1 | -P^-1 Q ; R P^-1 | S - R P^-1 Q)

    Requires A[X] nonsingular; pivot(A, empty) equals A and pivot(A, full)
    is the inverse.  The block outside X is the Schur complement of A[X],
    and pivots compose: (A*X)*Y = A*(X xor Y) whenever the left side is defined.
    """
    check_same_domain(A, X)
    rows = pivot_rows(A, X.bits)
    if rows is None:
        raise PivotUndefinedError(f"pivot undefined: A[{X}] singular", X)
    return Matrix(A.field, A.domain, rows)


def verify_partial_inverse(A: Matrix, X: SubsetMask, xs: Sequence) -> bool:
    """Check the partial-inverse law on one vector.

    With y = A x, the pivot must map the mixed vector (y on X, x elsewhere)
    to (x on X, y elsewhere).  Returns the boolean outcome rather than
    asserting, so verification drivers can count failures.
    """
    if len(xs) != A.n:
        raise ValueError("vector length differs from matrix dimension")
    B = pivot(A, X)
    ys = mat_vec(A, xs)
    mixed = [ys[i] if X.bits >> i & 1 else xs[i] for i in range(A.n)]
    out = mat_vec(B, mixed)
    expected = [xs[i] if X.bits >> i & 1 else ys[i] for i in range(A.n)]
    return out == expected


def nullity_after_pivot(A: Matrix, X: SubsetMask, Y: SubsetMask) -> tuple[int, int]:
    """The pair (n((A*X)[Y]), n(A[X xor Y])); equal by the nullity invariant."""
    B = pivot(A, X)
    check_same_domain(B, Y)
    return nullity_by_bits(B, Y.bits), nullity_by_bits(A, X.bits ^ Y.bits)


def tucker_determinant_check(A: Matrix, X: SubsetMask, Y: SubsetMask) -> bool:
    """Tucker's identity: det (A*X)[Y] equals det A[X xor Y] / det A[X]."""
    B = pivot(A, X)
    check_same_domain(B, Y)
    lhs = _block_rank_det(B, Y.bits)[1]
    det_x = _block_rank_det(A, X.bits)[1]
    det_xy = _block_rank_det(A, X.bits ^ Y.bits)[1]
    return lhs * det_x == det_xy

"""Principal pivot transform and the identities that constrain it.

The pivot of A on X partially inverts A: the block indexed by X is inverted
in place and the rest is adjusted to the Schur complement.  It is computed
here by the block formula after permuting X to the front, then scattering
the blocks back into the original label order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .matrix import (
    GF2,
    RATIONAL,
    Matrix,
    PivotUndefinedError,
    SubsetMask,
    compact_bits,
    determinant,
    f2_invert_rows,
    f2_mul_rows,
    mat_vec,
    nullity,
    principal_submatrix,
    q_invert,
    q_mul,
    scatter_bits,
)

__all__ = [
    "pivot",
    "schur_complement",
    "verify_partial_inverse",
    "nullity_after_pivot",
    "tucker_determinant_check",
    "pivot_composition",
]


def pivot(A: Matrix, X: SubsetMask) -> Matrix:
    """The pivot A*X: invert the X block, with the complement adjusted.

    In block form with P = A[X]:

        (P | Q ; R | S)  ->  (P^-1 | -P^-1 Q ; R P^-1 | S - R P^-1 Q)

    Requires A[X] nonsingular; pivot(A, empty) is A and pivot(A, full) is
    the inverse.
    """
    if A.domain != X.domain:
        raise ValueError("subset domain differs from matrix domain")
    if X.bits == 0:
        return A
    xi = X.indices()
    ci = X.complement().indices()
    if A.field == GF2:
        rows = _pivot_f2(A.rows, xi, ci)
    else:
        rows = _pivot_q(A.rows, xi, ci)
    if rows is None:
        raise PivotUndefinedError(f"pivot undefined: A[{X}] singular", X)
    return Matrix(A.field, A.domain, rows)


def _pivot_f2(rows: Sequence[int], xi: Sequence[int], ci: Sequence[int]):
    k = len(xi)
    P = [compact_bits(rows[i], xi) for i in xi]
    Pinv = f2_invert_rows(P, k)
    if Pinv is None:
        return None
    Q = [compact_bits(rows[i], ci) for i in xi]
    R = [compact_bits(rows[i], xi) for i in ci]
    S = [compact_bits(rows[i], ci) for i in ci]
    top_right = f2_mul_rows(Pinv, Q)
    bottom_left = f2_mul_rows(R, Pinv)
    bottom_right = [s ^ t for s, t in zip(S, f2_mul_rows(bottom_left, Q))]
    out = [0] * (len(xi) + len(ci))
    for a, i in enumerate(xi):
        out[i] = scatter_bits(Pinv[a], xi) | scatter_bits(top_right[a], ci)
    for c, i in enumerate(ci):
        out[i] = scatter_bits(bottom_left[c], xi) | scatter_bits(bottom_right[c], ci)
    return tuple(out)


def _pivot_q(rows, xi: Sequence[int], ci: Sequence[int]):
    m = len(ci)
    P = [[rows[i][j] for j in xi] for i in xi]
    Pinv = q_invert(P)
    if Pinv is None:
        return None
    Q = [[rows[i][j] for j in ci] for i in xi]
    R = [[rows[i][j] for j in xi] for i in ci]
    S = [[rows[i][j] for j in ci] for i in ci]
    top_right = [[-e for e in row] for row in q_mul(Pinv, Q, p=m)]
    bottom_left = q_mul(R, Pinv)
    rpq = q_mul(bottom_left, Q, p=m)
    bottom_right = [
        [S[r][c] - rpq[r][c] for c in range(m)] for r in range(m)
    ]
    n = len(xi) + len(ci)
    out: list[tuple[Fraction, ...]] = [()] * n
    for a, i in enumerate(xi):
        row = [Fraction(0)] * n
        for b, j in enumerate(xi):
            row[j] = Pinv[a][b]
        for c, j in enumerate(ci):
            row[j] = top_right[a][c]
        out[i] = tuple(row)
    for a, i in enumerate(ci):
        row = [Fraction(0)] * n
        for b, j in enumerate(xi):
            row[j] = bottom_left[a][b]
        for c, j in enumerate(ci):
            row[j] = bottom_right[a][c]
        out[i] = tuple(row)
    return tuple(out)


def schur_complement(A: Matrix, X: SubsetMask) -> Matrix:
    """S - R P^(-1) Q for the block split on X; needs A[X] nonsingular.

    This is the block of the pivot A*X outside X.
    """
    return principal_submatrix(pivot(A, X), X.complement())


def verify_partial_inverse(A: Matrix, X: SubsetMask, xs: Sequence) -> bool:
    """Check the partial-inverse law on one vector.

    With y = A x, the pivot must map the mixed vector (y on X, x elsewhere)
    to (x on X, y elsewhere).  Returns the boolean outcome rather than
    asserting, so verification drivers can count failures.
    """
    if len(xs) != A.n:
        raise ValueError("vector length differs from matrix dimension")
    B = pivot(A, X)
    if A.field == RATIONAL:
        xs = [Fraction(v) for v in xs]
    ys = mat_vec(A, xs)
    mixed = [ys[i] if X.bits >> i & 1 else xs[i] for i in range(A.n)]
    out = mat_vec(B, mixed)
    expected = [xs[i] if X.bits >> i & 1 else ys[i] for i in range(A.n)]
    return out == expected


def nullity_after_pivot(A: Matrix, X: SubsetMask, Y: SubsetMask) -> tuple[int, int]:
    """The pair (n((A*X)[Y]), n(A[X xor Y])); equal by the nullity invariant."""
    B = pivot(A, X)
    return (
        nullity(principal_submatrix(B, Y)),
        nullity(principal_submatrix(A, X ^ Y)),
    )


def tucker_determinant_check(A: Matrix, X: SubsetMask, Y: SubsetMask) -> bool:
    """Tucker's identity: det (A*X)[Y] equals det A[X xor Y] / det A[X]."""
    B = pivot(A, X)
    lhs = determinant(principal_submatrix(B, Y))
    det_x = determinant(principal_submatrix(A, X))
    det_xy = determinant(principal_submatrix(A, X ^ Y))
    if A.field == GF2:
        # det A[X] = 1 here, so the division is trivial.
        return lhs == det_xy
    return lhs == det_xy / det_x


def pivot_composition(A: Matrix, X: SubsetMask, Y: SubsetMask) -> Matrix:
    """Compute (A*X)*Y and confirm it equals A*(X xor Y).

    Raises PivotUndefinedError naming the failing stage when either pivot is
    undefined, and AssertionError if the composition law is violated (which
    would indicate a pivot bug).
    """
    try:
        first = pivot(A, X)
    except PivotUndefinedError as e:
        raise PivotUndefinedError(f"composition stage A*X: {e}", X) from None
    try:
        second = pivot(first, Y)
    except PivotUndefinedError as e:
        raise PivotUndefinedError(f"composition stage (A*X)*Y: {e}", Y) from None
    combined = pivot(A, X ^ Y)
    if second != combined:
        raise AssertionError(
            f"pivot composition mismatch: (A*{X})*{Y} != A*{X ^ Y}"
        )
    return second

"""Interlace (nullity) polynomials, by subset enumeration and by recursion.

The nullity polynomial of a matrix sums y^(nullity of A[S]) over all subsets
S, so its coefficient vector is exactly the norm of the partition sequence.
The interlace polynomial is the same sum with base y-1; substituting the
variable converts one into the other.  For graphs there is additionally a
deletion recursion, q(G) = q(G - u) + q(G*X - u) for the last vertex u and
a nonsingular X of u and at most one neighbour (one graph pivot per step),
evaluated here as an independent second method.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from operator import add

from .graphs import _elementary_pivot_rows, require_graph
from .matrix import Matrix, SubsetMask, _Value, delete_label
from .pivot import pivot

__all__ = [
    "RECURSION_MEMO_CAP",
    "Poly",
    "nullity_polynomial",
    "interlace_polynomial",
    "interlace_from_nullity",
    "nullity_from_interlace",
    "interlace_recursive",
    "verify_recursion",
]

# The graph deletion recursion memoises each distinct subgraph it reaches,
# and this cap bounds the rows its memo stores over all entries.  Rows, not
# entries: a subgraph's key and coefficients grow with its size, so on long
# paths one entry holds hundreds of rows.  A call that reaches the cap has
# run about 4 s and peaked near 160 MB on a random graph of 26 to 40
# vertices.  Paths no longer reach it: their memo holds about n^2 / 2 rows,
# 0.49 M at 990 vertices (0.2 s, 75 MB), and a path of 1 000 vertices
# already runs past Python's recursion limit.
RECURSION_MEMO_CAP = 1 << 22


class Poly(_Value):
    """A single-variable polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of y^i; trailing zeros are trimmed, so
    the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be ints")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficients are not canonical")

    @classmethod
    def of(cls, seq: Sequence[int]) -> "Poly":
        """Canonical polynomial from integral coefficients of any numeric type."""
        coeffs = []
        for c in seq:
            if c != int(c):
                raise ValueError(f"coefficient {c!r} is not an integer")
            coeffs.append(int(c))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "Poly":
        if power < 0:
            raise ValueError(f"negative power {power}: polynomials have no y^-k terms")
        if coeff == 0:
            return cls(())
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        width = max(len(self.coeffs), len(other.coeffs))
        return Poly.of(
            [self.coefficient(i) + other.coefficient(i) for i in range(width)]
        )

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly.of(out)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}: polynomials have no inverses")
        result = Poly((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, delta: int) -> "Poly":
        """The polynomial p(y + delta), expanded exactly."""
        out: list[int] = []
        for c in reversed(self.coeffs):
            new = [0] * (len(out) + 1)
            for i, a in enumerate(out):
                new[i + 1] += a
                new[i] += a * delta
            new[0] += c
            out = new
        return Poly.of(out)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"


def nullity_polynomial(A: Matrix) -> Poly:
    """Sum of y^(nullity of A[S]) over all subsets S.

    Coefficient i counts the subsets of nullity i, so the coefficients are
    non-negative and total 2^n.
    """
    from .setsystems import nullity_histogram

    return Poly.of(nullity_histogram(A))


def interlace_polynomial(A: Matrix) -> Poly:
    """The interlace polynomial: the nullity polynomial with y shifted down."""
    return nullity_polynomial(A).shift(-1)


def interlace_from_nullity(p: Poly) -> Poly:
    """Substitute y -> y - 1, converting a nullity polynomial to interlace form."""
    return p.shift(-1)


def nullity_from_interlace(p: Poly) -> Poly:
    """Substitute y -> y + 1, the inverse conversion."""
    return p.shift(1)


def interlace_recursive(G: Matrix) -> Poly:
    """Evaluate the interlace polynomial of a graph by deletion recursion.

    The recursion always removes the last vertex u.  For any X that holds u
    with G[X] nonsingular, q(G) = q(G - u) + q(G*X - u), and X is chosen as
    follows: {u} if u is looped, else {u, v} for the highest neighbour v of
    u.  G[{u, v}] is nonsingular whether or not v is looped, and G*X - u is
    one call of the graph-pivot kernel either way.  A trailing run of isolated
    loopless vertices contributes y each and is stripped in one step, so a
    discrete graph on n vertices gives y^n at once.  Deleting the last
    vertex drops the last row and column, so every subgraph reached lives on
    a prefix of the labels.

    Each call keeps a memo from packed row tuples to coefficient tuples, so
    a subgraph reached along several branches is solved once; the memo is
    dropped when the call returns.  Its size is bounded by the rows it
    stores, at most ``RECURSION_MEMO_CAP`` over all entries, past which
    ``ValueError`` is raised.  The bound is on subgraphs, not labels, so
    sparse graphs well past ``ENUMERATION_CAP`` finish (a path on 300
    vertices takes about 20 ms).  Each level deletes at least one vertex,
    so a chain of deletions longer than Python's recursion limit also
    raises ``ValueError``; graphs that need no deep chain (a discrete graph
    needs none) are not limited by their size.
    """
    require_graph(G)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}
    room = RECURSION_MEMO_CAP

    def recurse(rows: tuple[int, ...]) -> tuple[int, ...]:
        nonlocal room
        n = k = len(rows)
        while k and not rows[k - 1]:
            k -= 1
        # The last n - k vertices are isolated and loopless: y each.
        zeros = (0,) * (n - k)
        if not k:
            return zeros + (1,)
        rows = rows[:k]
        coeffs = memo.get(rows)
        if coeffs is None:
            room -= k
            if room < 0:
                raise ValueError(
                    f"deletion recursion exceeds the memo cap of {RECURSION_MEMO_CAP} rows"
                )
            u = k - 1
            low = (1 << u) - 1
            a = recurse(tuple([r & low for r in rows[:u]]))
            # The top bit of u's row is u itself when u is looped, else its
            # highest neighbour v: X = {u} or {u, v}.
            part = 1 << u | 1 << (rows[u].bit_length() - 1)
            b = recurse(_elementary_pivot_rows(rows, part, u))
            if len(a) < len(b):
                a, b = b, a
            coeffs = tuple(map(add, a, b)) + a[len(b) :]
            memo[rows] = coeffs
        return zeros + coeffs

    try:
        return Poly.of(recurse(G.rows))
    except RecursionError:
        raise ValueError(
            f"deletion recursion on {G.n} labels runs deeper than Python's "
            f"recursion limit of {sys.getrecursionlimit()} frames"
        ) from None
    finally:
        del recurse  # frees the memo now, as the sweep kernels free theirs


def verify_recursion(A: Matrix, u: str, X: SubsetMask) -> Poly:
    """Check the general deletion/pivot identity on one instance.

    For A[X] nonsingular and u in X, the interlace polynomial of A must equal
    that of A minus u plus that of (A pivoted on X) minus u.  Both sides are
    evaluated by direct enumeration; a mismatch raises AssertionError.
    Returns the (common) polynomial.
    """
    if u not in X:
        raise ValueError(f"label {u!r} must belong to the pivot subset {X}")
    B = pivot(A, X)
    total = interlace_polynomial(delete_label(A, u)) + interlace_polynomial(
        delete_label(B, u)
    )
    direct = interlace_polynomial(A)
    if total != direct:
        raise AssertionError(
            f"deletion recursion violated at u={u!r}, X={X}: {total} != {direct}"
        )
    return total

"""Interlace (nullity) polynomials, by subset enumeration and by recursion.

The nullity polynomial of a matrix sums y^(nullity of A[S]) over all subsets
S, so its coefficient vector is exactly the norm of the partition sequence.
The interlace polynomial is the same sum with base y-1; substituting the
variable converts one into the other.  For graphs there is additionally a
deletion recursion driven by the elementary pivots, evaluated here as an
independent second method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import edge_complement, local_complement, require_graph
from .matrix import Matrix, SubsetMask, delete_label
from .pivot import pivot
from .setsystems import nullity_histogram

__all__ = [
    "Poly",
    "nullity_polynomial",
    "interlace_polynomial",
    "interlace_from_nullity",
    "nullity_from_interlace",
    "interlace_recursive",
    "verify_recursion",
]


@dataclass(frozen=True)
class Poly:
    """A single-variable polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of y^i; trailing zeros are trimmed, so
    the zero polynomial has an empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be ints")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficients are not canonical")

    @classmethod
    def of(cls, seq: Sequence[int]) -> "Poly":
        coeffs = list(seq)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(int(c) for c in coeffs))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "Poly":
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

    A discrete graph on n vertices contributes y^n.  Otherwise, with u the
    smallest looped vertex, q(G) = q(G minus u) + q(G locally complemented at
    u, minus u); if no vertex is looped, the smallest edge {u,v} gives
    q(G) = q(G minus u) + q(G edge-complemented on {u,v}, minus u).
    """
    require_graph(G)
    return _recurse(G)


def _recurse(G: Matrix) -> Poly:
    if not any(G.rows):
        return Poly.monomial(G.n)
    for i in range(G.n):
        if G.rows[i] >> i & 1:
            u = G.domain[i]
            return _recurse(delete_label(G, u)) + _recurse(
                delete_label(local_complement(G, u), u)
            )
    i = next(idx for idx in range(G.n) if G.rows[idx])
    j = (G.rows[i] & -G.rows[i]).bit_length() - 1
    u, v = G.domain[i], G.domain[j]
    return _recurse(delete_label(G, u)) + _recurse(
        delete_label(edge_complement(G, u, v), u)
    )


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

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

from collections.abc import Sequence
from operator import add

from .graphs import _elementary_pivot_rows, require_graph
from .matrix import Matrix, _Value

__all__ = [
    "RECURSION_MEMO_CAP",
    "Poly",
    "nullity_polynomial",
    "interlace_polynomial",
    "interlace_from_nullity",
    "nullity_from_interlace",
    "interlace_recursive",
]

# The graph deletion recursion expands each distinct subgraph it reaches
# once, and this cap bounds the rows of all those subgraphs together,
# which bounds both the rows held at once and the time.  Rows, not
# entries: on long paths one entry holds hundreds of rows.  A call that
# reaches the cap has run 0.2-0.5 s and peaked at 40-60 MB of process
# memory on a random graph of 26 to 36 vertices, whose subgraphs are keyed
# as packed ints.  A path on n vertices in label order reaches
# n(n + 1)/2 - 1 rows, so it finishes up to 2 895 vertices (990 in 0.11 s,
# 2 890 in 1.8 s).
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
    u.  G[{u, v}] is nonsingular whether or not v is looped, so G*X is one
    kernel call either way.  The kernels compute G*X and nothing else; the
    loop deletes u from both children, G and G*X, in one place.  Deleting
    the last vertex drops the last row and column, so every subgraph reached
    lives on a prefix of the labels.  A trailing run of isolated loopless
    vertices contributes y each and is stripped from each child after the
    deletion, so a discrete graph on n vertices gives y^n at once.

    The recursion runs as one pass over subgraph sizes, largest first, with
    no Python recursion: ``levels[k]`` maps each distinct stripped subgraph
    on k vertices to its weight, the sum of y^j over the ways the recursion
    reaches it with j isolated vertices stripped.  Each subgraph is expanded
    once, after every larger one, so its weight is complete; its two
    children's weights grow by it, and q(G) is the weight of the empty
    graph.  A level is dropped once it is expanded, so the rows held are
    those of the subgraphs still to expand.  ``RECURSION_MEMO_CAP`` bounds
    the rows of all distinct subgraphs reached, and so the time, past which
    ``ValueError`` is raised.  The bound is on subgraphs, not labels, so
    sparse graphs well past ``ENUMERATION_CAP`` finish, and no depth limits
    it: a path or a matching of a thousand edges finishes.

    Subgraphs are keyed in one of two formats, chosen by the vertex count n
    of G.  Up to ``_PACKED_RECURSION_VERTICES`` = 64 vertices a subgraph is
    one int, row x at bits x·n, its weight one int, W = n + 1 bits a power
    of y, and its kernel :func:`_packed_pivot` (:func:`_packed_recursion`).
    Past that a subgraph is its tuple of rows, its weight a tuple of
    coefficients and its kernel :func:`pivotpoly.graphs._elementary_pivot_rows`
    (:func:`_row_recursion`), which states the rule both kernels follow:
    two partner rows, one for N(u) and one for N(v).  Every step on a packed
    key runs over k·n bits, so it wins on the dense graphs that finish under
    the cap, which have few vertices, and loses on long sparse ones, the
    only graphs past 64 vertices that finish: forcing packed keys took a
    discrete graph on 96 / 160 vertices 1.05× / 1.5× and a 200-vertex path
    1.1-1.2× the row tuples' time, where 64-vertex paths, matchings and
    discrete graphs were no slower.  W bits suffice: the terms are
    nonnegative and q(G) is the sum of w_H q(H) over any level, so each
    coefficient of a weight w_H is at most one of q(G), at most
    q(G)(1) <= q(G)(2) = 2^n < 2^W.
    """
    require_graph(G)
    if G.n > _PACKED_RECURSION_VERTICES:
        return _row_recursion(G.rows)
    return _packed_recursion(G.rows)


# Past this many vertices the recursion keys subgraphs as row tuples.
_PACKED_RECURSION_VERTICES = 64


def _memo_cap_error() -> ValueError:
    return ValueError(
        f"deletion recursion exceeds the memo cap of {RECURSION_MEMO_CAP} rows"
    )


def _packed_pivot(graph: int, part: int, n: int, base: int) -> int:
    """:func:`pivotpoly.graphs._elementary_pivot_rows` on a graph packed into
    one int, row x at bits x·n: G*X on every row, deleting nothing.

    ``base`` has bit x·n set for every row x, so ``graph >> i & base`` is
    column i spread to row positions, and spread(N(i)) is that column with
    bit i·n flipped.  One multiply adds a partner row to every row of a
    spread mask, so the rule's two partner rows, to_i and to_j, take two.
    """
    i = (part & -part).bit_length() - 1
    j = part.bit_length() - 1
    low = (1 << n) - 1
    r_i = graph >> i * n & low
    s_i = (graph >> i & base) ^ 1 << i * n
    if i == j:
        return graph ^ s_i * (r_i ^ 1 << i)
    r_j = graph >> j * n & low
    s_j = (graph >> j & base) ^ 1 << j * n
    n_i, n_j = r_i ^ 1 << i, r_j ^ 1 << j
    to_i = n_j ^ n_i if r_j >> j & 1 else n_j
    to_j = n_i ^ n_j if r_i >> i & 1 else n_i
    return graph ^ s_i * to_i ^ s_j * to_j


def _packed_recursion(rows: tuple[int, ...]) -> Poly:
    """The level loop of :func:`interlace_recursive` on packed ints.

    A subgraph on k vertices is one int with row x at bits x·n, n the size
    of the input graph.  Both children, G and the kernel's G*X, lose u by
    one AND with ``cut``, which keeps the rows and columns below u, and
    stripping trailing isolated vertices is reading k = ceil(bit_length / n).
    Merging two weights is ``+``, and stripping j vertices is ``<< j·W``.
    """
    n = len(rows)
    width = n + 1
    graph = sum(r << x * n for x, r in enumerate(rows))
    k = -(-graph.bit_length() // n) if graph else 0
    base = sum(1 << x * n for x in range(k))
    levels: list[dict[int, int]] = [{} for _ in range(k + 1)]
    levels[k][graph] = 1 << (n - k) * width
    room = RECURSION_MEMO_CAP - k
    for u in range(k - 1, -1, -1):
        cut, un = (base & (1 << u * n) - 1) * ((1 << u) - 1), u * n
        for graph, weight in levels.pop().items():
            # Every new entry is expanded later, so checking here misses none.
            if room < 0:
                raise _memo_cap_error()
            # Row u is the top row: u itself when u is looped, else its
            # highest neighbour v, gives X = {u} or {u, v}.
            part = 1 << u | 1 << (graph >> un).bit_length() - 1
            for child in (graph, _packed_pivot(graph, part, n, base)):
                child &= cut
                k = -(-child.bit_length() // n)
                level = levels[k]
                w = weight << (u - k) * width
                old = level.get(child)
                if old is None:
                    level[child] = w
                    room -= k
                else:
                    level[child] = old + w
    t, mask = levels[0][0], (1 << width) - 1
    return Poly.of([t >> width * j & mask for j in range(n + 1)])


def _row_recursion(rows: tuple[int, ...]) -> Poly:
    """:func:`_packed_recursion` on row tuples: a subgraph on k vertices is
    its first k rows, and its weight a coefficient tuple, which stripping j
    vertices pads with j leading zeros.  Both children, G and the kernel's
    G*X on all u + 1 rows, lose u by masking their rows with ``low``: the
    strip reads the masked rows, and the key keeps the first k of them."""
    n = k = len(rows)
    while k and not rows[k - 1]:
        k -= 1
    levels: list[dict[tuple[int, ...], tuple[int, ...]]] = [{} for _ in range(k + 1)]
    levels[k][rows[:k]] = (0,) * (n - k) + (1,)
    room = RECURSION_MEMO_CAP - k
    for u in range(k - 1, -1, -1):
        low = (1 << u) - 1
        for graph, weight in levels.pop().items():
            # Every new entry is expanded later, so checking here misses none.
            if room < 0:
                raise _memo_cap_error()
            # The top bit of u's row is u itself when u is looped, else its
            # highest neighbour v: X = {u} or {u, v}.
            part = 1 << u | 1 << graph[u].bit_length() - 1
            for child in (graph, _elementary_pivot_rows(graph, part)):
                k = u
                while k and not child[k - 1] & low:
                    k -= 1
                child, w = tuple([r & low for r in child[:k]]), (0,) * (u - k) + weight
                level = levels[k]
                old = level.get(child)
                if old is None:
                    level[child] = w
                    room -= k
                else:
                    level[child] = tuple(map(add, old, w)) + old[len(w) :] + w[len(old) :]
    return Poly.of(levels[0][()])

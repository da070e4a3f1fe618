"""Graphs as symmetric GF(2) matrices, with loops on the diagonal.

Pivots on graphs decompose into two elementary moves: local complementation
at a looped vertex and edge complementation on an edge between loopless
vertices.  Both run through one row-mask kernel, :func:`_elementary_pivot_rows`,
which agrees entrywise with the matrix pivot on the same subset; the same
rule on graphs packed into one int, ``_packed_pivot``, lives with the deletion
recursion in :mod:`pivotpoly.interlace`.
"""

from __future__ import annotations

from .matrix import (
    GF2,
    Matrix,
    PivotUndefinedError,
    SubsetMask,
    _Value,
    check_labels,
    check_same_domain,
)

__all__ = [
    "OrbitOverflowError",
    "PivotOrbit",
    "graph_from_edges",
    "require_graph",
    "edges_of",
    "local_complement",
    "edge_complement",
    "elementary_pivots",
    "elementary_decomposition",
    "pivot_orbit",
]


class OrbitOverflowError(RuntimeError):
    """Pivot-orbit enumeration exceeded the configured graph cap."""


def graph_from_edges(labels, edges) -> Matrix:
    """Build a graph from (u, v) pairs, read in order; a pair (u, u) is a loop.

    The labels are checked before any pair is read, and each pair must name
    an edge not given before, in either order.
    """
    domain = tuple(sorted(check_labels(labels)))
    position = {lab: i for i, lab in enumerate(domain)}
    rows = [0] * len(domain)
    for u, v in edges:
        try:
            i, j = position[u], position[v]
        except KeyError as e:
            raise ValueError(f"label {e.args[0]!r} not in matrix domain") from None
        if rows[i] >> j & 1:
            raise ValueError(f"duplicate edge {u} {v}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Matrix(GF2, domain, tuple(rows))


def require_graph(G: Matrix) -> None:
    """Reject matrices that are not symmetric GF(2) adjacency matrices."""
    if G.field != GF2:
        raise ValueError("graphs are matrices over GF(2)")
    if not G.is_symmetric():
        raise ValueError("graph adjacency matrix must be symmetric")


def edges_of(G: Matrix) -> tuple[tuple[str, str], ...]:
    """All edges as sorted label pairs; loops appear as (u, u)."""
    require_graph(G)
    out = []
    for i in range(G.n):
        for j in range(i, G.n):
            if G.rows[i] >> j & 1:
                out.append((G.domain[i], G.domain[j]))
    return tuple(out)


def local_complement(G: Matrix, u: str) -> Matrix:
    """Pivot on a looped vertex: complement all adjacencies inside its
    neighbourhood, loops included."""
    require_graph(G)
    i = G.index_of(u)
    if not G.rows[i] >> i & 1:
        raise PivotUndefinedError(
            f"elementary pivot undefined: no loop at {u}", SubsetMask(G.domain, 1 << i)
        )
    return Matrix(GF2, G.domain, _elementary_pivot_rows(G.rows, 1 << i))


def edge_complement(G: Matrix, u: str, v: str) -> Matrix:
    """Pivot on an edge between loopless vertices.

    The closed neighbourhoods of u and v split the affected vertices into
    three classes; every adjacency between two different classes is toggled,
    which also hands u's neighbours to v and vice versa.  Loops never change.
    """
    require_graph(G)
    i = G.index_of(u)
    j = G.index_of(v)
    if i == j:
        raise PivotUndefinedError(f"elementary pivot undefined: {u} is not an edge")
    if not G.rows[i] >> j & 1:
        raise PivotUndefinedError(
            f"elementary pivot undefined: no edge between {u} and {v}",
            SubsetMask(G.domain, (1 << i) | (1 << j)),
        )
    if G.rows[i] >> i & 1 or G.rows[j] >> j & 1:
        raise PivotUndefinedError(
            f"elementary pivot undefined: loop on an endpoint of {{{u},{v}}}",
            SubsetMask(G.domain, (1 << i) | (1 << j)),
        )
    return Matrix(GF2, G.domain, _elementary_pivot_rows(G.rows, (1 << i) | (1 << j)))


def _elementary_pivot_rows(rows: tuple[int, ...], part: int) -> tuple[int, ...]:
    """G*X on packed graph rows for X = {i} a looped vertex or X = {i, j} an
    edge with at most one looped end; :func:`pivotpoly.interlace._packed_pivot`
    applies the same rule to a graph packed into one int.

    With N(x) the row of x with its own loop bit flipped and
    G[X]^-1 = [[b,1],[1,a]] for G[X] = [[a,1],[1,b]], each vertex of N(i)
    toggles its adjacencies to the partner row to_i = N(j) + b·N(i) and each
    vertex of N(j) to to_j = N(i) + a·N(j), so a vertex of both gets
    to_i + to_j.  For X = {i} the partner row of N(i) is N(i).
    """
    i = (part & -part).bit_length() - 1
    j = part.bit_length() - 1
    n_i, n_j = rows[i] ^ 1 << i, rows[j] ^ 1 << j
    to_i = n_j ^ n_i if rows[j] >> j & 1 else n_j
    to_j = n_i ^ n_j if rows[i] >> i & 1 else n_i
    out = list(rows)
    for m, to in ((n_i, n_i),) if i == j else ((n_i, to_i), (n_j, to_j)):
        while m:
            x = m.bit_length() - 1
            out[x] ^= to
            m ^= 1 << x
    return tuple(out)


def _elementary_parts(rows: tuple[int, ...], within: int):
    """Applicable elementary pivots of packed graph rows inside a mask, as
    bitmasks: loops first by label, then loopless edges in lexicographic order."""
    m, looped = within, 0
    while m:
        low = m & -m
        m ^= low
        if rows[low.bit_length() - 1] & low:
            looped |= low
            yield low
    m = free = within & ~looped
    while m:
        low = m & -m
        m ^= low
        later = rows[low.bit_length() - 1] & free & -(low << 1)
        while later:
            high = later & -later
            later ^= high
            yield low | high


def elementary_pivots(G: Matrix) -> tuple[SubsetMask, ...]:
    """The applicable elementary pivots of G: loops and loopless edges."""
    require_graph(G)
    return tuple(
        SubsetMask(G.domain, b) for b in _elementary_parts(G.rows, (1 << G.n) - 1)
    )


def elementary_decomposition(G: Matrix, Y: SubsetMask) -> list[SubsetMask]:
    """Split a valid pivot subset into loops and loopless edges.

    The parts are disjoint with union Y, and applying the matching
    elementary pivots left to right reproduces the pivot of G on Y.  Each
    step greedily takes the first applicable elementary pivot P (smallest
    loop, else smallest edge) inside what remains, R, and never needs to
    back off: by nullity invariance n((G*P)[R - P]) = n(G[P ^ (R - P)]) =
    n(G[R]), so every remaining block has the nullity of G[Y].  When G[Y]
    is nonsingular, so is every remaining block, and a nonempty one has a
    loop or, being loopless, an edge: some elementary pivot always applies.
    When G[Y] is singular, no remaining block is empty, so the loop stalls
    on a block with neither and raises PivotUndefinedError.
    """
    require_graph(G)
    check_same_domain(G, Y)
    rows, remaining, parts = G.rows, Y.bits, []
    while remaining:
        part = next(_elementary_parts(rows, remaining), None)
        if part is None:
            raise PivotUndefinedError(f"pivot undefined: G[{Y}] singular", Y)
        rows = _elementary_pivot_rows(rows, part)
        remaining ^= part
        parts.append(SubsetMask(G.domain, part))
    return parts


class PivotOrbit(_Value):
    """Closure of a graph under pivot, with the elementary moves that connect it.

    ``graphs`` is ordered canonically by adjacency rows; each move is a
    triple (i, X, j) meaning graphs[i] pivoted on X gives graphs[j], stored
    once per unordered pair.
    """

    __slots__ = ("graphs", "moves")
    graphs: tuple[Matrix, ...]
    moves: tuple[tuple[int, SubsetMask, int], ...]


def pivot_orbit(G: Matrix, max_graphs: int = 10**6) -> PivotOrbit:
    """Breadth-first closure of G under all pivots.

    Every pivot factors into elementary ones, so expanding only loops and
    loopless edges reaches the whole orbit.  The search is keyed by the
    pivot subset X of G, not by the graph: for defined pivots
    (G*X)*P = G*(X ^ P), so the elementary move P from G*X leads to the
    subset X ^ P, and a subset reached before needs no pivot at all.  Each
    newly reached subset costs one elementary pivot.  A new subset whose
    graph is already known (G*Y = G*X' with Y != X', as an isolated looped
    vertex gives) is an alias and is not expanded: its moves and targets
    are those of the graph it equals.  The orbit always contains G, so
    ``max_graphs`` must be at least 1; it counts distinct graphs.  The
    moves are read off the search's map from subsets to graphs once the
    orbit is complete, as :func:`_orbit_search` describes.
    """
    graphs, moves = _orbit_search(G, max_graphs)
    domain = G.domain
    return PivotOrbit(
        tuple(Matrix(GF2, domain, rows) for rows in graphs),
        tuple((a, SubsetMask(domain, part), b) for a, b, part in moves),
    )


def _orbit_search(G: Matrix, max_graphs: int):
    """The search behind :func:`pivot_orbit`, on packed rows.

    Returns the orbit's row tuples in canonical order and an iterator over
    its moves as ``(a, b, part)`` triples with ``a <= b`` and ``part`` a
    bitmask, sorted.  The search stores no move: for each graph it keeps
    only the subset that first reached it, and the move P from graph a
    leads to the graph of that subset ^ P, which the search has reached
    since it expanded a from there.  An elementary pivot is its own
    inverse and applies at both ends of its move, so listing from each
    graph a only the moves with a <= b lists each move once.  The search
    runs, and raises :class:`OrbitOverflowError`, before this returns.
    """
    require_graph(G)
    if max_graphs < 1:
        raise ValueError(f"max_graphs must be at least 1, got {max_graphs}")
    full = (1 << G.n) - 1
    seen = {G.rows: 0}
    reached = {0: 0}
    order = [G.rows]
    firsts = [0]
    # Breadth first: both lists grow as the loop runs, one entry per new graph.
    for X, rows in zip(firsts, order):
        for part in _elementary_parts(rows, full):
            Y = X ^ part
            if Y not in reached:
                K = _elementary_pivot_rows(rows, part)
                ki = seen.get(K)
                if ki is None:
                    if len(order) >= max_graphs:
                        raise OrbitOverflowError(
                            f"pivot orbit exceeds {max_graphs} graphs"
                        )
                    ki = len(order)
                    seen[K] = ki
                    order.append(K)
                    firsts.append(Y)
                reached[Y] = ki
    del seen  # frees the rows-to-graph map before the ranking copies the orbit
    ranking = sorted(range(len(order)), key=order.__getitem__)
    relabel = [0] * len(order)
    for new, old in enumerate(ranking):
        relabel[old] = new
    for Y, old in reached.items():
        reached[Y] = relabel[old]
    graphs = [order[old] for old in ranking]
    firsts = [firsts[old] for old in ranking]
    return graphs, _orbit_moves(graphs, firsts, reached, full)


def _orbit_moves(graphs, firsts, index, full):
    """Yield the moves of an orbit from :func:`_orbit_search`'s maps: graph
    a is reached by subset ``firsts[a]``, and ``index`` maps each reached
    subset to its graph."""
    for a, rows in enumerate(graphs):
        X = firsts[a]
        ends = []
        for part in _elementary_parts(rows, full):
            b = index[X ^ part]
            if a <= b:
                ends.append((b, part))
        ends.sort()
        for b, part in ends:
            yield a, b, part

"""Expected CLI output, computed without the package under test.

Everything here is standard library only and deliberately uses other
algorithms than pivotpoly does, so a change to the package cannot change
what the benchmark expects:

* subset nullities come from one depth-first walk over the labels that
  inserts, per label, either the matrix row or the identity row into an
  echelon basis (n(A[X]) equals the nullity of A with the rows outside X
  replaced by identity rows);
* rational ranks are taken modulo the prime 2^61 - 1 after clearing
  denominators, which is exact because the Hadamard bound of every minor is
  checked to stay below the prime;
* pivots are computed from the partial-inverse law on the graph of the
  linear map, and a pivot orbit is {G*X : G[X] nonsingular}.

The output text follows the formats documented in the package README.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

PRIME = (1 << 61) - 1


def f2_subset_nullities(rows: list[int]) -> list[int]:
    """Nullity of A[X] over GF(2) for every mask X, indexed by mask."""
    n = len(rows)
    out = [0] * (1 << n)

    def insert(basis: list[int], v: int) -> int:
        while v:
            h = v.bit_length() - 1
            if not basis[h]:
                basis[h] = v
                return 1
            v ^= basis[h]
        return 0

    def walk(i: int, mask: int, basis: list[int], rnk: int) -> None:
        if i == n:
            out[mask] = n - rnk
            return
        for bit, row in ((0, 1 << i), (1 << i, rows[i])):
            b = basis[:]
            walk(i + 1, mask | bit, b, rnk + insert(b, row))

    walk(0, 0, [0] * n, 0)
    return out


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by its denominators' lcm; ranks of every A[X] stay the same."""
    out = []
    for row in rows:
        fr = [Fraction(e) for e in row]
        d = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * d) for f in fr])
    return out


def q_subset_nullities(rows) -> list[int]:
    """Nullity of A[X] over the rationals for every mask X, indexed by mask."""
    n = len(rows)
    ints = _integer_rows(rows)
    bound_sq = 1
    for row in ints:
        bound_sq *= max(1, sum(e * e for e in row))
    if bound_sq >= PRIME * PRIME:
        raise ValueError("entries too large for an exact rank modulo the prime")
    mod_rows = [[e % PRIME for e in row] for row in ints]
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [0] * (1 << n)

    def insert(basis: dict[int, list[int]], v: list[int]) -> int:
        for c in sorted(basis):
            f = v[c]
            if f:
                b = basis[c]
                v = [(x - f * y) % PRIME for x, y in zip(v, b)]
        for c, x in enumerate(v):
            if x:
                inv = pow(x, PRIME - 2, PRIME)
                basis[c] = [y * inv % PRIME for y in v]
                return 1
        return 0

    def walk(i: int, mask: int, basis: dict, rnk: int) -> None:
        if i == n:
            out[mask] = n - rnk
            return
        for bit, row in ((0, units[i]), (1 << i, mod_rows[i])):
            b = dict(basis)
            walk(i + 1, mask | bit, b, rnk + insert(b, row))

    walk(0, 0, {}, 0)
    return out


def histogram(nul: list[int], n: int) -> list[int]:
    """Subsets per nullity class; every printed norm is one of these."""
    counts = [0] * (n + 1)
    for k in nul:
        counts[k] += 1
    if sum(counts) != 1 << n:
        raise AssertionError("nullity classes do not sum to 2^n")
    return counts


def norm_text(counts) -> str:
    return "(" + ",".join(str(c) for c in counts) + ")"


def subset_text(labels, mask: int) -> str:
    return "{" + ",".join(lab for i, lab in enumerate(labels) if mask >> i & 1) + "}"


def pseq_text(labels, nul: list[int], norm_only: bool) -> str:
    n = len(labels)
    counts = histogram(nul, n)
    lines = []
    if not norm_only:
        classes: list[list[str]] = [[] for _ in range(n + 1)]
        for mask, k in enumerate(nul):
            classes[k].append(subset_text(labels, mask))
        lines = [f"{k}: {{{','.join(c)}}}" for k, c in enumerate(classes) if c]
    lines.append(f"norm: {norm_text(counts)}")
    return "\n".join(lines) + "\n"


def _poly_text(coeffs) -> str:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return " ".join(str(c) for c in coeffs) if coeffs else "0"


def interlace_text(nul: list[int], n: int) -> str:
    """The `interlace` output: q'(y) from the nullity classes, q(y) = q'(y - 1)."""
    h = histogram(nul, n)
    q = [
        sum(h[i] * comb(i, k) * (-1) ** (i - k) for i in range(k, n + 1))
        for k in range(n + 1)
    ]
    return f"q': {_poly_text(h)}\nq: {_poly_text(q)}\n"


def overlap_rows(dos) -> list[int]:
    """Adjacency rows of the overlap graph, letters in sorted order."""
    letters = sorted(set(dos))
    pos: dict[str, list[int]] = {}
    for p, lab in enumerate(dos):
        pos.setdefault(lab, []).append(p)
    rows = [0] * len(letters)
    for i, u in enumerate(letters):
        a, b = pos[u]
        for j, v in enumerate(letters):
            if i != j and sum(a < t < b for t in pos[v]) == 1:
                rows[i] |= 1 << j
    return rows


def distribution_text(dos) -> str:
    rows = overlap_rows(dos)
    counts = norm_text(histogram(f2_subset_nullities(rows), len(rows)))
    return f"distribution: {counts}\nnorm: {counts}\nmatch\n"


def f2_pivot(rows: list[int], x_bits: int) -> "tuple[int, ...] | None":
    """The pivot A*X over GF(2), or None when A[X] is singular.

    Row j of A is the constraint A_j x + y_j = 0 on the graph {(x, Ax)}.
    Swapping the x and y coordinates inside X and solving the constraints
    for the new y gives the rows of A*X.
    """
    n = len(rows)
    low = (1 << n) - 1
    vecs = []
    for j, row in enumerate(rows):
        x, y = row, 1 << j
        d = (x ^ y) & x_bits
        vecs.append((x ^ d) | (y ^ d) << n)
    for k in range(n):
        bit = 1 << (n + k)
        p = next((r for r in range(k, n) if vecs[r] & bit), None)
        if p is None:
            return None
        vecs[k], vecs[p] = vecs[p], vecs[k]
        pv = vecs[k]
        for r in range(n):
            if r != k and vecs[r] & bit:
                vecs[r] ^= pv
    return tuple(v & low for v in vecs)


def orbit_graphs(rows: list[int]) -> list[tuple[int, ...]]:
    """The pivot orbit of a graph, sorted by adjacency rows."""
    nul = f2_subset_nullities(rows)
    found = {f2_pivot(rows, x) for x, k in enumerate(nul) if k == 0}
    return sorted(found)


def _elementary_parts(rows: tuple[int, ...]) -> list[int]:
    n = len(rows)
    looped = [rows[i] >> i & 1 for i in range(n)]
    parts = [1 << i for i in range(n) if looped[i]]
    parts += [
        (1 << i) | (1 << j)
        for i in range(n)
        for j in range(i + 1, n)
        if rows[i] >> j & 1 and not looped[i] and not looped[j]
    ]
    return parts


def graph_text(labels, rows) -> str:
    n = len(labels)
    lines = ["graph", " ".join(labels)]
    lines += [
        f"{labels[i]} {labels[j]}"
        for i in range(n)
        for j in range(i, n)
        if rows[i] >> j & 1
    ]
    return "\n".join(lines) + "\n"


def orbit_text(labels, graphs: list[tuple[int, ...]]) -> str:
    index = {g: i for i, g in enumerate(graphs)}
    moves = set()
    for a, H in enumerate(graphs):
        for part in _elementary_parts(H):
            b = index[f2_pivot(list(H), part)]
            moves.add((min(a, b), max(a, b), part))
    out = [f"orbit size {len(graphs)}\n"]
    for idx, H in enumerate(graphs):
        out.append(f"graph {idx}\n")
        out.append(graph_text(labels, H))
    out.append("moves\n")
    out += [f"{a} {subset_text(labels, part)} {b}\n" for a, b, part in sorted(moves)]
    return "".join(out)

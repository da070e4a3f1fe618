"""Independent brute-force oracles, used only by the tests.

These stay deliberately naive: per-entry elimination, permutation expansion,
and minor search, so they share no code path with the packed-row production
routines they check.
"""

from fractions import Fraction
from itertools import combinations, permutations


def gf2_rank_entrywise(entries) -> int:
    """Gaussian elimination mod 2 on a plain list-of-lists."""
    a = [[int(x) & 1 for x in row] for row in entries]
    m = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][col]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_by_expansion(entries) -> Fraction:
    """Leibniz permutation expansion; fine for n <= 6."""
    n = len(entries)
    total = Fraction(0)
    for perm in permutations(range(n)):
        product = Fraction(1)
        for i in range(n):
            product *= Fraction(entries[i][perm[i]])
            if product == 0:
                break
        total += permutation_sign(perm) * product
    return total


def rank_by_minors(entries, mod2=False) -> int:
    """Largest k with a nonzero k x k minor, by exhaustive search; with
    ``mod2`` a minor counts as nonzero when it is odd (the rank over GF(2))."""
    n = len(entries)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = [[entries[i][j] for j in cols] for i in rows]
                det = det_by_expansion(minor)
                if (det % 2 if mod2 else det) != 0:
                    return k
    return 0


def gauss_jordan_inverse(entries):
    """Textbook Gauss-Jordan over Fractions; None when singular."""
    n = len(entries)
    work = [
        [Fraction(entries[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def gf2_gauss_jordan_inverse(entries):
    """Mod-2 twin of gauss_jordan_inverse on 0/1 ints; None when singular."""
    n = len(entries)
    work = [
        [int(entries[i][j]) & 1 for j in range(n)] + [int(i == j) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        for r in range(n):
            if r != col and work[r][col]:
                work[r] = [x ^ y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def block_formula_pivot(entries, xs, mod2=False):
    """Textbook pivot on the index list xs, entry by entry; None when A[xs] is singular.

    With P = A[xs], Q, R and S the other blocks, the pivot is
    (P^-1 | -P^-1 Q ; R P^-1 | S - R P^-1 Q), each block left in place.
    Over GF(2) (mod2=True) entries are 0/1 ints and every sum is taken mod 2.
    """
    n = len(entries)
    P = [[entries[i][j] for j in xs] for i in xs]
    Pinv = gf2_gauss_jordan_inverse(P) if mod2 else gauss_jordan_inverse(P)
    if Pinv is None:
        return None
    at = {i: a for a, i in enumerate(xs)}
    k = len(xs)

    def entry(i, j):
        if i in at and j in at:
            v = Pinv[at[i]][at[j]]
        elif i in at:
            v = -sum(Pinv[at[i]][b] * entries[xs[b]][j] for b in range(k))
        elif j in at:
            v = sum(entries[i][xs[a]] * Pinv[a][at[j]] for a in range(k))
        else:
            v = entries[i][j] - sum(
                entries[i][xs[a]] * Pinv[a][b] * entries[xs[b]][j]
                for a in range(k)
                for b in range(k)
            )
        return v % 2 if mod2 else Fraction(v)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def dense_product(a, b, mod2=False):
    """Entrywise product of two n x n lists of lists: sum over t of
    a[i][t] * b[t][j], taken mod 2 when mod2, else as a Fraction."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = 0
            for t in range(n):
                v += a[i][t] * b[t][j]
            row.append(v % 2 if mod2 else Fraction(v))
        out.append(row)
    return out


def identity_outside(entries, bits):
    """An n x n list of lists with each row i outside mask ``bits`` replaced
    by row i of the identity."""
    n = len(entries)
    return [list(row) if bits >> i & 1 else [int(i == j) for j in range(n)]
            for i, row in enumerate(entries)]


def graph_from_set_system(n, members):
    """The 0/1 adjacency of the graph on n vertices whose nonsingular subsets,
    as masks, are ``members``.  Vertex i is looped when {i} is a member; over
    GF(2), det [[a, e], [e, b]] = ab + e, so i ~ j when the membership of
    {i, j} differs from i and j both being looped."""
    loop = [1 << i in members for i in range(n)]
    return [[int(loop[i] if i == j else (1 << i | 1 << j in members) != (loop[i] and loop[j]))
             for j in range(n)] for i in range(n)]


def mat_vec_by_fractions(entries, xs) -> list:
    """A x over Q as n Fraction products and sums an entry."""
    vec = [Fraction(x) for x in xs]
    return [sum((Fraction(a) * v for a, v in zip(row, vec)), Fraction(0)) for row in entries]


def rational_rank_entrywise(entries) -> int:
    """Gaussian elimination over Fractions on a plain list-of-lists."""
    a = [[Fraction(x) for x in row] for row in entries]
    m = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            if a[i][col] != 0:
                factor = a[i][col] / a[r][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def subset_nullities_by_elimination(A):
    """Nullity of every principal submatrix A[X] as bytes, indexed by mask,
    one entrywise elimination per subset (GF(2) when A.field is "f2")."""
    entries = A.to_entries()
    n = len(entries)
    rank = gf2_rank_entrywise if A.field == "f2" else rational_rank_entrywise
    out = []
    for bits in range(1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        out.append(len(idx) - rank([[entries[i][j] for j in idx] for i in idx]))
    return bytes(out)


def partition_listing_by_mask(domain, nullities) -> str:
    """The partition-sequence listing, built one mask at a time: each
    class's members are label joins taken in increasing mask order."""
    n = len(domain)
    lines = []
    for i in range(n + 1):
        members = [
            "{" + ",".join(domain[j] for j in range(n) if bits >> j & 1) + "}"
            for bits in range(len(nullities))
            if nullities[bits] == i
        ]
        if members:
            lines.append(str(i) + ": {" + ",".join(members) + "}")
    sizes = [str(list(nullities).count(i)) for i in range(n + 1)]
    lines.append("norm: (" + ",".join(sizes) + ")")
    return "\n".join(lines) + "\n"


def graph_text_entrywise(G) -> str:
    """A graph file, one entry test per pair of labels at or after the
    diagonal: the graph printer as it was before the block writer."""
    lines = ["graph", " ".join(G.domain)]
    for i in range(G.n):
        for j in range(i, G.n):
            if G.entry_at(i, j):
                lines.append(f"{G.domain[i]} {G.domain[j]}")
    return "\n".join(lines) + "\n"


def orbit_text_by_objects(orbit) -> str:
    """`pivotpoly orbit` stdout from a PivotOrbit's Matrix and SubsetMask
    values, one graph file and one ``str(X)`` per move."""
    out = [f"orbit size {len(orbit.graphs)}\n"]
    for idx, H in enumerate(orbit.graphs):
        out.append(f"graph {idx}\n")
        out.append(graph_text_entrywise(H))
    out.append("moves\n")
    for a, X, b in orbit.moves:
        out.append(f"{a} {X} {b}\n")
    return "".join(out)


def recursion_memo_rows(entries) -> int:
    """Sum of k over the distinct subgraphs on k >= 1 vertices that the
    last-vertex deletion recursion reaches from the 0/1 graph ``entries``,
    each stripped of its trailing isolated loopless vertices.  X is {u} for
    a looped last vertex u, else {u, v} for its highest neighbour v, and the
    pivot is taken by the block formula."""
    seen = set()

    def walk(a):
        while a and not any(a[-1]):
            a = [row[:-1] for row in a[:-1]]
        key = tuple(map(tuple, a))
        if not a or key in seen:
            return
        seen.add(key)
        u = len(a) - 1
        xs = [u] if a[u][u] else [max(j for j in range(u) if a[u][j]), u]
        for b in (a, block_formula_pivot(a, xs, mod2=True)):
            walk([row[:u] for row in b[:u]])

    walk([list(row) for row in entries])
    return sum(map(len, seen))

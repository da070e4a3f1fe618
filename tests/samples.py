"""Fixed inputs, and one kernel-patching helper, shared across the test modules."""

import random
from fractions import Fraction

from pivotpoly import GF2, Matrix, RATIONAL, SubsetMask, graph_from_edges, matrix
from pivotpoly.randgen import labels_for, random_graph

# 3x3 rational matrix with a singular {b,c} block and nonsingular {a,b} block.
def sample_rational_matrix() -> Matrix:
    return Matrix.from_entries(
        RATIONAL, ["a", "b", "c"], [[1, 2, 5], [1, 4, 2], [3, 2, 1]]
    )


# Its pivot on {a,b}, entry for entry.
SAMPLE_PIVOT_AB = [
    [Fraction(2), Fraction(-1), Fraction(-8)],
    [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)],
    [Fraction(5), Fraction(-2), Fraction(-20)],
]


def big_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))


def big_fraction_entries(rng, n: int, dependent: bool) -> list[list[Fraction]]:
    """An n x n array of p/q entries with large numerators and denominators.

    With ``dependent``, rows k..n-1 (k drawn from 1..n) are rational
    combinations of rows 0..k-1, so that submatrices of every size can be
    singular.
    """
    rows = [[big_fraction(rng) for _ in range(n)] for _ in range(n)]
    if dependent:
        k = rng.randint(1, n)
        for i in range(k, n):
            coeffs = [big_fraction(rng) * rng.randint(0, 1) for _ in range(k)]
            rows[i] = [sum(c * rows[t][j] for t, c in enumerate(coeffs)) for j in range(n)]
    return rows


def rational_stress_matrices(rng, count: int, max_n: int) -> list[Matrix]:
    """Inputs that run the denominator clearing of the rational kernels.

    The empty matrix; the zero, identity and all-ones matrices of sizes
    1..max_n; then ``count`` matrices of :func:`big_fraction_entries`, every
    other one with dependent rows.
    """
    out = [Matrix.zeros(RATIONAL, [])]
    for n in range(1, max_n + 1):
        labels = labels_for(n)
        out.append(Matrix.zeros(RATIONAL, labels))
        out.append(Matrix.identity(RATIONAL, labels))
        out.append(Matrix.from_entries(RATIONAL, labels, [[1] * n for _ in range(n)]))
    for trial in range(count):
        n = rng.randint(1, max_n)
        entries = big_fraction_entries(rng, n, dependent=trial % 2 == 1)
        out.append(Matrix.from_entries(RATIONAL, labels_for(n), entries))
    return out


def all_graphs(n: int):
    """Every symmetric GF(2) matrix on n labeled vertices."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for code in range(1 << len(pairs)):
        entries = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                entries[i][j] = entries[j][i] = 1
        yield Matrix.from_entries(GF2, labels, entries)


# Four-vertex graph with loops on 2 and 3; pivoting on {1,2,3} lands on the
# partner graph below.
def pivot_pair_left() -> Matrix:
    return graph_from_edges(
        "1 2 3 4".split(),
        [("2", "3"), ("2", "4"), ("1", "3"), ("3", "4"), ("2", "2"), ("3", "3")],
    )


def pivot_pair_right() -> Matrix:
    return graph_from_edges(
        "1 2 3 4".split(),
        [("1", "2"), ("1", "3"), ("2", "4"), ("2", "2"), ("4", "4")],
    )


def loopless(G: Matrix) -> Matrix:
    """G with every loop removed."""
    return Matrix(GF2, G.domain, tuple(r & ~(1 << i) for i, r in enumerate(G.rows)))


def path_graph(n: int) -> Matrix:
    """The loopless path on the labels of ``labels_for(n)``, in order."""
    labels = labels_for(n)
    return graph_from_edges(labels, list(zip(labels, labels[1:])))


# Known partition classes (by nullity) for the pair, as label tuples.
LEFT_CLASSES = {
    0: [(), ("2",), ("3",), ("1", "3"), ("2", "4"), ("3", "4"), ("1", "2", "3"), ("1", "2", "3", "4")],
    1: [("1",), ("4",), ("1", "2"), ("2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")],
    2: [("1", "4")],
}

RIGHT_CLASSES = {
    0: [(), ("2",), ("4",), ("1", "2"), ("1", "3"), ("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4")],
    1: [("1",), ("3",), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"), ("1", "2", "3", "4")],
    2: [("2", "3", "4")],
}

PAIR_NORM = (8, 7, 1, 0, 0)


def classes_to_masks(domain, classes: dict) -> tuple:
    """Expand label-tuple classes into bitmask frozensets, one per nullity 0..n."""
    out = []
    for i in range(len(domain) + 1):
        masks = frozenset(
            SubsetMask.of(domain, labels).bits for labels in classes.get(i, [])
        )
        out.append(masks)
    return tuple(out)


# A five-graph pivot orbit on {p,q,r}, chained by the moves listed below.
def small_orbit_graphs() -> list[Matrix]:
    labels = "p q r".split()
    return [
        graph_from_edges(labels, [("p", "q"), ("p", "r"), ("q", "q")]),
        graph_from_edges(labels, [("p", "q"), ("p", "r"), ("p", "p"), ("q", "q")]),
        graph_from_edges(labels, [("p", "q"), ("p", "r"), ("q", "r"), ("p", "p"), ("r", "r")]),
        graph_from_edges(labels, [("p", "r"), ("q", "r"), ("q", "q"), ("r", "r")]),
        graph_from_edges(labels, [("p", "r"), ("q", "r"), ("q", "q")]),
    ]


# (source index, pivot labels, target index) into small_orbit_graphs().
SMALL_ORBIT_MOVES = [
    (0, ("q",), 1),
    (1, ("p",), 2),
    (2, ("r",), 3),
    (3, ("q",), 4),
    (4, ("p", "r"), 0),
]


def orbit_writer_cases():
    """Graphs whose orbits cover what the orbit search and its printer meet:
    no move, self-moves, aliased subsets, and labels whose text order is
    not their numeric order."""
    yield small_orbit_graphs()[0]
    yield graph_from_edges(["u"], [])
    yield graph_from_edges(["u"], [("u", "u")])
    # Isolated looped vertices: G*{z} = G, so the orbit has aliased subsets.
    yield graph_from_edges(["p", "q", "r", "z"], [("p", "q"), ("p", "r"), ("q", "q"), ("z", "z")])
    yield graph_from_edges(["p", "q", "y", "z"], [("p", "q"), ("y", "y"), ("z", "z")])
    rng = random.Random(53)
    mixed = ["a", "b10", "b9", "c", "c100", "c11"]
    for _ in range(10):
        edges = [
            (u, v) for i, u in enumerate(mixed) for v in mixed[i:] if rng.random() < 0.4
        ]
        yield graph_from_edges(mixed, edges)
    for k in range(120):
        G = random_graph(rng, rng.randint(1, 10))
        yield loopless(G) if k % 2 else G


SAMPLE_STRING = tuple("146543625123")
REROUTED_STRING = tuple("123625146543")

SAMPLE_OVERLAP_EDGES = {
    frozenset(e)
    for e in [
        ("1", "2"),
        ("1", "3"),
        ("2", "5"),
        ("3", "5"),
        ("4", "5"),
        ("5", "6"),
        ("3", "6"),
        ("4", "6"),
    ]
}


def patch_kernels(monkeypatch, field: str, **kernels) -> None:
    """Replace some of one field's kernels in ``matrix.KERNELS`` for one test.

    Every operation reads its kernels from that table, so patching a kernel
    as a module attribute would not intercept the calls made through it.
    """
    record = matrix.KERNELS[field]
    fields = {f: getattr(record, f) for f in record.__slots__}
    monkeypatch.setitem(matrix.KERNELS, field, type(record)(**{**fields, **kernels}))

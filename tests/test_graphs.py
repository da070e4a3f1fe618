import random
import tracemalloc
from collections import Counter, deque
from itertools import chain

import pytest

from pivotpoly import (
    GF2,
    Matrix,
    OrbitOverflowError,
    PivotUndefinedError,
    SetSystem,
    SubsetMask,
    edge_complement,
    edges_of,
    elementary_decomposition,
    elementary_pivots,
    graph_from_edges,
    local_complement,
    norm,
    partition_sequence_of,
    pivot,
    pivot_orbit,
    set_system_of,
)
import pivotpoly.graphs as graphs_module
import pivotpoly.interlace as interlace_module
from pivotpoly.cli import main
from pivotpoly.formats import format_graph, format_orbit_blocks
from pivotpoly.graphs import require_graph
from pivotpoly.interlace import interlace_recursive
from pivotpoly.matrix import f2_pivot_rows
from pivotpoly.randgen import random_graph

import oracles
from samples import (
    SMALL_ORBIT_MOVES,
    all_graphs,
    loopless,
    orbit_writer_cases,
    path_graph,
    pivot_pair_left,
    pivot_pair_right,
    small_orbit_graphs,
)


def test_graph_round_trip_through_edges():
    edges = [("a", "b"), ("b", "b"), ("a", "c")]
    G = graph_from_edges(["a", "b", "c"], edges)
    assert set(edges_of(G)) == {("a", "b"), ("b", "b"), ("a", "c")}
    assert G.is_symmetric()


def test_graph_from_edges_checks_its_labels_before_any_edge():
    read = []

    def edges():
        read.append(("a", "b"))
        yield "a", "b"

    with pytest.raises(ValueError, match="^duplicate labels in domain$"):
        graph_from_edges(["a", "a", "b"], edges())
    assert read == []
    with pytest.raises(ValueError, match="^invalid label 'a b'"):
        graph_from_edges(["a b", "c"], edges())
    assert read == []


@pytest.mark.parametrize(
    "edges,message",
    [
        ([("a", "b"), ("b", "a")], "duplicate edge b a"),
        ([("a", "b"), ("a", "b")], "duplicate edge a b"),
        ([("b", "b"), ("a", "b"), ("b", "b")], "duplicate edge b b"),
    ],
)
def test_graph_from_edges_rejects_a_repeated_edge(edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        graph_from_edges(["a", "b"], edges)


def test_require_graph_rejects_non_graphs():
    lopsided = Matrix.from_entries(GF2, ["a", "b"], [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        require_graph(lopsided)
    from samples import sample_rational_matrix

    with pytest.raises(ValueError):
        require_graph(sample_rational_matrix())


# --- local complementation -------------------------------------------------------

def test_local_complement_walks_the_small_orbit():
    one, two, three, four, five = small_orbit_graphs()
    assert local_complement(one, "q") == two
    assert local_complement(two, "p") == three
    assert local_complement(three, "r") == four
    assert local_complement(four, "q") == five


def test_local_complement_isolated_loop_is_identity():
    G = graph_from_edges(["u"], [("u", "u")])
    assert local_complement(G, "u") == G


def test_local_complement_requires_loop():
    G = graph_from_edges(["u", "v"], [("u", "v")])
    with pytest.raises(PivotUndefinedError, match="no loop"):
        local_complement(G, "u")


def test_local_complement_is_involution():
    rng = random.Random(2)
    done = 0
    while done < 40:
        G = random_graph(rng, rng.randint(1, 8))
        looped = [u for u, v in edges_of(G) if u == v]
        if not looped:
            continue
        u = looped[0]
        assert local_complement(local_complement(G, u), u) == G
        done += 1


# --- edge complementation ----------------------------------------------------------

def test_edge_complement_closes_the_small_orbit():
    graphs = small_orbit_graphs()
    assert edge_complement(graphs[4], "p", "r") == graphs[0]


def test_edge_complement_is_involution():
    rng = random.Random(3)
    done = 0
    while done < 40:
        G = random_graph(rng, rng.randint(2, 8))
        pairs = [
            (u, v)
            for u, v in edges_of(G)
            if u != v and (u, u) not in edges_of(G) and (v, v) not in edges_of(G)
        ]
        if not pairs:
            continue
        u, v = pairs[0]
        assert edge_complement(edge_complement(G, u, v), u, v) == G
        done += 1


def test_edge_complement_lone_edge_is_fixed():
    G = graph_from_edges(["u", "v"], [("u", "v")])
    assert edge_complement(G, "u", "v") == G


def test_edge_complement_preconditions():
    G = graph_from_edges(["u", "v", "w"], [("u", "v"), ("v", "v"), ("u", "w")])
    with pytest.raises(PivotUndefinedError, match="no edge"):
        edge_complement(G, "v", "w")
    with pytest.raises(PivotUndefinedError, match="loop"):
        edge_complement(G, "u", "v")
    with pytest.raises(PivotUndefinedError):
        edge_complement(G, "u", "u")


# --- elementary pivots equal matrix pivots -------------------------------------------

def test_elementary_operations_match_matrix_pivot():
    rng = random.Random(7)
    for _ in range(120):
        G = random_graph(rng, rng.randint(1, 8))
        for X in elementary_pivots(G):
            labels = X.labels()
            if len(labels) == 1:
                assert local_complement(G, labels[0]) == pivot(G, X)
            else:
                assert edge_complement(G, labels[0], labels[1]) == pivot(G, X)


def test_pivot_kernel_matches_the_matrix_pivot_on_one_or_two_vertices():
    # Every X the kernel takes: a looped vertex, or an edge with at most one
    # looped end (with two the block is singular).
    rng = random.Random(41)
    one_looped_end = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        rows = random_graph(rng, n).rows
        for i in range(n):
            for j in range(i, n):
                if i != j and not rows[i] >> j & 1:
                    continue
                part = 1 << i | 1 << j
                want = f2_pivot_rows(rows, part)
                if want is None:
                    continue
                one_looped_end += i != j and rows[i] >> i & 1 != rows[j] >> j & 1
                assert graphs_module._elementary_pivot_rows(rows, part) == want, (rows, part)
    assert one_looped_end > 100


def test_packed_pivot_matches_the_row_kernel_at_every_cut():
    # The recursion's kernel on one int, row x at bits x·n.  The recursion
    # cuts each child to the first ``keep`` rows and columns, so the cut
    # packed pivot must be the row pivot restricted to them.
    rng = random.Random(42)
    one_looped_end = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        rows = random_graph(rng, n).rows
        base = sum(1 << x * n for x in range(n))
        graph = sum(r << x * n for x, r in enumerate(rows))
        for i in range(n):
            for j in range(i, n):
                part = 1 << i | 1 << j
                if not rows[i] >> j & 1 or f2_pivot_rows(rows, part) is None:
                    continue
                one_looped_end += i != j and rows[i] >> i & 1 != rows[j] >> j & 1
                pivoted = graphs_module._elementary_pivot_rows(rows, part)
                packed = interlace_module._packed_pivot(graph, part, n, base)
                for keep in range(n + 1):
                    cut = (base & (1 << keep * n) - 1) * ((1 << keep) - 1)
                    low = (1 << keep) - 1
                    want = sum((r & low) << x * n for x, r in enumerate(pivoted[:keep]))
                    assert packed & cut == want, (rows, part, keep)
    assert one_looped_end > 100


# --- decomposition --------------------------------------------------------------------

def test_decomposition_of_single_loop():
    G = graph_from_edges(["u", "v"], [("u", "u"), ("u", "v")])
    parts = elementary_decomposition(G, G.subset("u"))
    assert parts == [G.subset("u")]


def test_decomposition_of_graph_pair_subset():
    G = pivot_pair_left()
    Y = G.subset("1", "2", "3")
    parts = elementary_decomposition(G, Y)
    assert parts == [G.subset("2"), G.subset("1", "3")]
    # composing the elementary pivots reproduces the block-formula pivot
    H = G
    for part in parts:
        labels = part.labels()
        if len(labels) == 1:
            H = local_complement(H, labels[0])
        else:
            H = edge_complement(H, labels[0], labels[1])
    assert H == pivot_pair_right()


def test_decomposition_requires_nonsingular_subset():
    G = pivot_pair_left()
    with pytest.raises(PivotUndefinedError):
        elementary_decomposition(G, G.subset("1", "4"))


def test_greedy_decomposition_exhaustive_small():
    # Every graph with n <= 4 and every subset Y: the greedy walk uses all
    # of Y exactly when G[Y] is nonsingular, else stalls with the
    # documented error.
    for n in range(5):
        for G in all_graphs(n):
            entries = G.to_entries()
            for bits in range(1 << n):
                Y = SubsetMask(G.domain, bits)
                idx = Y.indices()
                block = [[entries[i][j] for j in idx] for i in idx]
                if oracles.gf2_rank_entrywise(block) == len(idx):
                    parts = elementary_decomposition(G, Y)
                    assert sorted(i for part in parts for i in part.indices()) == list(idx)
                    H = G
                    for part in parts:
                        H = pivot(H, part)
                    assert H == pivot(G, Y)
                else:
                    with pytest.raises(PivotUndefinedError) as info:
                        elementary_decomposition(G, Y)
                    assert str(info.value) == f"pivot undefined: G[{Y}] singular"
                    assert info.value.subset == Y


def test_decomposition_composes_to_pivot_everywhere():
    rng = random.Random(11)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 7))
        for bits in sorted(set_system_of(G).members):
            Y = SubsetMask(G.domain, bits)
            parts = elementary_decomposition(G, Y)
            # parts are disjoint and exhaust Y
            union = 0
            for part in parts:
                assert union & part.bits == 0
                union |= part.bits
            assert union == Y.bits
            H = G
            for part in parts:
                labels = part.labels()
                if len(labels) == 1:
                    H = local_complement(H, labels[0])
                else:
                    H = edge_complement(H, labels[0], labels[1])
            assert H == pivot(G, Y)


# --- orbits ------------------------------------------------------------------------------

def test_small_orbit_contents_and_moves():
    graphs = small_orbit_graphs()
    orbit = pivot_orbit(graphs[0])
    assert len(orbit.graphs) == 5
    assert set(orbit.graphs) == set(graphs)
    position = {G: i for i, G in enumerate(orbit.graphs)}
    found = {
        (position[graphs[a]], tuple(X.labels()), position[graphs[b]])
        for a, labels, b in SMALL_ORBIT_MOVES
        for X in [SubsetMask.of(("p", "q", "r"), labels)]
    }
    listed = {(a, tuple(X.labels()), b) for a, X, b in orbit.moves}
    normalized = {(min(a, b), labels, max(a, b)) for a, labels, b in found}
    assert normalized == listed


def test_orbit_of_discrete_graph_is_singleton():
    G = Matrix.zeros(GF2, ["a", "b"])
    orbit = pivot_orbit(G)
    assert orbit.graphs == (G,)
    assert orbit.moves == ()


def test_orbit_of_lone_loop_is_singleton_with_self_move():
    G = graph_from_edges(["u"], [("u", "u")])
    orbit = pivot_orbit(G)
    assert orbit.graphs == (G,)
    assert orbit.moves == ((0, G.subset("u"), 0),)


def test_orbit_members_share_their_norm():
    rng = random.Random(13)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 5))
        orbit = pivot_orbit(G)
        norms = {norm(partition_sequence_of(H)) for H in orbit.graphs}
        assert len(norms) == 1


def test_orbit_overflow_guard():
    graphs = small_orbit_graphs()
    with pytest.raises(OrbitOverflowError):
        pivot_orbit(graphs[0], max_graphs=2)


@pytest.mark.parametrize(
    "G",
    [
        graph_from_edges(["u"], []),
        graph_from_edges(["u", "v"], [("u", "v")]),
        small_orbit_graphs()[0],
    ],
    ids=["loopless-vertex", "lone-edge", "small-orbit"],
)
@pytest.mark.parametrize("cap", [0, -1])
def test_orbit_cap_below_one_is_rejected(G, cap):
    # The orbit always contains G, so no cap below 1 can be met; graphs
    # without any elementary pivot used to slip through as one-graph orbits.
    with pytest.raises(ValueError, match="max_graphs"):
        pivot_orbit(G, max_graphs=cap)


def random_graphs_both_kinds(seed, count, max_n):
    rng = random.Random(seed)
    for k in range(count):
        G = random_graph(rng, rng.randint(1, max_n))
        yield loopless(G) if k % 2 else G


def with_isolated_loops(G, count):
    """G plus ``count`` isolated looped vertices, each of which aliases
    every pivot subset X with X + {z}."""
    extra = [f"z{k}" for k in range(count)]
    return graph_from_edges(
        G.domain + tuple(extra), list(edges_of(G)) + [(z, z) for z in extra]
    )


def orbit_test_graphs():
    yield from random_graphs_both_kinds(29, 60, 7)
    for k, G in enumerate(random_graphs_both_kinds(47, 20, 6)):
        yield with_isolated_loops(G, 1 + k % 3)


def test_orbit_equals_pivots_on_the_set_system():
    for G in chain(orbit_test_graphs(), orbit_writer_cases()):
        orbit = pivot_orbit(G)
        expected = {
            pivot(G, SubsetMask(G.domain, bits)) for bits in set_system_of(G).members
        }
        assert set(orbit.graphs) == expected
        assert len(orbit.graphs) == len(expected)
        assert list(orbit.graphs) == sorted(orbit.graphs, key=lambda H: H.rows)
        # The listing is complete: every elementary pivot P of every orbit
        # graph a, leading to graph b, appears exactly once, as
        # (min(a, b), P, max(a, b)), and the moves come sorted by
        # (a, b, P) with P read as its bitmask.
        position = {H: i for i, H in enumerate(orbit.graphs)}
        brute = set()
        for a, H in enumerate(orbit.graphs):
            for P in elementary_pivots(H):
                b = position[pivot(H, P)]
                brute.add((min(a, b), P, max(a, b)))
        assert Counter(orbit.moves) == dict.fromkeys(brute, 1)
        keys = [(a, b, X.bits) for a, X, b in orbit.moves]
        assert keys == sorted(keys)


def test_orbit_holds_no_move_list():
    # The search keeps one subset per graph and reads each move off its
    # subset map while printing, so the 16 104 moves of a 16-vertex path's
    # orbit (1 597 graphs) are never held at once.
    G = path_graph(16)
    tracemalloc.start()
    try:
        rows, moves = graphs_module._orbit_search(G, 10**6)
        deque(format_orbit_blocks(G.domain, rows, moves), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 1597
    assert peak < 1.5 * (1 << 20)


def test_orbit_pivots_once_per_reached_subset(monkeypatch):
    # (G*X)*P = G*(X ^ P): the search pays one elementary pivot per newly
    # reached subset of G, never one per move.
    calls = [0]
    real = graphs_module._elementary_pivot_rows

    def counting(rows, part):
        calls[0] += 1
        return real(rows, part)

    monkeypatch.setattr(graphs_module, "_elementary_pivot_rows", counting)
    for G in random_graphs_both_kinds(37, 60, 8):
        calls[0] = 0
        pivot_orbit(G)
        assert calls[0] <= len(set_system_of(G).members) - 1


def test_orbit_cap_counts_distinct_graphs_not_aliased_subsets():
    # A looped isolated vertex z has G*{z} = G, so half the subsets of the
    # set system alias a graph already found.
    G = graph_from_edges(
        ["p", "q", "r", "z"], [("p", "q"), ("p", "r"), ("q", "q"), ("z", "z")]
    )
    assert len(set_system_of(G).members) == 10
    orbit = pivot_orbit(G, max_graphs=5)
    assert len(orbit.graphs) == 5
    with pytest.raises(OrbitOverflowError, match="exceeds 4 graphs"):
        pivot_orbit(G, max_graphs=4)


def test_elementary_pivots_match_brute_force_listing():
    for G in random_graphs_both_kinds(31, 200, 7):
        looped = [i for i in range(G.n) if G.entry_at(i, i)]
        expected = [1 << i for i in looped] + [
            (1 << i) | (1 << j)
            for i in range(G.n)
            for j in range(i + 1, G.n)
            if G.entry_at(i, j) and i not in looped and j not in looped
        ]
        assert [X.bits for X in elementary_pivots(G)] == expected


# --- validation at the boundary ---------------------------------------------------------

def count_checks_and_builds(monkeypatch):
    counts = {"checks": 0, "matrices": 0, "masks": 0}
    real_check = graphs_module.require_graph
    real_init = Matrix.__post_init__
    real_mask_init = SubsetMask.__post_init__

    def counting_check(G):
        counts["checks"] += 1
        real_check(G)

    def counting_init(self):
        counts["matrices"] += 1
        real_init(self)

    def counting_mask_init(self):
        counts["masks"] += 1
        real_mask_init(self)

    for module in (graphs_module, interlace_module):
        monkeypatch.setattr(module, "require_graph", counting_check)
    monkeypatch.setattr(Matrix, "__post_init__", counting_init)
    monkeypatch.setattr(SubsetMask, "__post_init__", counting_mask_init)
    return counts


def test_recursion_checks_its_graph_once_and_builds_no_matrix(monkeypatch):
    G = random_graph(random.Random(41), 8)
    assert any(G.rows)
    counts = count_checks_and_builds(monkeypatch)
    interlace_recursive(G)
    assert counts == {"checks": 1, "matrices": 0, "masks": 0}


def test_orbit_builds_one_matrix_per_orbit_graph(monkeypatch):
    G = random_graph(random.Random(43), 8)
    counts = count_checks_and_builds(monkeypatch)
    orbit = pivot_orbit(G)
    assert len(orbit.graphs) > 2
    assert counts == {
        "checks": 1, "matrices": len(orbit.graphs), "masks": len(orbit.moves)
    }


def test_orbit_command_builds_no_per_graph_objects(tmp_path, monkeypatch, capsys):
    # The CLI prints from packed rows: what it builds is the parsed input,
    # the same for an orbit of 5 graphs as for one of 89.
    path = tmp_path / "orbit.graph"
    counts = count_checks_and_builds(monkeypatch)
    seen = []
    for G in (small_orbit_graphs()[0], path_graph(10)):
        path.write_text(format_graph(G))
        counts.update(checks=0, matrices=0, masks=0)
        assert main(["orbit", "--graph", str(path)]) == 0
        seen.append((capsys.readouterr().out.split("\n", 1)[0], dict(counts)))
    (small, first), (large, second) = seen
    assert (small, large) == ("orbit size 5", "orbit size 89")
    assert first == second
    assert first["checks"] == 1 and first["masks"] == 0


# --- reconstruction ------------------------------------------------------------------------

def _rebuilt(S):
    entries = oracles.graph_from_set_system(len(S.domain), S.members)
    return Matrix.from_entries(GF2, S.domain, entries)


def test_graph_rebuilt_from_its_set_system():
    G = pivot_pair_left()
    assert _rebuilt(set_system_of(G)) == G


def test_graph_rebuilt_from_a_set_system_on_an_unsorted_domain():
    # Masks index the set system's own domain; the graph comes out sorted.
    G = _rebuilt(SetSystem(("b", "a"), frozenset({0, 1, 3})))
    assert G.domain == ("a", "b")
    assert edges_of(G) == (("a", "b"), ("b", "b"))


def test_reconstruction_of_discrete_graph():
    G = Matrix.zeros(GF2, ["a", "b", "c"])
    assert _rebuilt(set_system_of(G)) == G


def test_reconstruction_round_trip_random():
    rng = random.Random(17)
    for _ in range(200):
        G = random_graph(rng, rng.randint(0, 8))
        assert _rebuilt(set_system_of(G)) == G

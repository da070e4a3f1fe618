import random
from collections import Counter
from itertools import permutations

import pytest

from pivotpoly import (
    SubsetMask,
    cohn_lempel_check,
    count_euler_circuits,
    cyclic_equal,
    digraph_of,
    edges_of,
    norm,
    nullity,
    overlap_graph,
    parse_dos,
    partition_sequence_of,
    pivot,
    principal_submatrix,
    trace_partition,
    walk_distribution,
    walk_labels,
)
from pivotpoly.circuits import (
    TwoInTwoOutDigraph,
    check_double_occurrence,
    dos_domain,
    walk_counts,
)
from pivotpoly.randgen import random_dos

from samples import REROUTED_STRING, SAMPLE_OVERLAP_EDGES, SAMPLE_STRING


def flips(s, labels):
    return SubsetMask.of(dos_domain(s), labels)


# --- parsing and validation ----------------------------------------------------

def test_parse_dos_contiguous_and_spaced():
    assert parse_dos("1212") == ("1", "2", "1", "2")
    assert parse_dos("ab ba ab ba") == ("ab", "ba", "ab", "ba")


@pytest.mark.parametrize("bad", ["", "121", "1213", "aab"])
def test_parse_dos_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_dos(bad)


def test_check_double_occurrence_length():
    s = check_double_occurrence(SAMPLE_STRING)
    assert len(s) == 2 * len(set(s))


# --- overlap graphs ---------------------------------------------------------------

def test_overlap_graph_of_sample_string():
    ov = overlap_graph(SAMPLE_STRING)
    assert {frozenset(e) for e in edges_of(ov)} == SAMPLE_OVERLAP_EDGES
    assert nullity(ov) == 0
    X = flips(SAMPLE_STRING, ["3", "4", "5", "6"])
    assert nullity(principal_submatrix(ov, X)) == 2


def test_overlap_graph_trivial_strings():
    assert edges_of(overlap_graph(parse_dos("1122"))) == ()
    assert edges_of(overlap_graph(parse_dos("1212"))) == (("1", "2"),)


# --- digraphs ------------------------------------------------------------------------

def test_digraph_of_sample_string():
    d = digraph_of(SAMPLE_STRING)
    want = Counter(
        [
            ("1", "2"), ("3", "1"), ("2", "3"), ("5", "4"), ("4", "6"), ("6", "5"),
            ("1", "4"), ("5", "1"), ("2", "5"), ("6", "2"), ("3", "6"), ("4", "3"),
        ]
    )
    assert Counter(d.arcs) == want


def test_digraph_with_parallel_arcs():
    d = digraph_of(parse_dos("1212"))
    assert Counter(d.arcs) == Counter([("1", "2"), ("2", "1")] * 2)


def test_digraph_degree_invariant_random():
    rng = random.Random(3)
    for _ in range(200):
        s = random_dos(rng, rng.randint(1, 8))
        d = digraph_of(s)
        outs = Counter(t for t, _ in d.arcs)
        ins = Counter(h for _, h in d.arcs)
        assert all(outs[v] == 2 and ins[v] == 2 for v in d.vertices)


def test_random_dos_draws_at_most_26_letters():
    s = random_dos(random.Random(5), 26)
    assert sorted(s) == sorted("abcdefghijklmnopqrstuvwxyz" * 2)
    check_double_occurrence(s)
    with pytest.raises(ValueError, match="at most 26 letters, not 27"):
        random_dos(random.Random(5), 27)


def test_digraph_validation():
    with pytest.raises(ValueError):
        TwoInTwoOutDigraph(("a",), (("a", "a"),))


# --- walk tracing --------------------------------------------------------------------

def test_trace_with_no_flips_is_the_euler_circuit():
    part = trace_partition(SAMPLE_STRING, flips(SAMPLE_STRING, []))
    assert len(part) == 1
    assert part.walks[0] == tuple(range(12))
    assert walk_labels(SAMPLE_STRING, part.walks[0]) == SAMPLE_STRING


def test_trace_with_four_flips_gives_three_walks():
    part = trace_partition(SAMPLE_STRING, flips(SAMPLE_STRING, ["3", "4", "5", "6"]))
    assert len(part) == 3


def test_trace_single_walk_matches_rerouted_string():
    part = trace_partition(SAMPLE_STRING, flips(SAMPLE_STRING, ["1", "3"]))
    assert len(part) == 1
    w = walk_labels(SAMPLE_STRING, part.walks[0])
    assert cyclic_equal(w, REROUTED_STRING)


def test_trace_covers_every_arc_once():
    rng = random.Random(5)
    for _ in range(100):
        s = random_dos(rng, rng.randint(1, 7))
        n = len(set(s))
        X = SubsetMask(dos_domain(s), rng.randrange(1 << n))
        part = trace_partition(s, X)
        seen = [a for walk in part.walks for a in walk]
        assert sorted(seen) == list(range(2 * n))
        assert 1 <= len(part) <= n + 1
        assert all(walk[0] == min(walk) for walk in part.walks)


def test_trace_rejects_foreign_domain():
    with pytest.raises(ValueError):
        trace_partition(SAMPLE_STRING, SubsetMask(("a", "b"), 0))


# --- the walk-count law -----------------------------------------------------------------

def test_cohn_lempel_worked_values():
    assert cohn_lempel_check(SAMPLE_STRING, flips(SAMPLE_STRING, ["3", "4", "5", "6"])) == (3, 3)
    assert cohn_lempel_check(SAMPLE_STRING, flips(SAMPLE_STRING, [])) == (1, 1)


def test_cohn_lempel_exhaustive_on_sample():
    domain = dos_domain(SAMPLE_STRING)
    for bits in range(1 << 6):
        walks, alg = cohn_lempel_check(SAMPLE_STRING, SubsetMask(domain, bits))
        assert walks == alg


def test_cohn_lempel_random_exhaustive():
    rng = random.Random(7)
    for _ in range(40):
        s = random_dos(rng, rng.randint(1, 7))
        domain = dos_domain(s)
        for bits in range(1 << len(domain)):
            walks, alg = cohn_lempel_check(s, SubsetMask(domain, bits))
            assert walks == alg


# --- distributions ------------------------------------------------------------------------

def test_distribution_matches_partition_norm_on_sample():
    dist = walk_distribution(SAMPLE_STRING)
    assert dist == norm(partition_sequence_of(overlap_graph(SAMPLE_STRING)))
    assert dist[0] == count_euler_circuits(digraph_of(SAMPLE_STRING))


def test_distribution_of_interleaved_pair():
    s = parse_dos("1212")
    assert walk_distribution(s) == (2, 2, 0)
    assert walk_distribution(s) == norm(partition_sequence_of(overlap_graph(s)))
    assert count_euler_circuits(digraph_of(s)) == 2


def test_distribution_matches_norm_random():
    rng = random.Random(11)
    for _ in range(25):
        s = random_dos(rng, rng.randint(1, 6))
        dist = walk_distribution(s)
        assert dist == norm(partition_sequence_of(overlap_graph(s)))
        assert dist[0] == count_euler_circuits(digraph_of(s))


def test_distribution_matches_per_subset_traces():
    # walk_counts steps through the subsets one flip at a time; tracing
    # every subset separately with trace_partition is the reference.  Every
    # string with at most four letters, then random ones up to ten.
    rng = random.Random(13)
    strings = [s for n in range(1, 5) for s in sorted(set(permutations("aabbccdd"[: 2 * n])))]
    assert len(strings) == 2617
    strings += [random_dos(rng, rng.randint(5, 10)) for _ in range(40)]
    for s in strings:
        domain = dos_domain(s)
        n = len(domain)
        traced = [len(trace_partition(s, SubsetMask(domain, bits))) for bits in range(1 << n)]
        assert walk_counts(s) == bytes(traced)
        expected = [traced.count(k + 1) for k in range(n + 1)]
        assert walk_distribution(s) == tuple(expected)
        # A flip transposes two successors: it splits one walk or joins two.
        assert all(
            abs(traced[bits] - traced[bits ^ 1 << v]) == 1
            for bits in range(1 << n)
            for v in range(n)
        )


def test_distribution_enumeration_cap():
    # 24 letters is the largest size allowed, but it sweeps 2^24 subsets, so
    # only the first size past the cap runs here.
    s = tuple(f"L{i:02d}" for i in range(25) for _ in range(2))
    with pytest.raises(ValueError, match="alphabet size 25 exceeds the subset enumeration cap 24"):
        walk_distribution(s)


def test_euler_circuit_count_enumeration_cap():
    # Every vertex carries two loops, so no circuit can leave the first one
    # and the backtracking stops at once; only the cap can raise.
    def looped(n):
        vertices = tuple(f"v{i:02d}" for i in range(n))
        return TwoInTwoOutDigraph(vertices, tuple((v, v) for v in vertices for _ in range(2)))

    assert count_euler_circuits(looped(24)) == 0
    with pytest.raises(ValueError, match="vertex count 25 exceeds the subset enumeration cap 24"):
        count_euler_circuits(looped(25))


# --- rerouting and transport ----------------------------------------------------------------

def test_rerouted_overlap_graph_is_a_pivot():
    ov = overlap_graph(SAMPLE_STRING)
    X = flips(SAMPLE_STRING, ["1", "3"])
    assert overlap_graph(REROUTED_STRING) == pivot(ov, X)


def test_rerouting_property_random_single_walks():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        s = random_dos(rng, rng.randint(1, 7))
        domain = dos_domain(s)
        bits = rng.randrange(1 << len(domain))
        X = SubsetMask(domain, bits)
        part = trace_partition(s, X)
        if len(part) != 1:
            continue
        rerouted = walk_labels(s, part.walks[0])
        assert overlap_graph(rerouted) == pivot(overlap_graph(s), X)
        checked += 1


def test_partition_transport_through_rerouting():
    # the flip set {1,3} turns the sample string into the rerouted one; any
    # further flip Y of the rerouted string must reproduce, arc for arc, the
    # partition that {1,3} xor Y induces in the original.
    X = flips(SAMPLE_STRING, ["1", "3"])
    part = trace_partition(SAMPLE_STRING, X)
    w = walk_labels(SAMPLE_STRING, part.walks[0])
    L = len(SAMPLE_STRING)
    r = next(r for r in range(L) if w[r:] + w[:r] == REROUTED_STRING)
    to_original_arc = {j: part.walks[0][(j + r) % L] for j in range(L)}
    Y = flips(SAMPLE_STRING, ["3", "4", "5", "6"])
    rerouted_part = trace_partition(REROUTED_STRING, X ^ Y)
    mapped = {
        frozenset(to_original_arc[a] for a in walk) for walk in rerouted_part.walks
    }
    original = {
        frozenset(walk)
        for walk in trace_partition(SAMPLE_STRING, Y).walks
    }
    assert mapped == original


# --- cyclic sequence helpers ------------------------------------------------------------------

def test_canonical_rotation_and_cyclic_equal():
    assert cyclic_equal("banana", "abanan")
    assert cyclic_equal((1, 2, 3), (3, 1, 2))
    assert cyclic_equal((1, 2, 3), (2, 3, 1))
    assert not cyclic_equal((1, 2, 3), (3, 2, 1))  # reversal is not a rotation
    assert not cyclic_equal((1, 2), (1, 2, 1, 2))
    assert cyclic_equal((), ())

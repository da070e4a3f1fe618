import ast
import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tracemalloc
import types
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import pivotpoly
from pivotpoly import circuits, cli, interlace, matrix
import pivotpoly.formats as formats_module
import pivotpoly.graphs as graphs_module
from pivotpoly.cli import main
from pivotpoly.formats import (
    FormatError,
    format_graph,
    format_matrix,
    format_orbit_blocks,
    format_partition_sequence,
    parse_graph,
    parse_matrix,
)
from pivotpoly.randgen import (
    random_graph,
    random_matrix,
    random_valid_pivot_subset,
    valid_pivot_subset_from,
)
from pivotpoly.setsystems import norm, partition_sequence_of, set_system_of, subset_nullities
from pivotpoly import GF2, RATIONAL, Matrix, PartitionSequence, SubsetMask, graph_from_edges

from oracles import graph_text_entrywise, orbit_text_by_objects, partition_listing_by_mask
from samples import orbit_writer_cases, path_graph, patch_kernels, pivot_pair_left

MATRIX_Q = """\
field q
a b c
1 2 5
1 4 2
3 2 1
"""

GRAPH_PAIR_LEFT = """\
graph
1 2 3 4
2 3
2 4
1 3
3 4
2 2
3 3
"""

ORBIT_SEED = """\
graph
p q r
p q
p r
q q
"""


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "sample.mat"
    path.write_text(MATRIX_Q)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "sample.graph"
    path.write_text(GRAPH_PAIR_LEFT)
    return str(path)


# --- formats ----------------------------------------------------------------------

def test_matrix_format_round_trip_random():
    rng = random.Random(3)
    for _ in range(30):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(1, 6))
        assert parse_matrix(format_matrix(A)) == A


def test_matrix_round_trip_with_fractions():
    text = "field q\na b\n1/2 -3/4\n0 7\n"
    A = parse_matrix(text)
    assert format_matrix(A) == text
    # A p/q token reads as Fraction(tok) would: reduced, signed, leading zeros dropped.
    for tok in ("1/2", "-3/4", "3/6", "-4/2", "0/7", "007/010", "-0/3"):
        assert parse_matrix(f"field q\na\n{tok}\n").entry("a", "a") == Fraction(tok)


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_format_matrix_rejects_a_matrix_with_no_labels(field):
    # A file describes at least one label, and the label-less text the
    # writer would give does not parse back.
    with pytest.raises(FormatError, match="missing label line"):
        parse_matrix(f"field {field}\n\n")
    with pytest.raises(ValueError, match="at least one label"):
        format_matrix(Matrix.zeros(field, []))


def test_matrix_parse_respects_given_label_order():
    # rows follow the label line as written; the matrix is then stored sorted
    A = parse_matrix("field q\nb a\n1 2\n3 4\n")
    assert A.domain == ("a", "b")
    assert A.entry("b", "a") == 2
    assert A.entry("a", "b") == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "field x\na\n0\n",
        "field f2\na b\n0 1\n",
        "field f2\na\n2\n",
        "field q\na\n1.5\n",
        "field q\na\n1/0\n",
        "field q\na a\n1 2\n3 4\n",
    ],
)
def test_matrix_parse_errors(text):
    with pytest.raises(FormatError):
        parse_matrix(text)


def test_graph_format_round_trip_random():
    rng = random.Random(5)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 7))
        assert parse_graph(format_graph(G)) == G


def test_format_graph_rejects_a_graph_with_no_labels():
    with pytest.raises(FormatError, match="missing label line"):
        parse_graph("graph\n\n")
    with pytest.raises(ValueError, match="at least one label"):
        format_graph(Matrix.zeros(GF2, []))


@pytest.mark.parametrize(
    "text",
    [
        "matrix\na\n",
        "graph\na b\na c\n",
        "graph\na b\na b\nb a\n",
        "graph\na b\na\n",
    ],
)
def test_graph_parse_errors(text):
    with pytest.raises(FormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("graph\na b a\n", "duplicate labels in domain"),
        ("graph\na b\na c\n", "label 'c' not in matrix domain"),
        ("graph\na b\nc a\n", "label 'c' not in matrix domain"),
        ("graph\na b\na b\nb a\n", "duplicate edge b a"),
        ("graph\na b\na a\na a\n", "duplicate edge a a"),
        ("graph\na b\na\n", "edge line must name two labels, got 'a'"),
        # With several faults, the first line at fault decides.
        ("graph\na b\na c\na\n", "label 'c' not in matrix domain"),
        ("graph\na b\na\na c\n", "edge line must name two labels, got 'a'"),
        ("graph\na b\na b\nb a\nc d\n", "duplicate edge b a"),
        ("graph\na b\nc a\na b\nb a\n", "label 'c' not in matrix domain"),
    ],
)
def test_graph_parse_error_messages_come_in_line_order(text, message):
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def test_format_graph_rejects_a_non_symmetric_matrix():
    # Printed as a graph, the one edge would parse back as a symmetric pair.
    A = Matrix.from_entries(GF2, ["a", "b"], [[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        format_graph(A)
    with pytest.raises(ValueError, match="GF\\(2\\)"):
        format_graph(Matrix.zeros(RATIONAL, ["a"]))


def test_partition_sequence_listing_matches_oracle():
    # Labels of one to three characters; odd and even n split the domain
    # into unequal and equal label-table halves.
    rng = random.Random(37)
    for n in range(12):
        for field in (GF2, RATIONAL):
            labels = sorted(f"{'xyz'[:1 + i % 3]}{i:02d}" for i in range(n))
            A = Matrix.from_entries(field, labels, random_matrix(rng, field, n).to_entries())
            P = partition_sequence_of(A)
            assert format_partition_sequence(P) == partition_listing_by_mask(
                P.domain, P.nullities
            ), (n, field)


def test_partition_sequence_listing_builds_no_subset_mask(monkeypatch):
    P = partition_sequence_of(random_matrix(random.Random(41), GF2, 8))
    built = []
    real_init = SubsetMask.__post_init__

    def counting_init(self):
        built.append(self.bits)
        real_init(self)

    monkeypatch.setattr(SubsetMask, "__post_init__", counting_init)
    format_partition_sequence(P)
    assert built == []


@pytest.mark.parametrize("piece", [1, 2, 3])
def test_partition_listing_pieces_match_oracle(monkeypatch, piece):
    monkeypatch.setattr(formats_module, "_LISTING_PIECE_NAMES", piece)
    rng = random.Random(53 + piece)
    for n in range(12):
        for field in (GF2, RATIONAL):
            P = partition_sequence_of(random_matrix(rng, field, n))
            assert format_partition_sequence(P) == partition_listing_by_mask(
                P.domain, P.nullities
            ), (piece, n, field)
    # The zero matrix on four labels has classes of sizes 1, 4, 6, 4, 1, so
    # some class fills its last piece exactly for every piece length here.
    P = partition_sequence_of(Matrix.zeros(GF2, ["a", "b", "c", "d"]))
    assert any(size > piece and size % piece == 0 for size in norm(P))
    assert format_partition_sequence(P) == partition_listing_by_mask(P.domain, P.nullities)


def test_partition_listing_yields_bounded_pieces(monkeypatch):
    monkeypatch.setattr(formats_module, "_LISTING_PIECE_NAMES", 2)
    P = partition_sequence_of(Matrix.zeros(GF2, ["a", "b", "c"]))
    assert list(formats_module._partition_lines(P.domain, P.nullities)) == [
        "0: {", "{}", "}\n",
        "1: {", "{a},{b}", ",{c}", "}\n",
        "2: {", "{a,b},{a,c}", ",{b,c}", "}\n",
        "3: {", "{a,b,c}", "}\n",
        "norm: (1,3,3,1)\n",
    ]


def test_partition_listing_memory_is_bounded():
    # The nullities are built first: the listing itself holds one 4-byte
    # mask a subset (256 KiB here) and one piece of names at a time.
    P = partition_sequence_of(random_matrix(random.Random(59), GF2, 16))
    tracemalloc.start()
    try:
        for _ in formats_module._partition_lines(P.domain, P.nullities):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


def test_readme_partition_sequence_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    intro = readme.index("Partition sequences print one line per nonempty class")
    start = readme.index("```\n", intro) + len("```\n")
    block = readme[start : readme.index("```", start)]
    assert block == format_partition_sequence(partition_sequence_of(pivot_pair_left()))


def test_readme_library_tour():
    # Runs the tour's statements in order; each expression whose comment
    # ends in "-> VALUE" must print as VALUE.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library tour")) + len("```python\n")
    block = readme[start : readme.index("```", start)]
    lines = block.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        if "-> " in comment:
            checked.append((str(value), comment.rpartition("-> ")[2].strip()))
    assert [shown for shown, _ in checked] == [expected for _, expected in checked]
    assert len(checked) == 4


# --- subcommands --------------------------------------------------------------------

def test_nullity_command(matrix_file, capsys):
    assert main(["nullity", "--matrix", matrix_file, "--subset", "b,c"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["nullity", "--matrix", matrix_file]) == 0
    assert capsys.readouterr().out == "0\n"


def test_pivot_command_exact_output(matrix_file, capsys):
    assert main(["pivot", "--matrix", matrix_file, "--on", "a,b"]) == 0
    assert capsys.readouterr().out == (
        "field q\na b c\n2 -1 -8\n-1/2 1/2 3/2\n5 -2 -20\n"
    )


def test_pivot_command_empty_subset(matrix_file, capsys):
    assert main(["pivot", "--matrix", matrix_file, "--on", ""]) == 0
    assert capsys.readouterr().out == MATRIX_Q


def test_pseq_rejects_graph_format(graph_file, capsys):
    assert main(["pseq", "--matrix", graph_file]) == 2


def test_pseq_norm_only(matrix_file, capsys):
    assert main(["pseq", "--matrix", matrix_file, "--norm-only"]) == 0
    assert capsys.readouterr().out == "norm: (7,1,0,0)\n"


def test_pseq_norm_only_is_last_line_of_listing(tmp_path, capsys):
    rng = random.Random(17)
    path = tmp_path / "m.mat"
    for _ in range(30):
        field = rng.choice([GF2, RATIONAL])
        n = rng.randint(1, 7)
        A = random_matrix(rng, field, n)
        entries = A.to_entries()
        for i in range(n):
            if rng.random() < 0.3:
                for j in range(n):
                    entries[i][j] = entries[j][i] = 0
        path.write_text(format_matrix(Matrix.from_entries(field, A.domain, entries)))
        assert main(["pseq", "--matrix", str(path)]) == 0
        listing = capsys.readouterr().out
        assert main(["pseq", "--matrix", str(path), "--norm-only"]) == 0
        assert capsys.readouterr().out == listing.splitlines(keepends=True)[-1]


def test_pseq_listing_builds_no_partition_sequence(tmp_path, monkeypatch, capsys):
    # The command lists straight from the sweep's bytes: no copy of them
    # and no check of every entry.
    A = random_matrix(random.Random(43), GF2, 8)
    path = tmp_path / "eight.mat"
    path.write_text(format_matrix(A))
    built = []
    monkeypatch.setattr(PartitionSequence, "__post_init__", lambda self: built.append(self))
    assert main(["pseq", "--matrix", str(path)]) == 0
    assert built == []
    P = PartitionSequence(A.domain, bytes(subset_nullities(A)))
    assert capsys.readouterr().out == format_partition_sequence(P)


def test_pseq_full_listing(matrix_file, capsys):
    assert main(["pseq", "--matrix", matrix_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0: {{},{a},{b},{a,b},{c},{a,c},{a,b,c}}")
    assert out[1] == "1: {{b,c}}"
    assert out[2] == "norm: (7,1,0,0)"


def test_interlace_command_both(graph_file, capsys):
    assert main(["interlace", "--graph", graph_file, "--method", "both"]) == 0
    assert capsys.readouterr().out == "q': 8 7 1\nq: 2 5 1\nmethods agree\n"


@pytest.mark.parametrize("method", ["direct", "recursive"])
def test_interlace_single_methods(graph_file, capsys, method):
    assert main(["interlace", "--graph", graph_file, "--method", method]) == 0
    assert capsys.readouterr().out == "q': 8 7 1\nq: 2 5 1\n"


def test_overlap_command(capsys):
    assert main(["overlap", "--dos", "1212"]) == 0
    assert capsys.readouterr().out == "graph\n1 2\n1 2\n"
    assert main(["overlap", "--dos", "146543625123"]) == 0
    assert capsys.readouterr().out == (
        "graph\n1 2 3 4 5 6\n1 2\n1 3\n2 5\n3 5\n3 6\n4 5\n4 6\n5 6\n"
    )


def test_walks_command(capsys):
    assert main(["walks", "--dos", "146543625123", "--flip", "3,4,5,6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "walks: 3"
    assert out[1] == "walk 0: 0 4 11"
    assert out[-1] == "cohn-lempel: walks=3 nullity+1=3 ok"


def test_walks_command_no_flips(capsys):
    assert main(["walks", "--dos", "1212", "--flip", ""]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "walks: 1"


def test_distribution_command(capsys):
    assert main(["distribution", "--dos", "146543625123"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "distribution: (19,31,13,1,0,0,0)"
    assert out[1] == "norm: (19,31,13,1,0,0,0)"
    assert out[2] == "match"


# Each cross-check command exits 1 when its two computations disagree.  The
# fakes below break one side; the other side and the output format are real.

def test_interlace_both_reports_a_method_mismatch(tmp_path, monkeypatch, capsys):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED)
    monkeypatch.setattr(interlace, "interlace_recursive", lambda G: interlace.Poly.of([9]))
    assert main(["interlace", "--graph", str(path), "--method", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "q': 5 3\nq: 2 3\nMETHOD MISMATCH: recursive gave 9\n"
    assert captured.err == ""


def test_walks_reports_a_cohn_lempel_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(circuits, "overlap_graph", lambda s: Matrix.zeros(GF2, circuits.dos_domain(s)))
    assert main(["walks", "--dos", "146543625123", "--flip", "3,4,5,6"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("\ncohn-lempel: walks=3 nullity+1=5 MISMATCH\n")


def test_distribution_reports_a_mismatch(monkeypatch, capsys):
    real = circuits.walk_distribution
    monkeypatch.setattr(circuits, "walk_distribution", lambda s: real(s)[::-1])
    assert main(["distribution", "--dos", "146543625123"]) == 1
    assert capsys.readouterr().out.endswith("\nMISMATCH\n")


def test_walks_traces_the_flip_set_once(monkeypatch, capsys):
    calls = []
    real = circuits.trace_partition

    def counting_trace(s, X):
        calls.append(X)
        return real(s, X)

    monkeypatch.setattr(circuits, "trace_partition", counting_trace)
    assert main(["walks", "--dos", "146543625123", "--flip", "3,4,5,6"]) == 0
    assert capsys.readouterr().out.endswith("\ncohn-lempel: walks=3 nullity+1=3 ok\n")
    assert len(calls) == 1


ORBIT_SEED_STDOUT = """\
orbit size 5
graph 0
graph
p q r
p r
q q
q r
graph 1
graph
p q r
p r
q q
q r
r r
graph 2
graph
p q r
p q
p r
q q
graph 3
graph
p q r
p p
p q
p r
q q
graph 4
graph
p q r
p p
p q
p r
q r
r r
moves
0 {q} 1
0 {p,r} 2
1 {r} 4
2 {q} 3
3 {p} 4
"""


def test_orbit_command(tmp_path, capsys):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED)
    assert main(["orbit", "--graph", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ORBIT_SEED_STDOUT
    assert captured.err == ""


def test_orbit_command_overflow(tmp_path, capsys):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED)
    assert main(["orbit", "--graph", str(path), "--max-graphs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pivot orbit exceeds 2 graphs\n"


def test_orbit_writer_matches_the_object_printer():
    for G in orbit_writer_cases():
        expected = orbit_text_by_objects(graphs_module.pivot_orbit(G))
        rows, moves = graphs_module._orbit_search(G, 10**6)
        assert "".join(format_orbit_blocks(G.domain, rows, moves)) == expected
        assert format_graph(G) == graph_text_entrywise(G)


@pytest.mark.parametrize(
    "prop,field",
    [
        ("nullity-invariance", "f2"),
        ("nullity-invariance", "q"),
        ("tucker", "f2"),
        ("tucker", "q"),
        ("partial-inverse", "f2"),
        ("partial-inverse", "q"),
        ("twist", "f2"),
        ("twist", "q"),
        ("recursion", "f2"),
        ("recursion", "q"),
        ("cohn-lempel", "f2"),
    ],
)
def test_verify_command(prop, field, capsys):
    code = main(
        [
            "verify",
            "--prop",
            prop,
            "--trials",
            "20",
            "--size",
            "5",
            "--seed",
            "42",
            "--field",
            field,
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "20/20 pass\n"


def _verify_counts(prop, capsys, field=GF2):
    code = main(["verify", "--prop", prop, "--trials", "20", "--size", "5",
                 "--seed", "42", "--field", field])
    out = capsys.readouterr().out
    passed, trials = map(int, re.fullmatch(r"(\d+)/(\d+) pass\n", out).groups())
    return code, passed, trials


def test_verify_nullity_invariance_catches_wrong_pivot(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pivot", lambda A, X: A)
    code, passed, trials = _verify_counts("nullity-invariance", capsys)
    assert code == 1 and passed < trials == 20


def test_verify_cohn_lempel_catches_wrong_walk_count(monkeypatch, capsys):
    real = circuits.walk_counts
    monkeypatch.setattr(circuits, "walk_counts", lambda s: bytearray(c + 1 for c in real(s)))
    code, passed, trials = _verify_counts("cohn-lempel", capsys)
    assert code == 1 and passed < trials == 20


@pytest.mark.parametrize(
    ("prop", "field"), [("twist", GF2), ("twist", RATIONAL), ("recursion", RATIONAL)]
)
def test_verify_catches_a_pivot_that_returns_its_input(prop, field, monkeypatch, capsys):
    monkeypatch.setattr(cli, "pivot", lambda A, X: A)
    code, passed, trials = _verify_counts(prop, capsys, field)
    assert code == 1 and passed < trials == 20


@pytest.mark.parametrize("field", [GF2, RATIONAL])
@pytest.mark.parametrize("prop", ["tucker", "partial-inverse"])
def test_verify_catches_pivot_rows_that_return_the_input_rows(prop, field, monkeypatch, capsys):
    pivot_module = importlib.import_module("pivotpoly.pivot")
    monkeypatch.setattr(pivot_module, "pivot_rows", lambda A, bits: A.rows)
    code, passed, trials = _verify_counts(prop, capsys, field)
    assert code == 1 and passed < trials == 20


def test_verify_catches_a_graph_pivot_that_only_deletes(monkeypatch, capsys):
    # The recursion's kernel builds G*X; this one returns G, so both
    # children are G - u.  The verify graphs are small, so the recursion
    # runs on packed ints.
    def delete_only(graph, part, n, base):
        return graph

    monkeypatch.setattr(interlace, "_packed_pivot", delete_only)
    code, passed, trials = _verify_counts("recursion", capsys, GF2)
    assert code == 1 and passed < trials == 20


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_shared_sweep_draws_the_same_pivot_subset(field):
    # The verify trials draw X from the sweep they need anyway; the draw
    # must match random_valid_pivot_subset from the same RNG state, so the
    # trials see the same instances as before.
    rng = random.Random(71)
    for _ in range(60):
        A = random_matrix(rng, field, rng.randint(0, 7))
        state = rng.getstate()
        X = random_valid_pivot_subset(rng, A)
        after = rng.getstate()
        rng.setstate(state)
        assert valid_pivot_subset_from(rng, A.domain, subset_nullities(A)) == X
        assert rng.getstate() == after


def test_rational_recursion_trial_sweeps_once_and_draws_as_before(monkeypatch, capsys):
    # The draws of the trial that swept A a second time for its pivot
    # subset: X from the sorted nonempty members of A's set system, then u
    # from X's labels.
    rng = random.Random(42)
    expected = []
    for _ in range(80):
        A = random_matrix(rng, RATIONAL, rng.randint(1, 8))
        members = sorted(m for m in set_system_of(A).members if m)
        if members:
            X = SubsetMask(A.domain, rng.choice(members))
            expected.append((A, X, rng.choice(X.labels())))
    sweeps, pivots, deleted = [], [], []
    kernels, pivot, delete = matrix.KERNELS[RATIONAL], cli.pivot, cli.delete_label

    def counting(kernel):
        def wrapper(rows):
            sweeps.append(len(rows))
            return kernel(rows)

        return wrapper

    def recording_pivot(A, X):
        pivots.append((A, X))
        return pivot(A, X)

    def recording_delete(A, u):
        deleted.append(u)
        return delete(A, u)

    # A rational histogram is counted from one sweep.
    patch_kernels(
        monkeypatch,
        RATIONAL,
        subset_nullities=counting(kernels.subset_nullities),
        nullity_histogram=counting(kernels.nullity_histogram),
    )
    monkeypatch.setattr(cli, "pivot", recording_pivot)
    monkeypatch.setattr(cli, "delete_label", recording_delete)
    argv = ["verify", "--prop", "recursion", "--field", "q", "--trials", "80", "--size", "8", "--seed", "42"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "80/80 pass\n"
    assert pivots == [(A, X) for A, X, _ in expected]
    assert deleted == [u for _, _, u in expected for _ in "AB"]
    # One sweep of A per trial, and one of A - u and of A*X - u per drawn X:
    # 236, where sweeping A again for q(A) made it 314.
    assert len(expected) == 78
    assert len(sweeps) == 80 + 2 * 78


def test_cohn_lempel_over_q_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--prop", "cohn-lempel", "--trials", "3", "--field", "q"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cohn-lempel is a GF(2) property" in captured.err
    for argv in (["--field", "f2"], []):
        assert main(["verify", "--prop", "cohn-lempel", "--trials", "3", *argv]) == 0
        assert capsys.readouterr().out == "3/3 pass\n"


def test_verify_is_deterministic(capsys):
    args = ["verify", "--prop", "tucker", "--trials", "10", "--size", "5",
            "--seed", "9", "--field", "q"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


# --- error paths ------------------------------------------------------------------------

def test_exit_code_for_singular_pivot(matrix_file, capsys):
    assert main(["pivot", "--matrix", matrix_file, "--on", "b,c"]) == 3
    assert "singular" in capsys.readouterr().err


def test_exit_code_for_unknown_label(matrix_file, capsys):
    assert main(["pivot", "--matrix", matrix_file, "--on", "z"]) == 2


def test_repeated_label_is_a_usage_error(matrix_file, capsys):
    for argv, label in (
        (["pivot", "--matrix", matrix_file, "--on", "a,a"], "a"),
        (["nullity", "--matrix", matrix_file, "--subset", "b,a,b"], "b"),
        (["walks", "--dos", "1212", "--flip", "1,1"], "1"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: label '{label}' given twice\n"), argv


def test_empty_label_is_a_usage_error(matrix_file, capsys):
    # Labels are matched verbatim, so an empty token is not dropped; only an
    # empty argument as a whole means the empty subset.
    for argv, flag in (
        (["pivot", "--matrix", matrix_file, "--on", "a,,b"], "--on"),
        (["pivot", "--matrix", matrix_file, "--on", "a,"], "--on"),
        (["nullity", "--matrix", matrix_file, "--subset", ",a"], "--subset"),
        (["walks", "--dos", "1212", "--flip", "1,"], "--flip"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: empty label in " in err, argv
    assert main(["nullity", "--matrix", matrix_file, "--subset", ""]) == 0
    assert capsys.readouterr().out == "0\n"


def test_labels_keep_their_spaces(matrix_file, capsys):
    # A space inside or around the argument is part of a label, wherever it is.
    for arg, label in ((" a,b ", " a"), ("a, b", " b"), (" ", " ")):
        assert main(["nullity", "--matrix", matrix_file, "--subset", arg]) == 2, arg
        assert capsys.readouterr() == (
            "", f"error: label {label!r} not in domain ('a', 'b', 'c')\n"
        ), arg


def test_exit_code_for_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("field q\na b\n1 2\n")
    assert main(["nullity", "--matrix", str(bad)]) == 2
    assert main(["nullity", "--matrix", str(tmp_path / "missing.mat")]) == 2


def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "latin.mat"
    path.write_bytes(b"\xfffield f2\na\n1\n")
    assert main(["nullity", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n",
    )


def _cli_env() -> dict:
    src = str(Path(pivotpoly.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pivotpoly", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=20,
    )


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # The orbit of a 16-vertex path prints 686 KB, far past what the pipe
    # buffers, so the writer is still writing when the reader goes away.
    path = tmp_path / "path16.graph"
    path.write_text(format_graph(path_graph(16)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pivotpoly", "orbit", "--graph", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert first == b"orbit size 1597\n"
    assert proc.returncode == 141
    assert err == b""


def test_closed_stdout_ends_a_pseq_listing_with_141(tmp_path):
    # The listing of 16 labels prints about 2 MB in pieces, far past what
    # the pipe buffers, so the writer is mid-line when the reader goes away.
    A = random_matrix(random.Random(61), GF2, 16)
    path = tmp_path / "m16.mat"
    path.write_text(format_matrix(A))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pivotpoly", "pseq", "--matrix", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    listing = format_partition_sequence(partition_sequence_of(A))
    assert first.decode() == listing[: listing.index("\n") + 1]
    assert len(listing) - len(first) > 1 << 20
    assert proc.returncode == 141
    assert err == b""


def _fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter without site hooks (-S),
    so only what pivotpoly itself imports lands in ``sys.modules``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_lazy_package_binds_the_same_names_as_an_eager_one():
    facts = json.loads(_fresh_interpreter(
        "import json, sys, types\n"
        "import pivotpoly.interlace\n"
        "from pivotpoly import pivot\n"
        "star = {}\n"
        "exec('from pivotpoly import *', star)\n"
        "import pivotpoly\n"
        "def missing(module):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as e:\n"
        "        return str(e)\n"
        "print(json.dumps({\n"
        "    'pivot': f'{pivot.__module__}.{pivot.__qualname__}',\n"
        "    'star': sorted(k for k in star if k != '__builtins__'),\n"
        "    'same': star['Poly'] is sys.modules['pivotpoly.interlace'].Poly\n"
        "            and star['pivot'] is pivot and star['Matrix'] is pivotpoly.Matrix,\n"
        "    'all': pivotpoly.__all__,\n"
        "    'dir': dir(pivotpoly),\n"
        "    'missing': missing(pivotpoly),\n"
        "    'standard': missing(types.ModuleType('pivotpoly')),\n"
        "}))\n"
    ))
    # Importing the submodule pivotpoly.pivot again must not rebind the name.
    assert facts["pivot"] == "pivotpoly.pivot.pivot"
    assert len(facts["all"]) == 50 and "__version__" in facts["all"]
    assert facts["star"] == sorted(facts["all"])
    assert facts["same"]
    assert set(facts["all"]) <= set(facts["dir"])
    assert facts["missing"] == facts["standard"]
    assert facts["missing"] == "module 'pivotpoly' has no attribute 'no_such_name'"


def _modules_loaded_by(argv: list[str]) -> str:
    """Stdout of ``cli.main(argv)`` in a fresh interpreter, followed by its
    exit code, the pivotpoly modules it loaded and which of dataclasses,
    fractions, decimal, numbers and string it loaded."""
    return _fresh_interpreter(
        "import sys\n"
        "from pivotpoly import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'pivotpoly'),"
        " [m for m in ('dataclasses', 'fractions', 'decimal', 'numbers', 'string') if m in sys.modules])\n"
    )


# The modules `pivotpoly nullity` loads over either field.
_NULLITY_MODULES = [
    "pivotpoly",
    "pivotpoly.cli",
    "pivotpoly.formats",
    "pivotpoly.matrix",
    "pivotpoly.pivot",
]


def test_nullity_command_imports_only_what_it_runs(tmp_path):
    path = tmp_path / "one.mat"
    path.write_text("field f2\na\n1\n")
    out = _modules_loaded_by(["nullity", "--matrix", str(path)])
    assert out == f"0\n0 {_NULLITY_MODULES} []\n"


def test_rational_data_loads_the_rational_module_and_fractions(tmp_path):
    path = tmp_path / "one.mat"
    path.write_text("field q\na\n1\n")
    out = _modules_loaded_by(["nullity", "--matrix", str(path)])
    expected = sorted([*_NULLITY_MODULES, "pivotpoly.rational"])
    assert out == f"0\n0 {expected} ['fractions', 'decimal', 'numbers']\n"


def test_pseq_loads_the_sweep_and_no_graph_module(tmp_path):
    path = tmp_path / "one.mat"
    path.write_text("field f2\na\n1\n")
    out = _modules_loaded_by(["pseq", "--matrix", str(path)])
    expected = sorted([*_NULLITY_MODULES, "pivotpoly.setsystems"])
    assert out == f"0: {{{{}},{{a}}}}\nnorm: (2,0)\n0 {expected} []\n"


# The modules every `pivotpoly verify` run loads; no matrix file is read,
# so `formats` is not among them.
_VERIFY_MODULES = [
    "pivotpoly",
    "pivotpoly.cli",
    "pivotpoly.matrix",
    "pivotpoly.pivot",
    "pivotpoly.randgen",
    "pivotpoly.setsystems",
]
_RATIONAL_MODULES = (["pivotpoly.rational"], ["fractions", "decimal", "numbers"])


@pytest.mark.parametrize(
    "prop,field,extra",
    [
        ("nullity-invariance", GF2, ([], [])),
        ("nullity-invariance", RATIONAL, _RATIONAL_MODULES),
        ("tucker", GF2, ([], [])),
        ("tucker", RATIONAL, _RATIONAL_MODULES),
        ("partial-inverse", GF2, ([], [])),
        ("partial-inverse", RATIONAL, _RATIONAL_MODULES),
        ("twist", GF2, ([], [])),
        ("twist", RATIONAL, _RATIONAL_MODULES),
        ("recursion", GF2, (["pivotpoly.graphs", "pivotpoly.interlace"], [])),
        (
            "recursion",
            RATIONAL,
            (["pivotpoly.graphs", "pivotpoly.interlace", "pivotpoly.rational"], _RATIONAL_MODULES[1]),
        ),
        ("cohn-lempel", GF2, (["pivotpoly.circuits", "pivotpoly.graphs"], [])),
    ],
)
def test_verify_loads_only_what_its_property_runs(prop, field, extra):
    # The stdlib list is compared whole, so no op loads `string` either:
    # every op draws with `randgen`, which builds its letters itself.
    modules, stdlib = extra
    out = _modules_loaded_by(["verify", "--prop", prop, "--field", field, "--trials", "5", "--size", "4"])
    assert out == f"5/5 pass\n0 {sorted([*_VERIFY_MODULES, *modules])} {stdlib}\n"


def test_recursive_interlace_loads_no_sweep_module(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text(format_graph(path_graph(2)))
    out = _modules_loaded_by(["interlace", "--graph", str(path), "--method", "recursive"])
    expected = [
        "pivotpoly",
        "pivotpoly.cli",
        "pivotpoly.formats",
        "pivotpoly.graphs",
        "pivotpoly.interlace",
        "pivotpoly.matrix",
        "pivotpoly.pivot",
    ]
    assert out == f"q': 2 2\nq: 0 2\n0 {expected} []\n"


def test_every_public_callable_has_resolvable_type_hints():
    modules = [pivotpoly] + [
        importlib.import_module(f"pivotpoly.{info.name}")
        for info in pkgutil.iter_modules(pivotpoly.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) == 11
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                typing.get_type_hints(value)


# Public names that nothing in the package, the benchmark or the acceptance
# suite calls, each with the reason it stays public.
_PUBLIC_WITHOUT_CALLER = {
    "pivot.nullity_after_pivot": "the paper's nullity invariance on one instance, named in README",
    "matrix.inverse": "the pivot on the full domain, named in README",
    "matrix.Matrix.identity": "the identity matrix of either field, named in README",
}


def _public_names():
    """Each module's exported names, and the public methods (functions,
    class and static methods, properties) of the classes it defines and
    exports, as (qualified name, name that a caller reads)."""
    for info in pkgutil.iter_modules(pivotpoly.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pivotpoly.{info.name}")
        for name in module.__all__:
            yield f"{info.name}.{name}", name
            value = getattr(module, name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if not attr.startswith("_") and isinstance(
                        member, (types.FunctionType, classmethod, staticmethod, property)
                    ):
                        yield f"{info.name}.{name}.{attr}", attr


def test_every_public_name_has_a_caller_or_a_reason():
    # A name counts as called when some code reads it, as a name or an
    # attribute; its definition and the strings of __all__ do not count.
    root = Path(__file__).resolve().parent.parent
    read = set()
    sources = [*root.glob("src/pivotpoly/*.py"), *root.glob("perfbench/*.py"), root / "tests" / "test_acceptance.py"]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    uncalled = sorted(qualified for qualified, name in _public_names() if name not in read)
    assert uncalled == sorted(_PUBLIC_WITHOUT_CALLER)


def test_sweeps_past_the_enumeration_cap_fail_fast(tmp_path):
    # 25 labels means 2^25 subsets: both commands must refuse at once rather
    # than start a sweep that cannot finish.
    labels = [f"v{i:02d}" for i in range(25)]
    zero = tmp_path / "zero25.mat"
    zero.write_text("field f2\n" + " ".join(labels) + "\n" + ("0 " * 25 + "\n") * 25)
    dos = " ".join(labels + labels)
    for argv in (["pseq", "--matrix", str(zero), "--norm-only"], ["distribution", "--dos", dos]):
        proc = _run_cli(*argv)
        assert proc.returncode == 2, argv
        assert "enumeration cap" in proc.stderr
        assert proc.stdout == ""


def test_recursion_past_its_memo_cap_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(interlace, "RECURSION_MEMO_CAP", 100)
    # The recursion's memo on a path of 16 labels holds 135 rows; under
    # "both" the sweep runs first and passes.
    path = tmp_path / "path16.graph"
    path.write_text(format_graph(path_graph(16)))
    for method in ("recursive", "both"):
        assert main(["interlace", "--graph", str(path), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: deletion recursion exceeds the memo cap of 100 rows\n"


def test_recursion_deeper_than_the_stack_finishes(tmp_path, capsys):
    # Each of the 1 200 matching edges costs one step of the deletion
    # chain, past Python's default recursion limit of 1 000 frames; the
    # recursion runs as a loop, so only its memo cap could stop it.
    labels = [f"v{i:04d}" for i in range(2400)]
    edges = [(labels[2 * i], labels[2 * i + 1]) for i in range(1200)]
    path = tmp_path / "matching.graph"
    path.write_text(format_graph(graph_from_edges(labels, edges)))
    assert main(["interlace", "--graph", str(path), "--method", "recursive"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    q_line = captured.out.splitlines()[-1]
    assert q_line == "q: " + " ".join(["0"] * 1200 + [str(2**1200)])


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# Arguments that satisfy each command's required options.
_REQUIRED_ARGS = {
    "pivot": ["--matrix", "m", "--on", "a"],
    "nullity": ["--matrix", "m"],
    "pseq": ["--matrix", "m"],
    "interlace": ["--graph", "g"],
    "overlap": ["--dos", "1212"],
    "walks": ["--dos", "1212", "--flip", "1"],
    "distribution": ["--dos", "1212"],
    "orbit": ["--graph", "g"],
    "verify": ["--prop", "tucker"],
}
_ALL_COMMANDS = "{" + ",".join(_REQUIRED_ARGS) + "}"


def _parser_cases():
    for command, required in _REQUIRED_ARGS.items():
        yield [command, "--help"]
        yield [command]  # a required option is missing
        yield [command, *required, "extra"]  # reported by the top-level parser
    yield ["interlace", "--graph", "g", "--method", "fast"]
    yield ["verify", "--prop", "no-such-prop"]
    yield ["verify", "--prop", "tucker", "--field", "r"]
    yield ["orbit", "--graph", "g", "--max-graphs", "0"]
    yield []
    yield ["--help"]
    yield ["no-such-command"]


def _exit_outcome(parse, argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of a parse that exits, as help and errors do."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


def _record_parser_builds(monkeypatch) -> list:
    built, real = [], cli.build_parser

    def recording(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    return built


@pytest.mark.parametrize("argv", list(_parser_cases()), ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_parser_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    full = _exit_outcome(cli.build_parser().parse_args, argv, capsys)
    built = _record_parser_builds(monkeypatch)
    assert _exit_outcome(main, argv, capsys) == full
    # Only a command's own help is printed by its one-command parser.
    if argv and argv[0] in _REQUIRED_ARGS:
        assert built == [argv[0]] if argv[1:] == ["--help"] else [argv[0], None]
    else:
        assert built == [None]
    if argv[-1:] in (["extra"], ["no-such-command"], []):
        assert full[0] == 2 and _ALL_COMMANDS in full[2]


def test_cohn_lempel_over_q_is_reported_with_the_full_usage(monkeypatch, capsys):
    built = _record_parser_builds(monkeypatch)
    code, out, err = _exit_outcome(main, ["verify", "--prop", "cohn-lempel", "--field", "q"], capsys)
    assert built == ["verify", None]
    assert (code, out) == (2, "")
    assert err.startswith("usage: pivotpoly [-h]") and _ALL_COMMANDS in err
    assert err.endswith("pivotpoly: error: argument --field: cohn-lempel is a GF(2) property; use --field f2\n")


@pytest.mark.parametrize(
    "argv,flag,message",
    [
        (["verify", "--prop", "tucker", "--trials", "-5"], "--trials", "must be at least 1"),
        (["verify", "--prop", "tucker", "--trials", "0"], "--trials", "must be at least 1"),
        (["verify", "--prop", "tucker", "--size", "0"], "--size", "must be at least 1"),
        (["verify", "--prop", "tucker", "--trials", "x"], "--trials", "invalid int value"),
        (["orbit", "--graph", "g", "--max-graphs", "0"], "--max-graphs", "must be at least 1"),
        (["verify", "--prop", "tucker", "--size", "25"], "--size", "must be at most 24"),
    ],
)
def test_count_flags_below_one_are_usage_errors(argv, flag, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err

import random
import re

import pytest

from pivotpoly import circuits, cli
from pivotpoly.cli import main
from pivotpoly.formats import (
    FormatError,
    format_graph,
    format_matrix,
    parse_graph,
    parse_matrix,
)
from pivotpoly.randgen import random_graph, random_matrix
from pivotpoly import GF2, RATIONAL, Matrix

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


def test_orbit_command(tmp_path, capsys):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED)
    assert main(["orbit", "--graph", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "orbit size 5"
    moves = out[out.index("moves") + 1 :]
    assert len(moves) == 5
    assert "0 {q} 1" in moves and "0 {p,r} 2" in moves


def test_orbit_command_overflow(tmp_path, capsys):
    path = tmp_path / "seed.graph"
    path.write_text(ORBIT_SEED)
    assert main(["orbit", "--graph", str(path), "--max-graphs", "2"]) == 2


@pytest.mark.parametrize(
    "prop,field",
    [
        ("nullity-invariance", "f2"),
        ("nullity-invariance", "q"),
        ("tucker", "q"),
        ("partial-inverse", "f2"),
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


def _verify_counts(prop, capsys):
    code = main(["verify", "--prop", prop, "--trials", "20", "--size", "5",
                 "--seed", "42", "--field", "f2"])
    out = capsys.readouterr().out
    passed, trials = map(int, re.fullmatch(r"(\d+)/(\d+) pass\n", out).groups())
    return code, passed, trials


def test_verify_nullity_invariance_catches_wrong_pivot(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pivot", lambda A, X: A)
    code, passed, trials = _verify_counts("nullity-invariance", capsys)
    assert code == 1 and passed < trials == 20


def test_verify_cohn_lempel_catches_wrong_walk_count(monkeypatch, capsys):
    real = circuits.trace_partition
    monkeypatch.setattr(
        circuits, "trace_partition", lambda s, X: real(s, X).walks + ((),)
    )
    code, passed, trials = _verify_counts("cohn-lempel", capsys)
    assert code == 1 and passed < trials == 20


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


def test_exit_code_for_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("field q\na b\n1 2\n")
    assert main(["nullity", "--matrix", str(bad)]) == 2
    assert main(["nullity", "--matrix", str(tmp_path / "missing.mat")]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,flag,message",
    [
        (["verify", "--prop", "tucker", "--trials", "-5"], "--trials", "must be at least 1"),
        (["verify", "--prop", "tucker", "--trials", "0"], "--trials", "must be at least 1"),
        (["verify", "--prop", "tucker", "--size", "0"], "--size", "must be at least 1"),
        (["verify", "--prop", "tucker", "--trials", "x"], "--trials", "invalid int value"),
        (["orbit", "--graph", "g", "--max-graphs", "0"], "--max-graphs", "must be at least 1"),
    ],
)
def test_count_flags_below_one_are_usage_errors(argv, flag, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err

"""Every small input, through ``cli.main``, against ``perfbench/oracle.py``.

The benchmark's oracle uses only the standard library and shares no code
with the package, so it is a third implementation beside the package and
``tests/oracles.py``.  Small inputs reach the edge cases (loops, isolated
vertices, empty classes) that random draws rarely do.
"""

import importlib.util
from pathlib import Path

from pivotpoly.cli import main

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

LABELS = "abcd"


def _run(capsys, argv):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _every_f2_matrix():
    """(labels, packed rows) of every GF(2) matrix on 1-3 labels: 2 + 16 + 512."""
    for n in range(1, 4):
        for bits in range(1 << n * n):
            yield LABELS[:n], [bits >> n * i & (1 << n) - 1 for i in range(n)]


def _every_graph():
    """(labels, packed rows) of every graph on 1-4 vertices, loops included:
    one bit per pair i <= j, so 2 + 8 + 64 + 1 024 graphs."""
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in range(1 << len(pairs)):
            rows = [0] * n
            for k, (i, j) in enumerate(pairs):
                if bits >> k & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            yield LABELS[:n], rows


def test_every_small_input_matches_the_benchmark_oracle(tmp_path, capsys):
    path = str(tmp_path / "input")
    matrices = 0
    for labels, rows in _every_f2_matrix():
        n = len(labels)
        body = "".join(" ".join(str(r >> j & 1) for j in range(n)) + "\n" for r in rows)
        Path(path).write_text(f"field f2\n{' '.join(labels)}\n{body}")
        nul = oracle.f2_subset_nullities(rows)
        for norm_only, extra in ((False, []), (True, ["--norm-only"])):
            want = oracle.pseq_text(labels, nul, norm_only=norm_only)
            assert _run(capsys, ["pseq", "--matrix", path, *extra]) == want, (rows, extra)
        matrices += 1
    graphs = 0
    for labels, rows in _every_graph():
        Path(path).write_text(oracle.graph_text(labels, rows))
        want = oracle.interlace_text(oracle.f2_subset_nullities(rows), len(rows))
        for method in ("direct", "recursive"):
            argv = ["interlace", "--graph", path, "--method", method]
            assert _run(capsys, argv) == want, (rows, method)
        want = oracle.orbit_text(labels, oracle.orbit_graphs(rows))
        assert _run(capsys, ["orbit", "--graph", path]) == want, rows
        graphs += 1
    assert (matrices, graphs) == (530, 1098)


def _every_double_occurrence_string():
    """Every double occurrence string on 1-4 letters up to relabelling: the
    letters first occur in alphabetical order, so 1 + 3 + 15 + 105 strings."""
    def grow(word, k, opened):
        if len(word) == 2 * k:
            yield word
            return
        if opened < k:
            yield from grow(word + LABELS[opened], k, opened + 1)
        for letter in LABELS[:opened]:
            if word.count(letter) == 1:
                yield from grow(word + letter, k, opened)

    for k in range(1, 5):
        yield from grow("", k, 0)


def test_every_small_distribution_matches_the_benchmark_oracle(capsys):
    strings = 0
    for dos in _every_double_occurrence_string():
        assert _run(capsys, ["distribution", "--dos", dos]) == oracle.distribution_text(dos), dos
        strings += 1
    assert strings == 124

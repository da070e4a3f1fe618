"""The traced in-process run: spans around batches of calls into each module.

Spans (name, start, end, parent, attrs) are kept in memory and written out
when the run ends; every per-layer metric is derived from them afterwards.
Spans live here, around the calls, not inside the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time

from measure import Cli, Tally
from workloads import Inputs, input_files
from pivotpoly import cli as pivot_cli
from pivotpoly import randgen
from pivotpoly.circuits import dos_domain, trace_partition, walk_distribution
from pivotpoly.formats import format_graph, format_partition_sequence, parse_graph, parse_matrix
from pivotpoly.graphs import edge_complement, edges_of, local_complement, pivot_orbit
from pivotpoly.interlace import interlace_recursive, nullity_polynomial
from pivotpoly.matrix import GF2, RATIONAL, Matrix, SubsetMask, determinant, nullity_by_bits
from pivotpoly.pivot import pivot
from pivotpoly.setsystems import partition_sequence_of, set_system_of

IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import pivotpoly.cli; "
    "print(time.perf_counter() - t0)"
)
IMPORT_SAMPLES = 5
Q_PIVOT_CALLS = 3


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        """Median duration of the spans with this name."""
        return statistics.median(s["end"] - s["start"] for s in self.named(name))

    def per_call_us(self, name: str) -> float:
        return statistics.median(
            (s["end"] - s["start"]) / s["attrs"]["calls"] for s in self.named(name)
        ) * 1e6

    def attr(self, name: str, key: str) -> float:
        return statistics.median(s["attrs"][key] for s in self.named(name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def run_in_process(ops, tally: Tally, tr: Tracer) -> tuple[float, float]:
    """Call ``pivotpoly.cli.main`` twice per op with stdout captured, once bare
    and once inside a span, alternating which goes first to cancel drift.

    Returns the summed seconds inside ``main`` without and with spans.
    """
    bare = traced = 0.0
    for i, op in enumerate(ops):
        for with_span in ((False, True) if i % 2 == 0 else (True, False)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if with_span:
                    with tr.span(f"inproc.{op.name}"):
                        code = pivot_cli.main(list(op.argv))
                    traced += tr.spans[-1]["end"] - tr.spans[-1]["start"]
                else:
                    t0 = time.perf_counter()
                    code = pivot_cli.main(list(op.argv))
                    bare += time.perf_counter() - t0
            tally.record(f"in-process {op.name}", code == 0 and buf.getvalue() == op.expected,
                         f"exit {code}")
    return bare, traced


def _repeat(items: list, count: int) -> list:
    return (items * (count // max(1, len(items)) + 1))[:count] if items else []


def run_probes(tr: Tracer, inp: Inputs, cli: Cli, tally: Tally) -> None:
    """One batch of calls per layer probe, each batch in its own span."""
    s = inp.sizes
    b = s.batch
    rng = inp.rng("probes")

    with tr.span("matrix"):
        A = inp.f2_norm
        masks = inp.masks(A.n, 5 * b, "f2_masks")
        with tr.span("matrix.f2_nullity", calls=len(masks)):
            for m in masks:
                nullity_by_bits(A, m)
        Q = inp.q_norm
        qmasks = inp.masks(Q.n, b, "q_masks")
        with tr.span("matrix.q_nullity", calls=len(qmasks)):
            for m in qmasks:
                nullity_by_bits(Q, m)
        dets = [randgen.random_matrix(rng, RATIONAL, s.small) for _ in range(b // 4)]
        with tr.span("matrix.q_det", calls=len(dets)):
            for D in dets:
                determinant(D)
        with tr.span("matrix.construct", calls=5 * b):
            for _ in range(5 * b):
                Matrix(GF2, A.domain, A.rows)

    with tr.span("pivot"):
        instances = inp.small_instances(GF2, b // 4, "f2_pivot")
        with tr.span("pivot.f2_pivot", calls=len(instances)):
            for P, X in instances:
                pivot(P, X)
        P, X = inp.q_pivot
        with tr.span("pivot.q_pivot", calls=Q_PIVOT_CALLS):
            for _ in range(Q_PIVOT_CALLS):
                pivot(P, X)

    with tr.span("setsystems"):
        listing = None
        for field, ladder in ((GF2, s.f2_ladder), (RATIONAL, s.q_ladder)):
            tag = "f2" if field == GF2 else "q"
            for suffix, n in ladder:
                M = inp.matrix(field, n, f"{tag}_ladder_{suffix}")
                with tr.span(f"setsystems.{tag}_sweep.{suffix}", subsets=1 << n):
                    P_seq = partition_sequence_of(M)
                if (tag, suffix) == ("f2", "n16"):
                    listing = P_seq
        smalls = [
            randgen.random_matrix(rng, field, s.small)
            for field in (GF2, RATIONAL)
            for _ in range(max(1, b // 20))
        ]
        with tr.span("setsystems.small_sweep", calls=len(smalls)):
            for M in smalls:
                set_system_of(M)

    with tr.span("interlace"):
        with tr.span("interlace.nullity_polynomial"):
            nullity_polynomial(inp.graph_direct)
        for suffix, n in s.rec_ladder:
            G = inp.graph(n, f"rec_ladder_{suffix}")
            with tr.span(f"interlace.recursive.{suffix}"):
                interlace_recursive(G)

    with tr.span("graphs"):
        G, _ = inp.looped
        with tr.span("graphs.orbit") as attrs:
            orbit = pivot_orbit(G)
            attrs.update(graphs=len(orbit.graphs), moves=len(orbit.moves))
        loops = _repeat(
            [(H, H.domain[i]) for H in orbit.graphs for i in range(H.n) if H.rows[i] >> i & 1], b
        )
        with tr.span("graphs.local_complement", calls=len(loops)):
            for H, u in loops:
                local_complement(H, u)
        L, _ = inp.loopless
        edges = _repeat(list(edges_of(L)), b)
        with tr.span("graphs.edge_complement", calls=len(edges)):
            for u, v in edges:
                edge_complement(L, u, v)

    with tr.span("circuits"):
        dos = tuple(inp.dos)
        with tr.span("circuits.walk_distribution") as attrs:
            dist = walk_distribution(dos)
            attrs["walks"] = sum((i + 1) * c for i, c in enumerate(dist))
        domain = dos_domain(dos)
        flips = [SubsetMask(domain, m) for m in inp.masks(len(domain), b, "flip_masks")]
        with tr.span("circuits.trace_partition", calls=len(flips)):
            for F in flips:
                trace_partition(dos, F)

    with tr.span("formats"):
        files = input_files(inp)
        with tr.span("formats.parse", calls=len(files)):
            for kind, text in files:
                (parse_matrix if kind == "matrix" else parse_graph)(text)
        with tr.span("formats.pseq_output") as attrs:
            attrs["bytes"] = len(format_partition_sequence(listing).encode())
        with tr.span("formats.orbit_output") as attrs:
            text = "".join(format_graph(H) for H in orbit.graphs)
            text += "".join(f"{a} {Y} {c}\n" for a, Y, c in orbit.moves)
            attrs["bytes"] = len(text.encode())

    with tr.span("cli"):
        for _ in range(IMPORT_SAMPLES):
            with tr.span("cli.import") as attrs:
                r = cli.run((), prefix=("-c", IMPORT_SNIPPET))
            ok = r.returncode == 0
            tally.record("cli.import", ok, f"exit {r.returncode}")
            attrs["import_s"] = float(r.stdout) if ok else r.seconds


def derive(tr: Tracer, inp: Inputs) -> dict[str, float]:
    """Per-layer metrics from the recorded spans."""
    s = inp.sizes
    m: dict[str, float] = {
        "matrix.f2_nullity_us": tr.per_call_us("matrix.f2_nullity"),
        "matrix.q_nullity_us": tr.per_call_us("matrix.q_nullity"),
        "matrix.q_det_us": tr.per_call_us("matrix.q_det"),
        "matrix.construct_us": tr.per_call_us("matrix.construct"),
        "pivot.f2_pivot_us": tr.per_call_us("pivot.f2_pivot"),
        "pivot.q_pivot_us": tr.per_call_us("pivot.q_pivot"),
        "setsystems.small_sweep_us": tr.per_call_us("setsystems.small_sweep"),
        "interlace.nullity_polynomial_s": tr.seconds("interlace.nullity_polynomial"),
    }
    for tag, ladder in (("f2", s.f2_ladder), ("q", s.q_ladder)):
        for suffix, _ in ladder:
            m[f"setsystems.{tag}_sweep.{suffix}_s"] = tr.seconds(f"setsystems.{tag}_sweep.{suffix}")
        top = f"setsystems.{tag}_sweep.{ladder[-1][0]}"
        m[f"setsystems.{tag}_subsets_per_s"] = tr.attr(top, "subsets") / tr.seconds(top)
    for suffix, _ in s.rec_ladder:
        m[f"interlace.recursive.{suffix}_s"] = tr.seconds(f"interlace.recursive.{suffix}")

    orbit_s = tr.seconds("graphs.orbit")
    graphs = tr.attr("graphs.orbit", "graphs")
    moves = tr.attr("graphs.orbit", "moves")
    m.update({
        "graphs.orbit_s": orbit_s,
        "graphs.orbit_graphs_per_s": graphs / orbit_s,
        "graphs.local_complement_us": tr.per_call_us("graphs.local_complement"),
        "graphs.edge_complement_us": tr.per_call_us("graphs.edge_complement"),
        "graphs.orbit_graphs": graphs,
        "graphs.orbit_moves": moves,
        # Each move is one unordered pair, reached once from either end.
        "graphs.orbit_new_ratio": (graphs - 1) / (2 * moves) if moves else 0.0,
    })
    walk_s = tr.seconds("circuits.walk_distribution")
    m.update({
        "circuits.walk_distribution_s": walk_s,
        "circuits.walks_per_s": tr.attr("circuits.walk_distribution", "walks") / walk_s,
        "circuits.trace_partition_us": tr.per_call_us("circuits.trace_partition"),
        "formats.parse_ms": tr.seconds("formats.parse") * 1e3,
        "formats.pseq_output_s": tr.seconds("formats.pseq_output"),
        "formats.orbit_output_s": tr.seconds("formats.orbit_output"),
        "formats.output_bytes": tr.attr("formats.pseq_output", "bytes")
        + tr.attr("formats.orbit_output", "bytes"),
        "cli.import_s": tr.attr("cli.import", "import_s"),
    })
    return m

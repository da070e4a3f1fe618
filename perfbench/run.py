"""Layered benchmark of the pivotpoly CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` it runs the workload's op list through the CLI, one
subprocess at a time from this one process (a closed loop with one client),
repeating the list until ``--seconds`` are used, and reports the end-to-end
metrics.  With ``--trace 1`` it runs the list once through the CLI, twice
in process (each op bare and inside a span), and then the per-module probes,
and reports the per-layer metrics.  Every op's stdout is checked against the
expected text from ``oracle``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time

from measure import Cli, Passes, Tally

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3


def _import_package(root: str) -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pivotpoly", "cli.py")):
        sys.exit(f"perfbench: no pivotpoly source under {src}; run from a source checkout")
    sys.path.insert(0, src)


def declared_metrics(root: str) -> dict[str, dict[str, str]]:
    """Units of the metrics in BENCHMARK.json, by trace level."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes,
                 root: str, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object (metrics without units)."""
    from workloads import Inputs, build_ops

    workdir = os.path.join(BENCH_DIR, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inp = Inputs(seed, sizes)
        ops = build_ops(workload, inp, workdir)
        if corrupt:
            ops[0] = dataclasses.replace(ops[0], expected=ops[0].expected + "corrupted\n")
        cli = Cli(os.path.join(root, "src"), workdir)
        tally = Tally()
        largest = None if workload == "verify" else 0
        if trace:
            metrics = _traced(workload, seed, seconds, inp, ops, cli, tally, largest)
        else:
            metrics = _untraced(seconds, ops, cli, tally, largest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _untraced(seconds, ops, cli, tally, largest) -> dict:
    cli.cold_start(tally)  # fills the bytecode cache; not timed
    passes = Passes()
    t0 = time.perf_counter()
    while True:
        p = passes.run(cli, ops, tally)
        print(f"pass {len(passes.passes)}: job_s={sum(p.op_seconds):.4f} "
              f"ref_s={sum(p.ref_chunks):.4f} "
              + " ".join(f"{op.name}={t:.4f}" for op, t in zip(ops, p.op_seconds)))
        if len(passes.passes) >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            break
    m = passes.summary(largest)
    print(f"raw medians over {len(passes.passes)} passes: job_s={m['job_s']:.4f} "
          f"largest_op_s={m['largest_op_s']:.4f} cold_start_s={m['cold_start_s']:.4f}, "
          f"reference chunk {m['ref_s']:.4f} s")
    return {k: m[k] for k in ("setup_s", "job_norm", "largest_op_norm", "peak_rss_mb")}


def _traced(workload, seed, seconds, inp, ops, cli, tally, largest) -> dict:
    from probes import Tracer, derive, run_in_process, run_probes

    tr = Tracer()
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        with tr.span("cli.job") as attrs:
            passes = Passes()
            passes.run(cli, ops, tally)
            m = passes.summary(largest)
            attrs.update({k: m[k] for k in ("job_s", "largest_op_s", "ref_s")})
        with tr.span("inproc") as attrs:
            attrs["bare_s"], attrs["traced_s"] = run_in_process(ops, tally, tr)
        with tr.span("probes"):
            run_probes(tr, inp, cli, tally)
        if time.perf_counter() - t0 + (time.perf_counter() - r0) > seconds:
            break
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    tr.dump(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))

    metrics = derive(tr, inp)
    bare = tr.attr("inproc", "bare_s")
    metrics.update({
        "job_s": tr.attr("cli.job", "job_s"),
        "largest_op_s": tr.attr("cli.job", "largest_op_s"),
        "cli.overhead_s": tr.attr("cli.job", "job_s") - bare,
        "trace.overhead_frac": tr.attr("inproc", "traced_s") / bare - 1,
        "bench.ref_s": tr.attr("cli.job", "ref_s"),
        "error_rate": tally.failed / tally.attempted,
    })
    return metrics


def with_units(metrics: dict, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise AssertionError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def smoke(root: str) -> int:
    """Run every workload at small sizes; check outputs, metric names and units,
    and that a corrupted expected answer is counted as a failed op."""
    import math

    from workloads import SMOKE, WORKLOADS

    units = declared_metrics(root)
    t0 = time.perf_counter()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = run_workload(workload, 1, 0, trace == "1", SMOKE, root)
            printed = with_units(result["metrics"], units[trace])
            if not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: ops failed: {result}")
            for name, m in printed.items():
                if not m["unit"] or not math.isfinite(m["value"]):
                    raise AssertionError(f"{workload} trace {trace}: bad metric {name}: {m}")
        print(f"{workload}: corrupting one expected answer; FAILED lines are expected")
        bad = run_workload(workload, 1, 0, True, SMOKE, root, corrupt=True)
        if bad["correct"] or not bad["metrics"]["error_rate"] > 0:
            raise AssertionError(f"{workload}: a corrupted expected answer went unnoticed")
    print(f"smoke ok: {len(WORKLOADS)} workloads in {time.perf_counter() - t0:.1f} s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small sizes and check the benchmark itself")
    args = ap.parse_args(argv)
    root = os.getcwd()
    _import_package(root)
    if args.smoke:
        return smoke(root)
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS or None in (args.seed, args.seconds, args.trace):
        ap.error(f"need --workload {{{','.join(WORKLOADS)}}} --seed --seconds --trace")
    units = declared_metrics(root)[args.trace]
    result = run_workload(args.workload, args.seed, args.seconds, args.trace == "1", FULL, root)
    result["metrics"] = with_units(result["metrics"], units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timed CLI subprocesses and the machine-speed reference loop."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

OP_TIMEOUT_S = 60
ONE_LABEL_MATRIX = "field f2\nv00\n1\n"
# Seconds of one reference chunk on an uncontended 2.1 GHz x86-64 core
# under CPython 3.11; setup_s is scaled to that speed.
REF_CHUNK_S = 0.06

# Runs the CLI as `python -m pivotpoly` does (-m also goes through runpy)
# and, at exit, writes the process's peak RSS to stderr.  The parent cannot
# take it from wait4: a spawned child's ru_maxrss starts from the parent's
# own peak.  The report costs well under a millisecond.
PEAK_RSS_WRAPPER = """\
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"perfbench-vmhwm-kb {kb}\\n")
atexit.register(report)
runpy.run_module("pivotpoly", run_name="__main__", alter_sys=True)
"""


@dataclass
class CliResult:
    seconds: float
    returncode: int  # -9 after a timeout
    stdout: str
    stderr: str

    def peak_rss_mb(self) -> float:
        kb = [line.split()[1] for line in self.stderr.splitlines()
              if line.startswith("perfbench-vmhwm-kb ")]
        return int(kb[-1]) / 1024 if kb else 0.0


class Cli:
    """Runs ``python -m pivotpoly`` from a source tree, one process at a time."""

    def __init__(self, src_dir: str, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.out_path = os.path.join(workdir, "stdout.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.one_label = os.path.join(workdir, "one.mat")
        with open(self.one_label, "w", encoding="utf-8") as fh:
            fh.write(ONE_LABEL_MATRIX)

    def run(self, argv, prefix=("-c", PEAK_RSS_WRAPPER)) -> CliResult:
        """Wall time from spawn to exit; output goes through files, not pipes.

        The timeout is a timer that kills the child, because a wait with a
        timeout polls in steps of up to 50 ms and would round the times.
        """
        cmd = [sys.executable, *prefix, *argv]
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            return CliResult(seconds, code, out.read().decode("utf-8", "replace"),
                             err.read().decode("utf-8", "replace"))

    def cold_start(self, tally: "Tally") -> float:
        """Seconds of `python -m pivotpoly` on the cheapest op: interpreter
        start, import and argparse."""
        r = self.run(("nullity", "--matrix", self.one_label), prefix=("-m", "pivotpoly"))
        tally.record("cold start", r.returncode == 0 and r.stdout == "0\n", f"exit {r.returncode}")
        return r.seconds


def reference_loop() -> float:
    """Seconds for a fixed pure-Python workload of int, list and dict operations.

    It shares nothing with pivotpoly, so its time tracks only the speed the
    machine gives this process at the moment it runs.
    """
    t0 = time.perf_counter()
    acc = 0
    seen: dict[int, int] = {}
    for i in range(60000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        row = [acc >> k & 1 for k in range(0, 16, 4)]
        seen[acc & 1023] = seen.get(acc & 1023, 0) + sum(row)
    if len(seen) > 1024:
        raise AssertionError("reference loop broke")
    return time.perf_counter() - t0


@dataclass
class Tally:
    """Ops attempted and failed in one run, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{name}: {detail}")


@dataclass
class Pass:
    """One pass over the op list: op and cold-start seconds, and the
    reference chunks run before each op and after the last."""

    op_seconds: list[float] = field(default_factory=list)
    cold_starts: list[float] = field(default_factory=list)
    ref_chunks: list[float] = field(default_factory=list)


@dataclass
class Passes:
    """Repeated passes over a workload's op list, with interleaved cold starts."""

    passes: list[Pass] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def run(self, cli: Cli, ops, tally: Tally) -> Pass:
        """Before each op a reference chunk and a cold start, then the op."""
        p = Pass()
        for op in ops:
            p.ref_chunks.append(reference_loop())
            p.cold_starts.append(cli.cold_start(tally))
            r = cli.run(op.argv)
            p.op_seconds.append(r.seconds)
            self.peak_rss_mb = max(self.peak_rss_mb, r.peak_rss_mb())
            ok = r.returncode == 0 and r.stdout == op.expected
            tally.record(op.name, ok, f"exit {r.returncode}, {len(r.stdout)} bytes of stdout")
        p.ref_chunks.append(reference_loop())
        self.passes.append(p)
        return p

    def summary(self, largest: "int | None") -> dict[str, float]:
        """Per-op medians over the passes, raw and normalised, and their sums.

        On a shared host, other tenants can slow a process by up to 2x, in
        phases from under a second to minutes.  Seconds divided by the mean
        reference chunk of their pass keep their value through such phases;
        raw seconds do not.  So ``setup_s`` is the median cold start in
        reference chunks, times REF_CHUNK_S.  ``largest`` is the index of
        the op reported as the largest; None takes the slowest op of each
        pass.
        """
        med = statistics.median
        raw = [p.op_seconds for p in self.passes]
        norm = [[t / statistics.fmean(p.ref_chunks) for t in p.op_seconds] for p in self.passes]
        cold = [c / statistics.fmean(p.ref_chunks) for p in self.passes for c in p.cold_starts]

        def per_op(table):
            return [med(col) for col in zip(*table)]

        def big(table):
            return med(row[largest] if largest is not None else max(row) for row in table)

        return {
            "setup_s": med(cold) * REF_CHUNK_S,
            "cold_start_s": med(c for p in self.passes for c in p.cold_starts),
            "job_s": sum(per_op(raw)),
            "job_norm": sum(per_op(norm)),
            "largest_op_s": big(raw),
            "largest_op_norm": big(norm),
            "peak_rss_mb": self.peak_rss_mb,
            "ref_s": med(c for p in self.passes for c in p.ref_chunks),
        }

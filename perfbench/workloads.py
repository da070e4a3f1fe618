"""Seeded inputs and the op list of each workload.

Every matrix, graph and string is drawn with ``pivotpoly.randgen`` from a
stream named after the input, ``random.Random(f"{seed}/{name}")``, so a seed
pins every input and each workload draws only what it uses.  The CLI gets
the inputs as files and argv; the expected stdout of every op comes from
``oracle``, never from the package under test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import oracle
from pivotpoly import randgen
from pivotpoly.matrix import GF2, RATIONAL, Matrix, SubsetMask, determinant, principal_submatrix

WORKLOADS = ("sweep", "search", "verify")

VERIFY_OPS = tuple(
    (prop, field)
    for prop in ("nullity-invariance", "tucker", "partial-inverse", "twist", "recursion")
    for field in (GF2, RATIONAL)
) + (("cohn-lempel", GF2),)


@dataclass(frozen=True)
class Sizes:
    """The workload definition: input sizes, trial counts and probe batches.

    ``verify_seed`` is fixed, not drawn from the run seed: a verify op draws
    each trial's size uniformly from 1..8 and its cost is dominated by the
    size-8 trials, so with 80 trials the work of one op moves by about 25%
    from one CLI seed to the next.

    ``graph_rec``, ``looped`` and ``loopless`` are (n, lo, hi): the first
    graph from the stream with lo..hi nonsingular principal submatrices
    (``graph_rec``) or lo..hi graphs in its pivot orbit.  The deletion
    recursion ends in one discrete graph per nonsingular subset, since each
    leaf adds 1 to q(G)(1) = #{X : G[X] nonsingular}, so these windows keep
    the recursion and orbit work of a run about the same for every seed.
    Ladders pair a metric suffix with the size run under it.
    """

    f2_norm: int
    f2_list: int
    graph_direct: int
    q_norm: int
    dos: int
    graph_rec: tuple[int, int, int]
    looped: tuple[int, int, int]
    loopless: tuple[int, int, int]
    verify_size: int
    verify_trials: int
    verify_seed: int
    f2_ladder: tuple[tuple[str, int], ...]
    q_ladder: tuple[tuple[str, int], ...]
    rec_ladder: tuple[tuple[str, int], ...]
    small: int
    q_pivot: int
    batch: int


FULL = Sizes(
    f2_norm=18, f2_list=16, graph_direct=18, q_norm=11, dos=14, graph_rec=(17, 53000, 56000),
    looped=(12, 1700, 1850), loopless=(11, 460, 530),
    verify_size=8, verify_trials=80, verify_seed=42,
    f2_ladder=(("n14", 14), ("n16", 16), ("n18", 18)),
    q_ladder=(("n9", 9), ("n10", 10), ("n11", 11)),
    rec_ladder=(("n13", 13), ("n15", 15), ("n17", 17)),
    small=8, q_pivot=24, batch=400,
)

SMOKE = Sizes(
    f2_norm=8, f2_list=6, graph_direct=8, q_norm=5, dos=6, graph_rec=(8, 1, 1 << 20),
    looped=(6, 1, 1 << 20), loopless=(6, 1, 1 << 20),
    verify_size=4, verify_trials=3, verify_seed=42,
    f2_ladder=(("n14", 6), ("n16", 6), ("n18", 8)),
    q_ladder=(("n9", 4), ("n10", 4), ("n11", 5)),
    rec_ladder=(("n13", 6), ("n15", 7), ("n17", 8)),
    small=4, q_pivot=6, batch=10,
)


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv after ``pivotpoly`` and the exact stdout expected."""

    name: str
    argv: tuple[str, ...]
    expected: str


def matrix_text(A: Matrix) -> str:
    lines = [f"field {A.field}", " ".join(A.domain)]
    if A.field == GF2:
        lines += [" ".join(str(r >> j & 1) for j in range(A.n)) for r in A.rows]
    else:
        lines += [" ".join(str(e) for e in row) for row in A.rows]
    return "\n".join(lines) + "\n"


def _loopless(G: Matrix) -> Matrix:
    return Matrix(GF2, G.domain, tuple(r & ~(1 << i) for i, r in enumerate(G.rows)))


class Inputs:
    """Lazily drawn inputs for one seed; each property has its own stream."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}/{name}")

    def matrix(self, field: str, n: int, name: str) -> Matrix:
        return randgen.random_matrix(self.rng(name), field, n)

    def graph(self, n: int, name: str) -> Matrix:
        return randgen.random_graph(self.rng(name), n)

    @cached_property
    def f2_norm(self) -> Matrix:
        return self.matrix(GF2, self.sizes.f2_norm, "f2_norm")

    @cached_property
    def f2_list(self) -> Matrix:
        return self.matrix(GF2, self.sizes.f2_list, "f2_list")

    @cached_property
    def q_norm(self) -> Matrix:
        return self.matrix(RATIONAL, self.sizes.q_norm, "q_norm")

    @cached_property
    def graph_direct(self) -> Matrix:
        return self.graph(self.sizes.graph_direct, "graph_direct")

    @cached_property
    def graph_rec(self):
        """The recursion graph and its subset nullities."""
        n, lo, hi = self.sizes.graph_rec
        rng = self.rng("graph_rec")
        while True:
            G = randgen.random_graph(rng, n)
            nul = oracle.f2_subset_nullities(list(G.rows))
            if lo <= nul.count(0) <= hi:
                return G, nul

    @cached_property
    def dos(self) -> str:
        return "".join(randgen.random_dos(self.rng("dos"), self.sizes.dos))

    def _orbit_graph(self, name: str, spec, loopless: bool):
        """The first graph of the stream whose orbit size lies in the window."""
        n, lo, hi = spec
        rng = self.rng(name)
        while True:
            G = randgen.random_graph(rng, n)
            if loopless:
                G = _loopless(G)
            rows = list(G.rows)
            # The orbit never outgrows the set system, so most misses are cheap.
            if oracle.f2_subset_nullities(rows).count(0) < lo:
                continue
            graphs = oracle.orbit_graphs(rows)
            if lo <= len(graphs) <= hi:
                return G, graphs

    @cached_property
    def looped(self):
        return self._orbit_graph("looped", self.sizes.looped, loopless=False)

    @cached_property
    def loopless(self):
        return self._orbit_graph("loopless", self.sizes.loopless, loopless=True)

    def small_instances(self, field: str, count: int, name: str):
        """(matrix, valid pivot subset) pairs at the small size."""
        rng = self.rng(name)
        out = []
        for _ in range(count):
            A = randgen.random_matrix(rng, field, self.sizes.small)
            out.append((A, randgen.random_valid_pivot_subset(rng, A)))
        return out

    def masks(self, n: int, count: int, name: str) -> list[int]:
        rng = self.rng(name)
        return [rng.randrange(1 << n) for _ in range(count)]

    @cached_property
    def q_pivot(self):
        """A matrix with p/q entries and a nonsingular half of its labels.

        randgen draws only integers, so the pivot probe draws its own
        fractions to exercise denominators.
        """
        rng = self.rng("q_pivot")
        n = self.sizes.q_pivot
        while True:
            entries = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            A = Matrix.from_entries(RATIONAL, randgen.labels_for(n), entries)
            X = SubsetMask(A.domain, sum(1 << i for i in rng.sample(range(n), n // 2)))
            if determinant(principal_submatrix(A, X)) != 0:
                return A, X


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build_ops(workload: str, inp: Inputs, workdir: str) -> list[Op]:
    """Write the workload's input files and pair each op with its expected stdout.

    The first op of each list is the one reported as the largest, except on
    ``verify``, where the slowest op of each pass is.
    """
    s = inp.sizes
    if workload == "sweep":
        f2n, f2l, q = inp.f2_norm, inp.f2_list, inp.q_norm
        g = inp.graph_direct
        f2n_nul = oracle.f2_subset_nullities(list(f2n.rows))
        f2l_nul = oracle.f2_subset_nullities(list(f2l.rows))
        return [
            Op("pseq_f2_norm",
               ("pseq", "--matrix", _write(workdir, "f2_norm.mat", matrix_text(f2n)), "--norm-only"),
               oracle.pseq_text(f2n.domain, f2n_nul, norm_only=True)),
            Op("pseq_f2_list",
               ("pseq", "--matrix", _write(workdir, "f2_list.mat", matrix_text(f2l))),
               oracle.pseq_text(f2l.domain, f2l_nul, norm_only=False)),
            Op("interlace_direct",
               ("interlace", "--graph", _write(workdir, "direct.graph", oracle.graph_text(g.domain, g.rows)),
                "--method", "direct"),
               oracle.interlace_text(oracle.f2_subset_nullities(list(g.rows)), g.n)),
            Op("pseq_q_norm",
               ("pseq", "--matrix", _write(workdir, "q_norm.mat", matrix_text(q)), "--norm-only"),
               oracle.pseq_text(q.domain, oracle.q_subset_nullities(q.rows), norm_only=True)),
            Op("distribution", ("distribution", "--dos", inp.dos), oracle.distribution_text(inp.dos)),
        ]
    if workload == "search":
        g, nul = inp.graph_rec
        ops = [
            Op("interlace_recursive",
               ("interlace", "--graph", _write(workdir, "recursive.graph", oracle.graph_text(g.domain, g.rows)),
                "--method", "recursive"),
               oracle.interlace_text(nul, g.n)),
        ]
        for name, (G, graphs) in (("orbit_looped", inp.looped), ("orbit_loopless", inp.loopless)):
            path = _write(workdir, f"{name}.graph", oracle.graph_text(G.domain, G.rows))
            ops.append(Op(name, ("orbit", "--graph", path), oracle.orbit_text(G.domain, graphs)))
        return ops
    if workload == "verify":
        t = s.verify_trials
        return [
            Op(f"verify_{prop}_{field}",
               ("verify", "--prop", prop, "--trials", str(t), "--size", str(s.verify_size),
                "--seed", str(s.verify_seed), "--field", field),
               f"{t}/{t} pass\n")
            for prop, field in VERIFY_OPS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def input_files(inp: Inputs) -> list[tuple[str, str]]:
    """(kind, text) of every file the CLI workloads read, for the parse probe."""
    out = [("matrix", matrix_text(A)) for A in (inp.f2_norm, inp.f2_list, inp.q_norm)]
    for G in (inp.graph_direct, inp.graph_rec[0], inp.looped[0], inp.loopless[0]):
        out.append(("graph", oracle.graph_text(G.domain, G.rows)))
    return out

"""Double occurrence strings, overlap graphs, and closed-walk tracing.

A double occurrence string (every letter exactly twice) describes an Euler
circuit of a 2-in, 2-out digraph: consecutive letters give the arcs.  At
each vertex the circuit pairs one incoming arc with one outgoing arc; a
subset X of vertices selects the swapped pairing there instead.  The arc
successors then form a permutation whose cycles are the closed walks, and
swapping the pairing at a vertex transposes the successors of its two
entering arcs, which changes the walk count by exactly one.  The number of
walks is tied to the nullity of the overlap graph:
walks = nullity(overlap[X]) + 1, which makes this tracer an independent
oracle for the algebra.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from .graphs import graph_from_edges
from .matrix import Matrix, SubsetMask, _class_sizes, _Value, check_labels, nullity_by_bits
from .setsystems import check_enumeration_cap

__all__ = [
    "TwoInTwoOutDigraph",
    "WalkPartition",
    "check_double_occurrence",
    "parse_dos",
    "dos_domain",
    "overlap_graph",
    "digraph_of",
    "trace_partition",
    "walk_labels",
    "cohn_lempel_check",
    "walk_counts",
    "walk_distribution",
    "count_euler_circuits",
    "cyclic_equal",
]


def check_double_occurrence(letters: Iterable[str]) -> tuple[str, ...]:
    """Validate and normalize a double occurrence string to a letter tuple."""
    s = tuple(letters)
    if not s:
        raise ValueError("double occurrence string must be non-empty")
    counts = Counter(s)
    bad = sorted(lab for lab, c in counts.items() if c != 2)
    if bad:
        raise ValueError(f"every letter must occur exactly twice; offenders: {bad}")
    check_labels(counts.keys())
    return s


def parse_dos(text: str) -> tuple[str, ...]:
    """Parse a string argument: whitespace-separated tokens if any whitespace
    is present, otherwise one letter per character."""
    stripped = text.strip()
    tokens = stripped.split() if any(ch.isspace() for ch in stripped) else list(stripped)
    return check_double_occurrence(tokens)


def dos_domain(s: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set(s)))


def _occurrences(s: Sequence[str]) -> dict[str, tuple[int, int]]:
    occ: dict[str, list[int]] = {}
    for pos, lab in enumerate(s):
        occ.setdefault(lab, []).append(pos)
    return {lab: (ps[0], ps[1]) for lab, ps in occ.items()}


def overlap_graph(s: Sequence[str]) -> Matrix:
    """The loopless graph joining letters whose occurrences interleave.

    Letters u and v interleave when they read u,v,u,v or v,u,v,u along the
    string, i.e. exactly one occurrence of v falls between the two
    occurrences of u.
    """
    s = check_double_occurrence(s)
    domain = dos_domain(s)
    occ = _occurrences(s)
    edges = []
    for i, u in enumerate(domain):
        p, q = occ[u]
        for v in domain[i + 1:]:
            if sum(p < t < q for t in occ[v]) == 1:
                edges.append((u, v))
    return graph_from_edges(domain, edges)


class TwoInTwoOutDigraph(_Value):
    """A digraph where every vertex has two incoming and two outgoing arcs.

    Arcs are ordered pairs and may be parallel; their tuple position is the
    arc identity used by walk traces.
    """

    __slots__ = ("vertices", "arcs")
    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        outs = Counter(t for t, _ in self.arcs)
        ins = Counter(h for _, h in self.arcs)
        for v in self.vertices:
            if outs[v] != 2 or ins[v] != 2:
                raise ValueError(f"vertex {v!r} is not 2-in, 2-out")
        if set(outs) | set(ins) != set(self.vertices):
            raise ValueError("arcs mention vertices outside the vertex set")


def digraph_of(s: Sequence[str]) -> TwoInTwoOutDigraph:
    """The 2-in, 2-out digraph whose Euler circuit reads the string.

    Arc i runs from s[i] to s[i+1], cyclically.
    """
    s = check_double_occurrence(s)
    L = len(s)
    arcs = tuple((s[i], s[(i + 1) % L]) for i in range(L))
    return TwoInTwoOutDigraph(dos_domain(s), arcs)


class WalkPartition(_Value):
    """Closed walks covering every arc exactly once.

    Each walk is a cyclic arc-index sequence rotated to start at its
    smallest arc; walks are listed in order of that starting arc.
    """

    __slots__ = ("walks", "inducing_set")
    walks: tuple[tuple[int, ...], ...]
    inducing_set: SubsetMask

    def __len__(self) -> int:
        return len(self.walks)


def _entering_arcs(s: Sequence[str], domain: Sequence[str]) -> list[tuple[int, int]]:
    """The two arcs entering each vertex of a validated string, in domain order.

    The circuit sends arc a to arc a + 1.  A letter at positions p and q is
    entered by arcs p - 1 and q - 1; flipping it swaps their successors.
    """
    L = len(s)
    occ = _occurrences(s)
    return [((p - 1) % L, (q - 1) % L) for p, q in map(occ.__getitem__, domain)]


def trace_partition(s: Sequence[str], X: SubsetMask) -> WalkPartition:
    """Decompose the arcs into closed walks, swapping the pairing inside X."""
    s = check_double_occurrence(s)
    domain = dos_domain(s)
    if X.domain != domain:
        raise ValueError("flip set domain differs from the string's letters")
    L = len(s)
    succ = [(a + 1) % L for a in range(L)]
    entering = _entering_arcs(s, domain)
    for v in X.indices():
        e, f = entering[v]
        succ[e], succ[f] = succ[f], succ[e]
    visited = [False] * L
    walks = []
    for start in range(L):
        if visited[start]:
            continue
        walk = []
        a = start
        while not visited[a]:
            visited[a] = True
            walk.append(a)
            a = succ[a]
        walks.append(tuple(walk))
    return WalkPartition(tuple(walks), X)


def walk_labels(s: Sequence[str], walk: Sequence[int]) -> tuple[str, ...]:
    """The vertex string read along a walk: the tail of each arc in order."""
    return tuple(s[a] for a in walk)


def cohn_lempel_check(s: Sequence[str], X: SubsetMask) -> tuple[int, int]:
    """The pair (walk count, nullity of overlap[X] + 1); equal in every case."""
    part = trace_partition(s, X)
    ov = overlap_graph(s)
    return len(part), nullity_by_bits(ov, X.bits) + 1


def walk_counts(s: Sequence[str]) -> bytearray:
    """The number of closed walks under every flip subset, one byte each, indexed by mask value.

    The arc successors form one permutation, and flipping a vertex swaps
    the successors of its two entering arcs: a transposition.  It splits
    the cycle holding both arcs, or joins the two cycles holding one each,
    so one flip changes the walk count by exactly one.  The subsets are
    visited in Gray-code order, one flip per step, and each step walks from
    one entering arc until it meets the other or returns to itself.  By the
    Cohn-Lempel law entry X equals the nullity of overlap[X] plus one.
    """
    s = check_double_occurrence(s)
    domain = dos_domain(s)
    n = len(domain)
    check_enumeration_cap(n, "alphabet size")
    entering = _entering_arcs(s, domain)
    L = len(s)
    succ = [(a + 1) % L for a in range(L)]
    counts = bytearray(1 << n)  # at most n + 1 walks, and n is capped at 24
    counts[0] = walks = 1
    for step in range(1, 1 << n):
        e, f = entering[(step & -step).bit_length() - 1]
        a = succ[e]
        while a != f and a != e:
            a = succ[a]
        walks += 1 if a == f else -1
        succ[e], succ[f] = succ[f], succ[e]
        counts[step ^ step >> 1] = walks
    return counts


def walk_distribution(s: Sequence[str]) -> tuple[int, ...]:
    """Histogram over all flip subsets of (walk count - 1).

    Entry i counts the subsets that split the arcs into i+1 closed walks;
    entry 0 is the number of Euler circuits of the digraph.  Matches the
    norm of the overlap graph's partition sequence.
    """
    counts = walk_counts(s)
    n = len(counts).bit_length() - 1  # one count per subset of n letters
    return _class_sizes(counts, n + 1)[1:]  # walk counts run 1..n+1


def count_euler_circuits(d: TwoInTwoOutDigraph) -> int:
    """Count Euler circuits by backtracking over arcs.

    Each circuit uses arc 0 exactly once, so rooting the search there counts
    every circuit once, independently of any pairing sweep.  The search
    can branch at every vertex, so the vertex count is held to the subset
    enumeration cap.
    """
    check_enumeration_cap(len(d.vertices), "vertex count")
    L = len(d.arcs)
    if L == 0:
        return 0
    out_arcs: dict[str, list[int]] = {v: [] for v in d.vertices}
    for idx, (tail, _) in enumerate(d.arcs):
        out_arcs[tail].append(idx)
    used = [False] * L
    used[0] = True
    start_tail, start_head = d.arcs[0]

    def extend(cur: str, remaining: int) -> int:
        if remaining == 0:
            return 1 if cur == start_tail else 0
        total = 0
        for idx in out_arcs[cur]:
            if not used[idx]:
                used[idx] = True
                total += extend(d.arcs[idx][1], remaining - 1)
                used[idx] = False
        return total

    return extend(start_head, L - 1)


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """Whether two sequences are equal up to rotation (reversal is distinct)."""
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and any(a[r:] + a[:r] == b for r in range(len(a) or 1))

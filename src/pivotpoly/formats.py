"""Line-oriented text formats for matrices, graphs, and partition sequences.

Matrix files:
    field f2          (or: field q)
    a b c             (labels; the following rows use this order as written)
    1 2 5
    1 4 2
    3 2 1

GF(2) entries are 0 or 1; rational entries are integers or p/q fractions.
Graph files start with the word ``graph``, then a label line, then one
``u v`` line per edge (``u u`` for a loop).  All output is emitted in
sorted-label order.  Files describe at least one label; the degenerate
empty matrix exists only in memory.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .matrix import GF2, RATIONAL, Matrix
from .setsystems import PartitionSequence, norm

__all__ = [
    "FormatError",
    "parse_matrix",
    "format_matrix",
    "parse_graph",
    "format_graph",
    "format_norm",
    "format_partition_sequence",
]

_RATIONAL_TOKEN = re.compile(r"-?\d+(/\d+)?$")


class FormatError(ValueError):
    """Malformed input text."""


def _content_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def parse_matrix(text: str) -> Matrix:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "field" or head[1] not in (GF2, RATIONAL):
        raise FormatError("first line must be 'field f2' or 'field q'")
    field = head[1]
    if len(lines) < 2:
        raise FormatError("missing label line")
    labels = lines[1].split()
    n = len(labels)
    body = lines[2:]
    if len(body) != n:
        raise FormatError(f"expected {n} entry rows, found {len(body)}")
    entries = []
    for line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"expected {n} entries per row, got {len(tokens)}")
        row = []
        for tok in tokens:
            if field == GF2:
                if tok not in ("0", "1"):
                    raise FormatError(f"GF(2) entry must be 0 or 1, got {tok!r}")
                row.append(int(tok))
            else:
                if not _RATIONAL_TOKEN.match(tok):
                    raise FormatError(f"bad rational entry {tok!r}")
                num, _, den = tok.partition("/")
                if den == "":
                    row.append(int(num))
                else:
                    if int(den) == 0:
                        raise FormatError(f"zero denominator in {tok!r}")
                    row.append(Fraction(int(num), int(den)))
        entries.append(row)
    try:
        return Matrix.from_entries(field, labels, entries)
    except ValueError as e:
        raise FormatError(str(e)) from None


def format_matrix(A: Matrix) -> str:
    lines = [f"field {A.field}", " ".join(A.domain)]
    for i in range(A.n):
        lines.append(" ".join(str(A.entry_at(i, j)) for j in range(A.n)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Matrix:
    lines = _content_lines(text)
    if not lines or lines[0] != "graph":
        raise FormatError("first line of a graph file must be 'graph'")
    if len(lines) < 2:
        raise FormatError("missing label line")
    labels = lines[1].split()
    try:
        A = Matrix.zeros(GF2, labels)
    except ValueError as e:
        raise FormatError(str(e)) from None
    rows = list(A.rows)
    seen = set()
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must name two labels, got {line!r}")
        u, v = parts
        try:
            i, j = A.index_of(u), A.index_of(v)
        except ValueError as e:
            raise FormatError(str(e)) from None
        key = (min(i, j), max(i, j))
        if key in seen:
            raise FormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Matrix(GF2, A.domain, tuple(rows))


def format_graph(G: Matrix) -> str:
    if G.field != GF2:
        raise ValueError("graph format applies to GF(2) matrices")
    lines = ["graph", " ".join(G.domain)]
    for i in range(G.n):
        for j in range(i, G.n):
            if G.rows[i] >> j & 1:
                lines.append(f"{G.domain[i]} {G.domain[j]}")
    return "\n".join(lines) + "\n"


def format_norm(counts) -> str:
    return "(" + ",".join(str(c) for c in counts) + ")"


def format_partition_sequence(P: PartitionSequence) -> str:
    """One line per nonempty class, then the norm vector.

    Class members print as sorted label sets ordered by mask value.
    """
    lines = []
    for i, cls in enumerate(P.classes):
        if cls:
            members = ",".join(str(X) for X in P.class_sets(i))
            lines.append(f"{i}: {{{members}}}")
    lines.append(f"norm: {format_norm(norm(P))}")
    return "\n".join(lines) + "\n"

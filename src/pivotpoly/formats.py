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
sorted-label order.  Files describe at least one label, so the writers
reject the degenerate empty matrix, which exists only in memory.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

from .matrix import GF2, RATIONAL, Matrix, PartitionSequence, mask_items

__all__ = [
    "FormatError",
    "parse_matrix",
    "format_matrix",
    "parse_graph",
    "format_graph",
    "format_orbit_blocks",
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
                if not den:
                    row.append(int(tok))
                    continue
                from fractions import Fraction  # loaded only by p/q entries

                try:
                    row.append(Fraction(int(num), int(den)))
                except ZeroDivisionError:
                    raise FormatError(f"zero denominator in {tok!r}") from None
        entries.append(row)
    try:
        return Matrix.from_entries(field, labels, entries)
    except ValueError as e:
        raise FormatError(str(e)) from None


def format_matrix(A: Matrix) -> str:
    if not A.n:
        raise ValueError("files describe at least one label; this matrix has none")
    lines = [f"field {A.field}", " ".join(A.domain)]
    lines += [" ".join(map(str, row)) for row in A.to_entries()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Matrix:
    from .graphs import graph_from_edges

    lines = _content_lines(text)
    if not lines or lines[0] != "graph":
        raise FormatError("first line of a graph file must be 'graph'")
    if len(lines) < 2:
        raise FormatError("missing label line")
    try:
        return graph_from_edges(lines[1].split(), _edge_pairs(lines[2:]))
    except ValueError as e:
        raise FormatError(str(e)) from None


def _edge_pairs(lines):
    """Yield each edge line's label pair, checking the line's shape; the
    consumer checks the pair itself, so errors come in line order."""
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must name two labels, got {line!r}")
        yield parts[0], parts[1]


def format_graph(G: Matrix) -> str:
    from .graphs import require_graph

    require_graph(G)
    if not G.n:
        raise ValueError("files describe at least one label; this graph has none")
    return next(_graph_blocks(G.domain, (G.rows,)))


def _graph_blocks(domain, graphs):
    """Yield the graph-file text of each packed-row graph, all on ``domain``.

    Row i prints the edges from label i to labels at or after it, so its
    text depends only on (i, row >> i) and is built once per call.
    """
    head = "graph\n" + " ".join(domain) + "\n"
    edges: list[dict[int, str]] = [{} for _ in domain]
    for rows in graphs:
        block = [head]
        for i, row in enumerate(rows):
            m = row >> i
            text = edges[i].get(m)
            if text is None:
                u, lines, b = domain[i], [], m
                while b:
                    low = b & -b
                    lines.append(f"{u} {domain[i + low.bit_length() - 1]}\n")
                    b ^= low
                text = edges[i][m] = "".join(lines)
            block.append(text)
        yield "".join(block)


def format_orbit_blocks(domain, graphs, moves):
    """Yield the text of a pivot orbit one graph block at a time.

    ``graphs`` are packed row tuples in orbit order and ``moves`` an
    iterable of sorted ``(a, b, part)`` triples with ``part`` a bitmask, as
    the orbit search returns them; it is read once, after the graphs.  The
    text is ``orbit size N``, then ``graph i`` and the graph file of each
    graph, then ``moves`` and one ``a {X} b`` line per move; the move lines
    come in one block per first graph ``a``.
    """
    yield f"orbit size {len(graphs)}\n"
    for idx, block in enumerate(_graph_blocks(domain, graphs)):
        yield f"graph {idx}\n{block}"
    yield "moves\n"
    names: dict[int, str] = {}
    for a, group in groupby(moves, itemgetter(0)):
        lines = []
        for _, b, part in group:
            name = names.get(part)
            if name is None:
                name = names[part] = "{" + ",".join(mask_items(domain, part)) + "}"
            lines.append(f"{a} {name} {b}\n")
        yield "".join(lines)


def format_norm(counts) -> str:
    return "(" + ",".join(str(c) for c in counts) + ")"


def _label_table(labels) -> list[str]:
    """Every subset of labels, by mask, as its labels each followed by a comma."""
    table = [""]
    for label in labels:
        table += [t + label + "," for t in table]
    return table


def format_partition_sequence(P: PartitionSequence) -> str:
    """One line per nonempty class, then the norm vector."""
    return "".join(_partition_lines(P.domain, P.nullities))


# A listing names at most this many class members per yielded piece.
_LISTING_PIECE_NAMES = 4096


def _partition_lines(domain, nullities):
    """Yield the text of :func:`format_partition_sequence` in pieces.

    ``nullities`` is indexed by mask, as in a :class:`PartitionSequence`,
    so ``pseq`` lists straight from the sweep's bytes.  Class members print
    as sorted label sets ordered by mask value.  One pass over the
    nullities buckets each mask in a 4-byte array of its class (masks stay
    below 2^ENUMERATION_CAP).  Each class line then comes as ``k: {``,
    pieces of at most ``_LISTING_PIECE_NAMES`` names and ``}`` with its
    newline.  A name joins one table entry for the low half of the domain
    and one for the high half, so no per-subset object outlives its piece.
    Beyond the nullities, the listing holds 4 bytes a subset and one piece
    of text.
    """
    from array import array

    n = len(domain)
    half = n // 2
    low = _label_table(domain[:half])
    high = _label_table(domain[half:])
    low_bits = len(low) - 1
    buckets = [array("I") for _ in range(n + 1)]
    appends = [b.append for b in buckets]
    for mask, k in enumerate(nullities):
        appends[k](mask)
    for k, masks in enumerate(buckets):
        if not masks:
            continue
        yield f"{k}: {{"
        for start in range(0, len(masks), _LISTING_PIECE_NAMES):
            names = ",".join([
                "{" + (low[m & low_bits] + high[m >> half])[:-1] + "}"
                for m in masks[start : start + _LISTING_PIECE_NAMES]
            ])
            yield "," + names if start else names
        yield "}\n"
    yield f"norm: {format_norm(len(b) for b in buckets)}\n"

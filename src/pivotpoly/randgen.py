"""Seed-deterministic random matrices, graphs, and strings.

The verification suites and the CLI share these generators so a seed pins
the exact instances.  Conventions: matrix entries are drawn row-major; a
GF(2) entry is ``rng.randint(0, 1)``, a rational entry is ``rng.randint(-3, 3)``;
graphs draw one bit per unordered pair (i <= j) in row-major order and
mirror it.  Labels are v00, v01, ..., padded to the width of n - 1 (at
least 2 digits: v000 ... v100 for 101 labels), so lexicographic order
matches index order; strings use letters a, b, c, ...
"""

from __future__ import annotations

import random

from .matrix import GF2, KERNELS, RATIONAL, Matrix, SubsetMask
from .setsystems import subset_nullities

__all__ = [
    "labels_for",
    "random_matrix",
    "random_graph",
    "random_vector",
    "random_subset",
    "random_valid_pivot_subset",
    "valid_pivot_subset_from",
    "random_dos",
]


def labels_for(n: int) -> tuple[str, ...]:
    width = max(2, len(str(n - 1)))
    return tuple(f"v{i:0{width}d}" for i in range(n))


# The entry range of each field.  randint(0, 1) makes the one _randbelow(2)
# call that randrange(2) makes, so GF(2) draws match a randrange(2) stream.
_ENTRY_RANGES = {GF2: (0, 1), RATIONAL: (-3, 3)}


def _entry_draw(rng: random.Random, field: str):
    """The per-entry draw of a field, as a function of no arguments."""
    try:
        lo, hi = _ENTRY_RANGES[field]
    except KeyError:
        raise ValueError(f"unknown field {field!r}") from None
    return lambda: rng.randint(lo, hi)


def random_matrix(rng: random.Random, field: str, n: int) -> Matrix:
    """The matrix of n x n row-major draws, the same as ``Matrix.from_entries``
    would build from them.  The labels are already sorted, so each row is
    packed as it is drawn, with no dense copy, float scan or label sort."""
    draw = _entry_draw(rng, field)
    pack = KERNELS[field].pack_row
    return Matrix(field, labels_for(n), tuple(pack([draw() for _ in range(n)]) for _ in range(n)))


def random_graph(rng: random.Random, n: int) -> Matrix:
    """A symmetric GF(2) matrix: one fair bit per unordered pair, loops included."""
    from .graphs import graph_from_edges

    labels = labels_for(n)
    pairs = ((u, v) for i, u in enumerate(labels) for v in labels[i:])
    return graph_from_edges(labels, [pair for pair in pairs if rng.randrange(2)])


def random_vector(rng: random.Random, field: str, n: int) -> list[int]:
    draw = _entry_draw(rng, field)
    return [draw() for _ in range(n)]


def random_subset(rng: random.Random, domain: tuple[str, ...]) -> SubsetMask:
    return SubsetMask(domain, rng.randrange(1 << len(domain)))


def random_valid_pivot_subset(rng: random.Random, A: Matrix) -> SubsetMask:
    """A uniformly chosen subset with nonsingular principal submatrix.

    The empty set always qualifies, so this never fails.
    """
    return valid_pivot_subset_from(rng, A.domain, subset_nullities(A))


def valid_pivot_subset_from(rng: random.Random, domain: tuple[str, ...], nullities) -> SubsetMask:
    """The draw of :func:`random_valid_pivot_subset`, from a sweep already made.

    ``nullities`` is the mask-indexed bytes of ``subset_nullities``; the
    masks of nullity 0 in ascending order are the sorted set system, so a
    caller that needs the sweep anyway draws the same subset without a
    second one.
    """
    return SubsetMask(domain, rng.choice([m for m, k in enumerate(nullities) if not k]))


def random_dos(rng: random.Random, n: int) -> tuple[str, ...]:
    """A random double occurrence string over the first n letters, a to z."""
    if n > 26:
        raise ValueError(f"a double occurrence string has at most 26 letters, not {n}")
    letters = [chr(97 + i) for i in range(n)] * 2
    rng.shuffle(letters)
    return tuple(letters)

"""Set systems and partition sequences classifying subsets by nullity.

For a matrix A over domain V, every subset S of V lands in class i of the
partition sequence when the principal submatrix A[S] has nullity i.  Class 0
is the set system of nonsingular principal submatrices.  Twisting (symmetric
difference with a fixed subset) permutes subsets without changing class
sizes, which is what makes the norm vector a pivot invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import (
    GF2,
    Matrix,
    SubsetMask,
    compact_bits,
    f2_subset_nullities,
    q_subset_nullities,
)

__all__ = [
    "ENUMERATION_CAP",
    "SetSystem",
    "PartitionSequence",
    "subset_nullities",
    "nullity_histogram",
    "set_system_of",
    "partition_sequence_of",
    "twist",
    "norm",
    "restrict",
]

# Subsets are swept as bitmasks over the sorted domain.  The cap bounds
# memory: the sweep's list alone holds 2^n ints (2^24 x 8 B = 128 MiB).  The
# depth-first walk costs about 2.5 us per subset over GF(2) (2.5 s at n = 20,
# about 40 s at the cap) and about 25 us over the rationals.
ENUMERATION_CAP = 24


@dataclass(frozen=True)
class SetSystem:
    """A family of subsets of a common domain, stored as bitmasks."""

    domain: tuple[str, ...]
    members: frozenset[int]

    def __post_init__(self):
        limit = 1 << len(self.domain)
        if any(not 0 <= m < limit for m in self.members):
            raise ValueError("member mask does not fit the domain")

    def member_sets(self) -> tuple[SubsetMask, ...]:
        return tuple(
            SubsetMask(self.domain, m) for m in sorted(self.members)
        )

    def __contains__(self, X: SubsetMask) -> bool:
        if X.domain != self.domain:
            raise ValueError("membership test across different domains")
        return X.bits in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PartitionSequence:
    """Subsets of the domain grouped by class index 0..n.

    The nonempty classes partition the full power set: classes are pairwise
    disjoint and their sizes sum to 2^n.
    """

    domain: tuple[str, ...]
    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.domain)
        if len(self.classes) != n + 1:
            raise ValueError(f"expected {n + 1} classes, got {len(self.classes)}")
        total = sum(len(c) for c in self.classes)
        if total != 1 << n or len(frozenset().union(*self.classes)) != total:
            raise ValueError("classes must partition the full power set")

    def class_sets(self, i: int) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(self.domain, m) for m in sorted(self.classes[i]))

    def index_of(self, X: SubsetMask) -> int:
        """The class index holding X."""
        if X.domain != self.domain:
            raise ValueError("lookup across different domains")
        for i, cls in enumerate(self.classes):
            if X.bits in cls:
                return i
        raise KeyError(str(X))


def subset_nullities(A: Matrix) -> list[int]:
    """Nullity of A[S] for every subset, indexed by bitmask value.

    This is the one exhaustive sweep: the histogram, the set system and the
    partition sequence are all read off its list.  It is one depth-first
    walk over the labels that inserts a single row per subset (see
    :func:`~pivotpoly.matrix.f2_subset_nullities`), not an elimination per
    subset.
    """
    if A.n > ENUMERATION_CAP:
        raise ValueError(
            f"domain size {A.n} exceeds the subset enumeration cap {ENUMERATION_CAP}"
        )
    if A.field == GF2:
        return f2_subset_nullities(A.rows)
    return q_subset_nullities(A.rows)


def nullity_histogram(A: Matrix) -> tuple[int, ...]:
    """How many subsets fall in each nullity class; sums to 2^n."""
    nullities = subset_nullities(A)
    return tuple(nullities.count(i) for i in range(A.n + 1))


def set_system_of(A: Matrix) -> SetSystem:
    """All subsets whose principal submatrix is nonsingular; always holds the empty set."""
    members = frozenset(m for m, k in enumerate(subset_nullities(A)) if k == 0)
    return SetSystem(A.domain, members)


def partition_sequence_of(A: Matrix) -> PartitionSequence:
    """Classify every subset of the domain by the nullity of its submatrix."""
    buckets: list[list[int]] = [[] for _ in range(A.n + 1)]
    for m, k in enumerate(subset_nullities(A)):
        buckets[k].append(m)
    return PartitionSequence(A.domain, tuple(frozenset(b) for b in buckets))


def twist(obj, X: SubsetMask):
    """Symmetric-difference every member with X; total, unlike matrix pivot.

    Accepts a SetSystem or a PartitionSequence and returns the same kind;
    classes keep their index, so the norm never changes.
    """
    if isinstance(obj, SetSystem):
        if obj.domain != X.domain:
            raise ValueError("twist across different domains")
        return SetSystem(obj.domain, frozenset(m ^ X.bits for m in obj.members))
    if isinstance(obj, PartitionSequence):
        if obj.domain != X.domain:
            raise ValueError("twist across different domains")
        return PartitionSequence(
            obj.domain,
            tuple(frozenset(m ^ X.bits for m in cls) for cls in obj.classes),
        )
    raise TypeError(f"cannot twist {type(obj).__name__}")


def norm(P: PartitionSequence) -> tuple[int, ...]:
    """The vector of class sizes (|P_0|, ..., |P_n|)."""
    return tuple(len(c) for c in P.classes)


def restrict(P: PartitionSequence, X: SubsetMask) -> PartitionSequence:
    """Keep only members inside X and shrink the domain to X's labels.

    For the partition sequence of a matrix A this equals the partition
    sequence of the principal submatrix A[X].
    """
    if P.domain != X.domain:
        raise ValueError("restriction across different domains")
    positions = X.indices()
    k = len(positions)
    outside = ~X.bits
    classes = []
    for i, cls in enumerate(P.classes):
        kept = frozenset(
            compact_bits(m, positions) for m in cls if m & outside == 0
        )
        if i <= k:
            classes.append(kept)
        elif kept:
            raise ValueError("restriction does not form a partition sequence")
    while len(classes) < k + 1:
        classes.append(frozenset())
    return PartitionSequence(X.labels(), tuple(classes))

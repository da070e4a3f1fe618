"""Set systems and partition sequences classifying subsets by nullity.

For a matrix A over domain V, every subset S of V lands in class i of the
partition sequence when the principal submatrix A[S] has nullity i.  Class 0
is the set system of nonsingular principal submatrices.  Twisting (symmetric
difference with a fixed subset) permutes subsets without changing class
sizes, which is what makes the norm vector a pivot invariant.
"""

from __future__ import annotations

from .matrix import (
    KERNELS,
    Matrix,
    PartitionSequence,
    SetSystem,
    SubsetMask,
    _class_sizes,
    check_same_domain,
)

__all__ = [
    "ENUMERATION_CAP",
    "check_enumeration_cap",
    "SetSystem",
    "PartitionSequence",
    "subset_nullities",
    "nullity_histogram",
    "set_system_of",
    "partition_sequence_of",
    "twist",
    "norm",
]

# Subsets are swept as bitmasks over the sorted domain.  For listings, set
# systems, twists and rational histograms the cap bounds memory: the
# sweep fills one byte a subset (2^24 B = 16 MiB at the cap), and a
# partition sequence copies those into bytes of the same size.  A `pseq`
# listing prints from the sweep's bytes, with one 4-byte mask a subset
# besides, and peaks at about 5 B a subset (about 100 MB at the cap, not
# run; 36 MB measured at n = 22, interpreter included).  The depth-first
# walk costs about 0.6 us per subset over GF(2) on random matrices
# (0.6-0.7 s at n = 20, 2.3-2.6 s at n = 22, about 11 s at the cap, on a
# shared 2-vCPU host under CPython 3.11).  Over the rationals at n = 13,
# same host, it costs about 3.3 us per subset with entries in -3..3
# (packed rows), 11 us with entries up to 10^8 and 19 us with large p/q
# entries (list rows).  A
# GF(2) histogram builds no per-subset array, so for it the cap bounds
# time (0.1-0.2 s at n = 20, 0.3-0.7 s at n = 22 and 1.4-2.2 s at the
# cap, same host), and the labels one level pass covers bound its memory.
ENUMERATION_CAP = 24


def subset_nullities(A: Matrix) -> bytearray:
    """Nullity of A[S] for every subset, one byte each, indexed by bitmask value.

    This is the one exhaustive sweep: the histogram, the set system and the
    partition sequence are all read off its bytes.  It is one depth-first
    walk over the labels that keeps the candidate rows of later levels
    reduced against the rows chosen so far, so each subset costs a zero
    test (see :func:`~pivotpoly.matrix.f2_subset_nullities` and
    :func:`~pivotpoly.rational.q_subset_nullities`), not an elimination.
    """
    check_enumeration_cap(A.n)
    return KERNELS[A.field].subset_nullities(A.rows)


def check_enumeration_cap(n: int, what: str = "domain size") -> None:
    """Refuse to enumerate the 2^n subsets of more than ``ENUMERATION_CAP`` items."""
    if n > ENUMERATION_CAP:
        raise ValueError(f"{what} {n} exceeds the subset enumeration cap {ENUMERATION_CAP}")


def nullity_histogram(A: Matrix) -> tuple[int, ...]:
    """How many subsets fall in each nullity class; sums to 2^n.

    Over GF(2) the counts come from a level pass that expands each
    distinct pending list once, with a weight, and builds no mask-indexed
    array (see :func:`~pivotpoly.matrix.f2_nullity_histogram`).
    """
    check_enumeration_cap(A.n)
    return KERNELS[A.field].nullity_histogram(A.rows)


def set_system_of(A: Matrix) -> SetSystem:
    """All subsets whose principal submatrix is nonsingular; always holds the empty set."""
    members = frozenset(m for m, k in enumerate(subset_nullities(A)) if k == 0)
    return SetSystem(A.domain, members)


def partition_sequence_of(A: Matrix) -> PartitionSequence:
    """Classify every subset of the domain by the nullity of its submatrix."""
    return PartitionSequence(A.domain, bytes(subset_nullities(A)))


def twist(obj, X: SubsetMask):
    """Symmetric-difference every member with X; total, unlike matrix pivot.

    Accepts a SetSystem or a PartitionSequence and returns the same kind.
    On a partition sequence the twist is the index permutation y -> y ^ X,
    so every subset keeps its class index and the norm never changes.
    """
    if not isinstance(obj, (SetSystem, PartitionSequence)):
        raise TypeError(f"cannot twist {type(obj).__name__}")
    check_same_domain(obj, X)
    if isinstance(obj, SetSystem):
        return SetSystem(obj.domain, frozenset(m ^ X.bits for m in obj.members))
    return PartitionSequence(obj.domain, _twisted(obj.nullities, X.bits, len(obj.domain)))


def _twisted(old: bytes, x: int, n: int) -> bytes:
    """The bytes ``new[y] = old[y ^ x]`` for the 2^n masks y, moved by slices.

    With k = n // 2, x splits into its low k bits and the rest.  The low
    part permutes within every block of 2^k masks, which is 2^k strided
    slice copies; the high part permutes whole blocks, one slice each.  At
    n = 16 this is about 15 times faster than indexing every mask.
    """
    k = n // 2
    step, lo, hi = 1 << k, x & (1 << k) - 1, x >> k
    mid = bytearray(len(old))
    for z in range(step):
        mid[z::step] = old[z ^ lo :: step]
    return b"".join([mid[(b ^ hi) << k : (b ^ hi) + 1 << k] for b in range(len(old) >> k)])


def norm(P: PartitionSequence) -> tuple[int, ...]:
    """The vector of class sizes (|P_0|, ..., |P_n|)."""
    return _class_sizes(P.nullities, len(P.domain))

"""Exact linear algebra over GF(2) and the rationals.

Matrices are square and indexed by a sorted tuple of string labels.  A GF(2)
matrix packs each row into one Python int (bit j = column j), so elimination
runs as word-wide XOR.  A rational matrix stores ``fractions.Fraction``
entries; its row format and eliminations live in :mod:`pivotpoly.rational`,
which is imported on the first rational lookup.  Only the row format and the
elimination kernels know the field, and each field's sit in one
``FieldKernels`` record of ``KERNELS``; ``Matrix`` and the operations look
that record up and hold no field branch.  Operations that eliminate nothing
(the identity, principal submatrices) work on dense entries through
``Matrix.from_entries``.  Every value is immutable and every operation is
a pure function.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

GF2 = "f2"
RATIONAL = "q"

__all__ = [
    "GF2",
    "RATIONAL",
    "SingularMatrixError",
    "PivotUndefinedError",
    "SubsetMask",
    "SetSystem",
    "PartitionSequence",
    "Matrix",
    "check_labels",
    "check_same_domain",
    "mask_items",
    "principal_submatrix",
    "delete_label",
    "rank",
    "nullity",
    "nullity_by_bits",
    "determinant",
    "inverse",
    "mat_vec",
]


class SingularMatrixError(ValueError):
    """An inverse was requested of a singular matrix."""


class PivotUndefinedError(SingularMatrixError):
    """A pivot-style operation hit a singular principal block.

    Carries the offending subset so callers choosing pivots can react.
    """

    def __init__(self, message: str, subset: "SubsetMask | None" = None):
        super().__init__(message)
        self.subset = subset


def check_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """Validate labels: non-empty strings without whitespace, pairwise distinct."""
    out = tuple(labels)
    for lab in out:
        # str.split() and str.isspace() share one whitespace table, so this
        # rejects '' and every label holding whitespace in one C-level pass.
        if not isinstance(lab, str) or lab.split() != [lab]:
            raise ValueError(
                f"invalid label {lab!r}: labels are non-empty strings without whitespace"
            )
    if len(set(out)) != len(out):
        raise ValueError("duplicate labels in domain")
    return out


def check_same_domain(a, b) -> None:
    """Raise ValueError unless two values (matrices, masks, set systems) share one domain."""
    if a.domain != b.domain:
        raise ValueError(f"domains differ: {a.domain} and {b.domain}")


def _reject_floats(values: Iterable) -> None:
    """Floats are binary approximations: 0.1 would be stored as 3602879701896397/2^55."""
    for e in values:
        if isinstance(e, float):
            raise ValueError(f"float entry {e!r} is not exact: give an int or a Fraction")


class _Value:
    """Base of the immutable value types: fields live in ``__slots__``.

    Each subclass names its fields in ``__slots__`` and may define a
    ``__post_init__`` check.  ``__init__``, ``__eq__`` and ``__hash__`` are
    compiled per subclass with the field names spelled out; ``__init__``
    sets each field and then calls ``__post_init__``, if there is one.
    Values compare and hash as the tuple of their fields, print like the
    frozen dataclasses they replace, and pickle and copy by calling the
    class on their fields again.  A generic ``__eq__`` that read the fields
    through ``operator.attrgetter`` made ``==`` on ``SubsetMask`` about
    twice as slow.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ = cls.__slots__
        mine = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        theirs = mine.replace("self.", "other.")
        sets = "".join(f"    _set_field(self, {f!r}, {f})\n" for f in fields)
        check = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace: dict = {}
        exec(
            f"def __init__(self, {', '.join(fields)}):\n{sets}{check}"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {mine} == {theirs}\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash({mine})\n",
            {"_set_field": _set_field},
            namespace,
        )
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


# Bound once: ``pivot_orbit`` builds a Matrix per orbit graph and a
# SubsetMask per move, and a global load is cheaper than looking
# ``__setattr__`` up on ``object`` at every build.
_set_field = object.__setattr__


def mask_items(domain: Sequence, bits: int):
    """Yield ``domain[i]`` for each set bit i of a mask, lowest first."""
    while bits:
        low = bits & -bits
        yield domain[low.bit_length() - 1]
        bits ^= low


def _class_sizes(values: bytes, n: int) -> tuple[int, ...]:
    """How many of the values 0..n fall in each class: one C-level count each."""
    return tuple(values.count(k) for k in range(n + 1))


class SubsetMask(_Value):
    """A subset of a sorted label domain, stored as a bitmask.

    Bit i corresponds to ``domain[i]``.  Symmetric difference is ``^``.
    """

    __slots__ = ("domain", "bits")
    domain: tuple[str, ...]
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << len(self.domain)):
            raise ValueError("mask bits do not fit the domain")

    @classmethod
    def full(cls, domain: Iterable[str]) -> "SubsetMask":
        domain = tuple(domain)
        return cls(domain, (1 << len(domain)) - 1)

    @classmethod
    def of(cls, domain: Iterable[str], labels: Iterable[str]) -> "SubsetMask":
        domain = tuple(domain)
        position = {lab: i for i, lab in enumerate(domain)}
        bits = 0
        for lab in labels:
            if lab not in position:
                raise ValueError(f"label {lab!r} not in domain {domain}")
            if bits >> position[lab] & 1:
                raise ValueError(f"label {lab!r} given twice")
            bits |= 1 << position[lab]
        return cls(domain, bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(mask_items(self.domain, self.bits))

    def indices(self) -> tuple[int, ...]:
        return tuple(mask_items(range(len(self.domain)), self.bits))

    def __xor__(self, other: "SubsetMask") -> "SubsetMask":
        check_same_domain(self, other)
        return SubsetMask(self.domain, self.bits ^ other.bits)

    def __contains__(self, label: str) -> bool:
        if label not in self.domain:
            return False
        return bool(self.bits >> self.domain.index(label) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


# Value types beside SubsetMask: formats names PartitionSequence, and the
# commands that read files (pivot, nullity, orbit) load formats but not
# setsystems.
class SetSystem(_Value):
    """A family of subsets of a common domain, stored as bitmasks."""

    __slots__ = ("domain", "members")
    domain: tuple[str, ...]
    members: frozenset[int]

    def __post_init__(self):
        limit = 1 << len(self.domain)
        if any(not 0 <= m < limit for m in self.members):
            raise ValueError("member mask does not fit the domain")

    def __contains__(self, X: SubsetMask) -> bool:
        check_same_domain(self, X)
        return X.bits in self.members

    def __len__(self) -> int:
        return len(self.members)


class PartitionSequence(_Value):
    """The class index 0..n of every subset of the domain, indexed by mask.

    ``nullities`` is ``bytes``, one byte a subset: ``nullities[m]`` is the
    class of the subset with bitmask m; for the partition sequence of a
    matrix it is the nullity of the principal submatrix on m.  Class i is
    the set of masks whose entry is i, so the classes partition the full
    power set by construction.
    """

    __slots__ = ("domain", "nullities")
    domain: tuple[str, ...]
    nullities: bytes

    def __post_init__(self):
        n = len(self.domain)
        if type(self.nullities) is not bytes:
            raise ValueError(f"nullities must be bytes, not {type(self.nullities).__name__}")
        if len(self.nullities) != 1 << n:
            raise ValueError(f"expected {1 << n} nullities, got {len(self.nullities)}")
        # Deleting every class index 0..n leaves nothing: one C-level pass,
        # about 25 times faster than max() over the bytes.
        if self.nullities.translate(None, bytes(range(n + 1))):
            raise ValueError(f"nullities must lie in 0..{n}")

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        """The masks of each class 0..n."""
        return tuple(
            frozenset(m for m, k in enumerate(self.nullities) if k == i)
            for i in range(len(self.domain) + 1)
        )


class Matrix(_Value):
    """A square matrix over GF(2) or the rationals with a sorted label domain.

    ``rows`` is a tuple holding one packed int per label over GF(2), and
    one Fraction tuple per label over the rationals.  Build from dense data
    with :meth:`from_entries`, which also permutes arbitrary label order
    into the canonical sorted layout.
    """

    __slots__ = ("field", "domain", "rows")
    field: str
    domain: tuple[str, ...]
    rows: tuple

    def __post_init__(self):
        kernels = KERNELS[self.field]
        check_labels(self.domain)
        if tuple(sorted(self.domain)) != self.domain:
            raise ValueError("matrix domain must be sorted")
        n = len(self.domain)
        if not isinstance(self.rows, tuple):
            raise ValueError("matrix rows must be a tuple")
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        kernels.check_rows(self.rows)

    @classmethod
    def from_entries(cls, field: str, labels: Iterable[str], entries) -> "Matrix":
        """Build a matrix whose rows/columns follow ``labels`` as given.

        The result is canonicalized: rows and columns are permuted into
        sorted label order.  Float entries are rejected, since they are not
        exact; give ints or Fractions.
        """
        given = check_labels(labels)
        n = len(given)
        dense = [list(row) for row in entries]
        if len(dense) != n or any(len(row) != n for row in dense):
            raise ValueError(f"entries must form an {n} x {n} array")
        for row in dense:
            _reject_floats(row)
        order = sorted(range(n), key=lambda i: given[i])
        domain = tuple(given[i] for i in order)
        pack = KERNELS[field].pack_row
        return cls(field, domain, tuple(pack([dense[i][j] for j in order]) for i in order))

    @classmethod
    def identity(cls, field: str, labels: Iterable[str]) -> "Matrix":
        labels = tuple(labels)
        n = len(labels)
        return cls.from_entries(field, labels, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: str, labels: Iterable[str]) -> "Matrix":
        labels = tuple(labels)
        n = len(labels)
        return cls.from_entries(field, labels, [[0] * n] * n)

    @property
    def n(self) -> int:
        return len(self.domain)

    def index_of(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in matrix domain") from None

    def entry_at(self, i: int, j: int):
        return KERNELS[self.field].entry(self.rows, i, j)

    def entry(self, row_label: str, col_label: str):
        return self.entry_at(self.index_of(row_label), self.index_of(col_label))

    def to_entries(self) -> list[list]:
        return KERNELS[self.field].unpack(self.rows)

    def subset(self, *labels: str) -> SubsetMask:
        """Convenience: the SubsetMask of the given labels over this domain."""
        return SubsetMask.of(self.domain, labels)

    def full_subset(self) -> SubsetMask:
        return SubsetMask.full(self.domain)

    def is_symmetric(self) -> bool:
        return KERNELS[self.field].is_symmetric(self.rows)


# ---------------------------------------------------------------------------
# GF(2) row format: one packed int per row.

def f2_check_rows(rows: tuple) -> None:
    limit = 1 << len(rows)
    for r in rows:
        if not isinstance(r, int) or not 0 <= r < limit:
            raise ValueError("GF(2) rows must be ints fitting the domain width")


def f2_pack_row(entries: Iterable) -> int:
    """One packed row of 0/1 entries, the first entry lowest."""
    bits = 0
    for j, e in enumerate(entries):
        if e not in (0, 1):
            raise ValueError(f"GF(2) entry must be 0 or 1, got {e!r}")
        bits |= int(e) << j
    return bits


def f2_unpack(rows: Sequence[int]) -> list[list[int]]:
    n = len(rows)
    return [[r >> j & 1 for j in range(n)] for r in rows]


def f2_entry(rows: Sequence[int], i: int, j: int) -> int:
    return rows[i] >> j & 1


def f2_is_symmetric(rows: Sequence[int]) -> bool:
    """Each set bit (i, j) needs its mirror: O(n + edges), not n^2."""
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            if not rows[low.bit_length() - 1] >> i & 1:
                return False
            r ^= low
    return True


def f2_mat_vec(rows: Sequence[int], xs: Sequence) -> list[int]:
    packed = f2_pack_row(xs)
    return [(r & packed).bit_count() & 1 for r in rows]


# ---------------------------------------------------------------------------
# GF(2) kernels on packed rows.

def f2_rank_rows(rows: Iterable[int]) -> int:
    """Rank of the span of packed GF(2) row vectors.

    Maintains a basis keyed by leading bit; column positions need not be
    contiguous, so masked rows can be ranked without compaction.
    """
    pivots: dict[int, int] = {}
    rnk = 0
    for r in rows:
        while r:
            top = r.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = r
                rnk += 1
                break
            r ^= other
    return rnk


def f2_subset_nullities(rows: Sequence[int]) -> bytearray:
    """Nullity of A[X] over GF(2) for every mask X, one byte each, indexed by mask value.

    n(A[X]) is the nullity of A with each row i outside X replaced by e_i,
    so a depth-first walk over labels 0..n-1 picks one row per level, e_i
    or A_i, and every candidate row is known in advance.  The walk carries
    the candidates still to come, e_i, A_i, e_{i+1}, A_{i+1}, ..., packed
    n bits a row into one int with e_i lowest, each reduced on every pivot
    column of the rows picked so far.  A zero candidate adds one to the
    running nullity and passes the rest, ``pending >> 2n``, down as it is.
    A nonzero candidate v takes its lowest bit s as pivot, and every later
    row w with bit s becomes w ^ v: ``rest ^ (rest >> s & base) * v``,
    where ``base`` has a 1 at the low bit of each row of ``rest``.  The
    mask leaves each row 0 or 1, so the product puts 0 or v < 2^n in each
    row and never carries into the next.  The last two levels are
    unrolled, so each leaf costs a zero test.

    Why a zero test suffices: every picked row vanishes on all earlier
    pivots, so the picked rows are in echelon form and any nonzero vector
    of their span is nonzero on some pivot column.  A pending row differs
    from its original by a vector of the span and vanishes on every pivot,
    so it is zero exactly when its original lies in the span.
    """
    n = len(rows)
    out = bytearray(1 << n)
    if n < 2:
        if n:
            out[1] = not rows[0]
        return out
    last = n - 2
    below, top = 1 << last, 1 << (n - 1)
    low, pair = (1 << n) - 1, 2 * n
    bases = [((1 << pair * k) - 1) // low for k in range(n - 1, 0, -1)]

    def walk(i: int, mask: int, nul: int, pending: int) -> None:
        if i == last:
            c, d = pending >> pair & low, pending >> 3 * n
            for m, v in ((mask, pending & low), (mask | below, pending >> n & low)):
                if v:
                    h = v & -v
                    out[m] = nul + (not (c ^ v if c & h else c))
                    out[m | top] = nul + (not (d ^ v if d & h else d))
                else:
                    out[m] = nul + 1 + (not c)
                    out[m | top] = nul + 1 + (not d)
            return
        rest, base = pending >> pair, bases[i]
        for m, v in ((mask, pending & low), (mask | 1 << i, pending >> n & low)):
            if v:
                s = (v & -v).bit_length() - 1
                walk(i + 1, m, nul, rest ^ (rest >> s & base) * v)
            else:
                walk(i + 1, m, nul + 1, rest)

    walk(0, 0, 0, sum((1 << i | r << n) << pair * i for i, r in enumerate(rows)))
    # walk's cell refers to walk, and the cycle would hold ``out`` until the
    # next garbage collection; emptying the cell frees it with the caller.
    del walk
    return out


# The histogram runs one level pass over at most this many labels.  A
# level's dict holds one entry per distinct pending list, and their number
# grows with the labels the pass covers: one pass over all the labels of a
# random 24-label matrix peaked at 131 MB resident.  Past this bound a first
# pass covers the first n - 18 labels, and each pending list it reaches
# (at most 2^(n - 18) of them, kept while the passes run) runs its own pass
# over the last 18 labels, so no pass holds more than 18 labels' worth of
# states (1.3-2.4 MiB on random 18-label matrices, tracemalloc; the process
# peaked at 17.8 MB at 24 labels).
_LEVEL_PASS_LABELS = 18


def f2_nullity_histogram(rows: Sequence[int]) -> tuple[int, ...]:
    """How many masks X give A[X] over GF(2) each nullity 0..n.

    The walk of :func:`f2_subset_nullities` on the same packed list, run
    level by level and returning counts instead of mask-indexed bytes.  By
    the echelon argument there, the counts below a node depend only on its
    pending list, so each level keeps one entry per distinct list, with
    its weight: the ways it is reached, counted by running nullity and
    packed into one int, W = n + 1 bits per class (a level holds at most
    2^n subsets).  A nonzero candidate v passes the weight w to its child,
    and a zero candidate passes ``w << W``, one nullity up.  After the last
    label every list is empty, so the last level is one entry, 0, whose
    weight is the histogram.  Deep levels repeat a lot: on three random
    n = 18 matrices the 2^16 nodes of level 16 held 1 964-2 272 distinct
    lists.  Domains over ``_LEVEL_PASS_LABELS`` labels run a first pass
    over their first n - ``_LEVEL_PASS_LABELS`` labels, then one pass over
    the rest from each list it reaches, and add the weights those passes
    end with.
    """
    n = len(rows)
    width = n + 1
    split = max(n - _LEVEL_PASS_LABELS, 0)
    low, pair = (1 << n) - 1, 2 * n
    bases = [((1 << pair * k) - 1) // low for k in range(n - 1, -1, -1)]

    def expand(level: dict[int, int], start: int, stop: int) -> dict[int, int]:
        for i in range(start, stop):
            base, nxt = bases[i], {}
            get = nxt.get
            # The two candidates, e_i then A_i, unrolled: a loop over the
            # pair cost 5-10% here.
            for pending, w in level.items():
                rest = pending >> pair
                v = pending & low
                if v:
                    s = (v & -v).bit_length() - 1
                    child = rest ^ (rest >> s & base) * v
                    nxt[child] = get(child, 0) + w
                else:
                    nxt[rest] = get(rest, 0) + (w << width)
                v = pending >> n & low
                if v:
                    s = (v & -v).bit_length() - 1
                    child = rest ^ (rest >> s & base) * v
                    nxt[child] = get(child, 0) + w
                else:
                    nxt[rest] = get(rest, 0) + (w << width)
            level = nxt
        return level

    root = sum((1 << i | r << n) << pair * i for i, r in enumerate(rows))
    t = sum(expand({p: w}, split, n)[0] for p, w in expand({root: 1}, 0, split).items())
    return tuple(t >> (width * k) & ((1 << width) - 1) for k in range(n + 1))


def f2_pivot_rows(rows: Sequence[int], bits: int) -> "tuple[int, ...] | None":
    """Rows of the pivot on X = ``bits``, or None if the block on X is singular.

    Row i packs the relation A_i x + y_i = 0 as 2n bits: x low, y high.
    Gauss-Jordan on each column j of X, with pivot rows taken from X only,
    leaves x_j in row j and in no other row.  Each row then gives its output
    (x_j for j in X, y_i outside X) in terms of y on X and x outside X,
    which is the pivot's row.
    """
    n = len(rows)
    rel = [r | 1 << (n + i) for i, r in enumerate(rows)]
    for j in range(n):
        if not bits >> j & 1:
            continue
        piv = next((k for k in range(j, n) if bits >> k & 1 and rel[k] >> j & 1), None)
        if piv is None:
            return None
        rel[j], rel[piv] = rel[piv], rel[j]
        p = rel[j]
        for i in range(n):
            if i != j and rel[i] >> j & 1:
                rel[i] ^= p
    outside = ((1 << n) - 1) ^ bits
    return tuple(r & outside | r >> n & bits for r in rel)


def f2_rank_det(rows: Sequence[int], bits: int) -> tuple[int, int]:
    """(rank, determinant) of the principal block on mask ``bits``, from its rows masked."""
    rnk = f2_rank_rows(r & bits for r in mask_items(rows, bits))
    return rnk, int(rnk == bits.bit_count())


# ---------------------------------------------------------------------------
# Operations on Matrix values.

class FieldKernels(_Value):
    """One field's kernels and row format (``check_rows`` to ``mat_vec``).

    By nullity invariance nothing else differs between GF(2) and Q, so
    ``Matrix`` and each operation look their field's record up in
    ``KERNELS`` and hold no field branch.
    """

    __slots__ = (
        "rank_det", "pivot_rows", "subset_nullities", "nullity_histogram",
        "check_rows", "pack_row", "unpack", "entry", "is_symmetric", "mat_vec",
    )


class _FieldTable(dict):
    """``KERNELS`` imports the rational record on its first lookup, so a
    process that sees only GF(2) data never loads ``fractions``."""

    def __missing__(self, field):
        if field != RATIONAL:
            raise ValueError(f"unknown field {field!r}")
        from .rational import KERNELS as record

        self[field] = record
        return record


KERNELS = _FieldTable({
    GF2: FieldKernels(
        f2_rank_det, f2_pivot_rows, f2_subset_nullities, f2_nullity_histogram,
        f2_check_rows, f2_pack_row, f2_unpack, f2_entry, f2_is_symmetric, f2_mat_vec,
    ),
})


def principal_submatrix(A: Matrix, X: SubsetMask) -> Matrix:
    """The principal submatrix of A on the labels of X."""
    check_same_domain(A, X)
    dense, idx = A.to_entries(), X.indices()
    return Matrix.from_entries(A.field, X.labels(), [[dense[i][j] for j in idx] for i in idx])


def delete_label(A: Matrix, label: str) -> Matrix:
    """Remove one row/column: the principal submatrix on everything else."""
    i = A.index_of(label)
    keep = SubsetMask(A.domain, ((1 << A.n) - 1) ^ (1 << i))
    return principal_submatrix(A, keep)


def _block_rank_det(A: Matrix, bits: int) -> tuple:
    """(rank, determinant) of the principal block of A on mask ``bits``, read in place."""
    return KERNELS[A.field].rank_det(A.rows, bits)


def rank(A: Matrix) -> int:
    return _block_rank_det(A, (1 << A.n) - 1)[0]


def nullity(A: Matrix) -> int:
    """Dimension of the null space: n minus the rank, 0 for the empty matrix."""
    return A.n - rank(A)


def nullity_by_bits(A: Matrix, bits: int) -> int:
    """Nullity of the principal submatrix selected by a raw bitmask.

    One elimination per call, for spot checks of single subsets; a sweep
    over every subset goes through :func:`f2_subset_nullities` or
    :func:`pivotpoly.rational.q_subset_nullities`.  A mask outside the
    domain raises ``ValueError``.
    """
    return len(SubsetMask(A.domain, bits)) - _block_rank_det(A, bits)[0]


def determinant(A: Matrix):
    """Exact determinant; 1 for the empty matrix by convention.

    Returns an int (0 or 1) over GF(2) and a Fraction over the rationals.
    """
    return _block_rank_det(A, (1 << A.n) - 1)[1]


def pivot_rows(A: Matrix, bits: int) -> "tuple | None":
    """Rows of the pivot of A on the columns in ``bits``; None if that block is singular."""
    return KERNELS[A.field].pivot_rows(A.rows, bits)


def inverse(A: Matrix) -> Matrix:
    """Exact inverse, the pivot on the full domain; raises SingularMatrixError when singular."""
    rows = pivot_rows(A, (1 << A.n) - 1)
    if rows is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix(A.field, A.domain, rows)


def mat_vec(A: Matrix, xs: Sequence) -> list:
    """Matrix-vector product; xs is indexed like A's domain."""
    if len(xs) != A.n:
        raise ValueError("vector length differs from matrix dimension")
    _reject_floats(xs)
    return KERNELS[A.field].mat_vec(A.rows, xs)

"""Exact linear algebra over GF(2) and the rationals.

Matrices are square and indexed by a sorted tuple of string labels.  A GF(2)
matrix packs each row into one Python int (bit j = column j), so elimination
runs as word-wide XOR; a rational matrix stores ``fractions.Fraction``
entries, which keep themselves in lowest terms with positive denominators.
Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

GF2 = "f2"
RATIONAL = "q"

__all__ = [
    "GF2",
    "RATIONAL",
    "SingularMatrixError",
    "PivotUndefinedError",
    "SubsetMask",
    "Matrix",
    "check_labels",
    "principal_submatrix",
    "delete_label",
    "transpose",
    "rank",
    "nullity",
    "nullity_by_bits",
    "determinant",
    "inverse",
    "identity_outside",
    "mat_mul",
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
        if not isinstance(lab, str) or not lab or any(ch.isspace() for ch in lab):
            raise ValueError(
                f"invalid label {lab!r}: labels are non-empty strings without whitespace"
            )
    if len(set(out)) != len(out):
        raise ValueError("duplicate labels in domain")
    return out


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a sorted label domain, stored as a bitmask.

    Bit i corresponds to ``domain[i]``.  Symmetric difference is ``^``.
    """

    domain: tuple[str, ...]
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << len(self.domain)):
            raise ValueError("mask bits do not fit the domain")

    @classmethod
    def empty(cls, domain: Iterable[str]) -> "SubsetMask":
        return cls(tuple(domain), 0)

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
            try:
                bits |= 1 << position[lab]
            except KeyError:
                raise ValueError(f"label {lab!r} not in domain {domain}") from None
        return cls(domain, bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.domain) if self.bits >> i & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.domain)) if self.bits >> i & 1)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.domain, self.bits ^ ((1 << len(self.domain)) - 1))

    def __xor__(self, other: "SubsetMask") -> "SubsetMask":
        if self.domain != other.domain:
            raise ValueError("symmetric difference across different domains")
        return SubsetMask(self.domain, self.bits ^ other.bits)

    def __contains__(self, label: str) -> bool:
        if label not in self.domain:
            return False
        return bool(self.bits >> self.domain.index(label) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


@dataclass(frozen=True)
class Matrix:
    """A square matrix over GF(2) or the rationals with a sorted label domain.

    ``rows`` holds one packed int per label over GF(2), and a tuple of
    Fraction tuples over the rationals.  Build from dense data with
    :meth:`from_entries`, which also permutes arbitrary label order into the
    canonical sorted layout.
    """

    field: str
    domain: tuple[str, ...]
    rows: tuple

    def __post_init__(self):
        if self.field not in (GF2, RATIONAL):
            raise ValueError(f"unknown field {self.field!r}")
        check_labels(self.domain)
        if tuple(sorted(self.domain)) != self.domain:
            raise ValueError("matrix domain must be sorted")
        n = len(self.domain)
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        if self.field == GF2:
            for r in self.rows:
                if not isinstance(r, int) or not 0 <= r < (1 << n):
                    raise ValueError("GF(2) rows must be ints fitting the domain width")
        else:
            for r in self.rows:
                if len(r) != n or not all(isinstance(e, Fraction) for e in r):
                    raise ValueError("rational rows must be Fraction tuples of length n")

    @classmethod
    def from_entries(cls, field: str, labels: Iterable[str], entries) -> "Matrix":
        """Build a matrix whose rows/columns follow ``labels`` as given.

        The result is canonicalized: rows and columns are permuted into
        sorted label order.
        """
        given = check_labels(labels)
        n = len(given)
        dense = [list(row) for row in entries]
        if len(dense) != n or any(len(row) != n for row in dense):
            raise ValueError(f"entries must form an {n} x {n} array")
        order = sorted(range(n), key=lambda i: given[i])
        domain = tuple(given[i] for i in order)
        if field == GF2:
            rows = []
            for i in order:
                bits = 0
                for jj, j in enumerate(order):
                    e = dense[i][j]
                    if e not in (0, 1):
                        raise ValueError(f"GF(2) entry must be 0 or 1, got {e!r}")
                    bits |= int(e) << jj
                rows.append(bits)
            return cls(GF2, domain, tuple(rows))
        if field == RATIONAL:
            rows = tuple(
                tuple(Fraction(dense[i][j]) for j in order) for i in order
            )
            return cls(RATIONAL, domain, rows)
        raise ValueError(f"unknown field {field!r}")

    @classmethod
    def identity(cls, field: str, labels: Iterable[str]) -> "Matrix":
        domain = tuple(sorted(check_labels(labels)))
        n = len(domain)
        if field == GF2:
            return cls(GF2, domain, tuple(1 << i for i in range(n)))
        rows = tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )
        return cls(RATIONAL, domain, rows)

    @classmethod
    def zeros(cls, field: str, labels: Iterable[str]) -> "Matrix":
        domain = tuple(sorted(check_labels(labels)))
        n = len(domain)
        if field == GF2:
            return cls(GF2, domain, (0,) * n)
        return cls(RATIONAL, domain, ((Fraction(0),) * n,) * n)

    @property
    def n(self) -> int:
        return len(self.domain)

    def index_of(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in matrix domain") from None

    def entry_at(self, i: int, j: int):
        if self.field == GF2:
            return self.rows[i] >> j & 1
        return self.rows[i][j]

    def entry(self, row_label: str, col_label: str):
        return self.entry_at(self.index_of(row_label), self.index_of(col_label))

    def to_entries(self) -> list[list]:
        return [[self.entry_at(i, j) for j in range(self.n)] for i in range(self.n)]

    def subset(self, *labels: str) -> SubsetMask:
        """Convenience: the SubsetMask of the given labels over this domain."""
        return SubsetMask.of(self.domain, labels)

    def full_subset(self) -> SubsetMask:
        return SubsetMask.full(self.domain)

    def is_symmetric(self) -> bool:
        return all(
            self.entry_at(i, j) == self.entry_at(j, i)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )


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


def f2_invert_rows(rows: Sequence[int], n: int) -> "list[int] | None":
    """Inverse of an n x n packed GF(2) matrix, or None if singular."""
    aug = [rows[i] | 1 << (n + i) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r] >> col & 1:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r] >> col & 1:
                aug[r] ^= aug[col]
    return [row >> n for row in aug]


def f2_mul_rows(a_rows: Sequence[int], b_rows: Sequence[int]) -> list[int]:
    """Product of packed GF(2) matrices: a is m x k, b is k x p (k = len(b_rows))."""
    out = []
    for arow in a_rows:
        acc = 0
        r = arow
        while r:
            j = (r & -r).bit_length() - 1
            acc ^= b_rows[j]
            r &= r - 1
        out.append(acc)
    return out


def compact_bits(bits: int, positions: Sequence[int]) -> int:
    """Gather the given bit positions into a contiguous low-order mask."""
    out = 0
    for jj, j in enumerate(positions):
        if bits >> j & 1:
            out |= 1 << jj
    return out


def scatter_bits(bits: int, positions: Sequence[int]) -> int:
    """Inverse of :func:`compact_bits`: spread low-order bits to positions."""
    out = 0
    for jj, j in enumerate(positions):
        if bits >> jj & 1:
            out |= 1 << j
    return out


# ---------------------------------------------------------------------------
# Rational kernels on lists of Fraction lists.

def q_rank_det(rows: Sequence[Sequence[Fraction]]) -> tuple[int, Fraction]:
    """Gaussian elimination over the rationals; returns (rank, determinant).

    The determinant applies to square input; for the empty matrix it is 1.
    """
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if a else 0
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        pivval = a[r][col]
        det *= pivval
        for i in range(r + 1, m):
            f = a[i][col]
            if f:
                ratio = f / pivval
                rowi, rowr = a[i], a[r]
                for c in range(col, ncols):
                    rowi[c] -= ratio * rowr[c]
        r += 1
        if r == m:
            break
    if m == ncols and r == m:
        return r, det
    return r, Fraction(0)


def q_invert(rows: Sequence[Sequence[Fraction]]) -> "list[list[Fraction]] | None":
    """Gauss-Jordan inverse over the rationals, or None if singular."""
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        if pv != 1:
            a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def q_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]], p: "int | None" = None) -> list[list[Fraction]]:
    """Product of rational matrices; pass p (columns of b) when b may be empty."""
    if p is None:
        p = len(b[0]) if b else 0
    k = len(b)
    return [
        [sum((arow[t] * b[t][c] for t in range(k)), Fraction(0)) for c in range(p)]
        for arow in a
    ]


# ---------------------------------------------------------------------------
# Operations on Matrix values.

def _check_domain(A: Matrix, X: SubsetMask) -> None:
    if A.domain != X.domain:
        raise ValueError("subset domain differs from matrix domain")


def principal_submatrix(A: Matrix, X: SubsetMask) -> Matrix:
    """The principal submatrix of A on the labels of X."""
    _check_domain(A, X)
    idx = X.indices()
    sub_domain = X.labels()
    if A.field == GF2:
        rows = tuple(compact_bits(A.rows[i], idx) for i in idx)
        return Matrix(GF2, sub_domain, rows)
    rows = tuple(tuple(A.rows[i][j] for j in idx) for i in idx)
    return Matrix(RATIONAL, sub_domain, rows)


def delete_label(A: Matrix, label: str) -> Matrix:
    """Remove one row/column: the principal submatrix on everything else."""
    i = A.index_of(label)
    keep = SubsetMask(A.domain, ((1 << A.n) - 1) ^ (1 << i))
    return principal_submatrix(A, keep)


def transpose(A: Matrix) -> Matrix:
    if A.field == GF2:
        rows = tuple(
            sum((A.rows[j] >> i & 1) << j for j in range(A.n)) for i in range(A.n)
        )
        return Matrix(GF2, A.domain, rows)
    rows = tuple(tuple(A.rows[j][i] for j in range(A.n)) for i in range(A.n))
    return Matrix(RATIONAL, A.domain, rows)


def rank(A: Matrix) -> int:
    if A.field == GF2:
        return f2_rank_rows(A.rows)
    return q_rank_det(A.rows)[0]


def nullity(A: Matrix) -> int:
    """Dimension of the null space: n minus the rank, 0 for the empty matrix."""
    return A.n - rank(A)


def nullity_by_bits(A: Matrix, bits: int) -> int:
    """Nullity of the principal submatrix selected by a raw bitmask.

    Fast path for exhaustive subset sweeps; zero columns outside the mask
    cannot affect the rank, so GF(2) rows are masked rather than compacted.
    """
    k = bits.bit_count()
    if k == 0:
        return 0
    if A.field == GF2:
        rows = A.rows
        return k - f2_rank_rows(rows[i] & bits for i in range(A.n) if bits >> i & 1)
    idx = [i for i in range(A.n) if bits >> i & 1]
    sub = [[A.rows[i][j] for j in idx] for i in idx]
    return k - q_rank_det(sub)[0]


def determinant(A: Matrix):
    """Exact determinant; 1 for the empty matrix by convention.

    Returns an int (0 or 1) over GF(2) and a Fraction over the rationals.
    """
    if A.field == GF2:
        return int(f2_rank_rows(A.rows) == A.n)
    return q_rank_det(A.rows)[1]


def inverse(A: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when the determinant is zero."""
    if A.field == GF2:
        inv = f2_invert_rows(A.rows, A.n)
        if inv is None:
            raise SingularMatrixError("matrix is singular")
        return Matrix(GF2, A.domain, tuple(inv))
    inv = q_invert(A.rows)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix(RATIONAL, A.domain, tuple(tuple(r) for r in inv))


def identity_outside(A: Matrix, X: SubsetMask) -> Matrix:
    """Copy of A with every row outside X replaced by the matching identity row.

    The resulting matrix has the same nullity as the principal submatrix A[X].
    """
    _check_domain(A, X)
    n = A.n
    if A.field == GF2:
        rows = tuple(
            A.rows[i] if X.bits >> i & 1 else 1 << i for i in range(n)
        )
        return Matrix(GF2, A.domain, rows)
    rows = tuple(
        A.rows[i]
        if X.bits >> i & 1
        else tuple(Fraction(int(i == j)) for j in range(n))
        for i in range(n)
    )
    return Matrix(RATIONAL, A.domain, rows)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """Exact matrix product of two matrices over the same domain and field."""
    if A.field != B.field or A.domain != B.domain:
        raise ValueError("matrix product needs matching fields and domains")
    if A.field == GF2:
        return Matrix(GF2, A.domain, tuple(f2_mul_rows(A.rows, B.rows)))
    return Matrix(
        RATIONAL,
        A.domain,
        tuple(tuple(r) for r in q_mul(A.rows, B.rows, p=A.n)),
    )


def mat_vec(A: Matrix, xs: Sequence) -> list:
    """Matrix-vector product; xs is indexed like A's domain."""
    if len(xs) != A.n:
        raise ValueError("vector length differs from matrix dimension")
    if A.field == GF2:
        packed = 0
        for i, v in enumerate(xs):
            if v not in (0, 1):
                raise ValueError("GF(2) vector entries must be 0 or 1")
            packed |= int(v) << i
        return [(A.rows[i] & packed).bit_count() & 1 for i in range(A.n)]
    vec = [Fraction(v) for v in xs]
    return [
        sum((A.rows[i][j] * vec[j] for j in range(A.n)), Fraction(0))
        for i in range(A.n)
    ]

"""The rational field's row format and eliminations, in the record ``KERNELS``.

A rational row is a tuple of ``fractions.Fraction`` entries, which keep
themselves in lowest terms.  The eliminations (rank and determinant, pivot
and the subset sweep) run on Python ints, each row scaled once by the lcm of
its denominators, and build Fractions only for what they return.  The
subset sweep packs each pending row into one int when the Hadamard bound of
the cleared rows is narrow, and divides exactly by the previous pivot
(Bareiss); wider rows stay lists, each reduced row divided by its gcd.
``matrix.KERNELS`` imports this module on its first rational lookup.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul

from .matrix import FieldKernels, _class_sizes, mask_items

__all__ = ["KERNELS"]


def q_check_rows(rows: tuple) -> None:
    n = len(rows)
    for r in rows:
        if not isinstance(r, tuple) or len(r) != n or not all(isinstance(e, Fraction) for e in r):
            raise ValueError("rational rows must be Fraction tuples of length n")


def q_pack_row(entries: Iterable) -> tuple[Fraction, ...]:
    """One row of Fractions.  A Fraction entry is kept as it is: building it
    again costs about 1 us, the most of what a principal submatrix costs."""
    return tuple(e if e.__class__ is Fraction else Fraction(e) for e in entries)


def q_unpack(rows: Sequence[Sequence[Fraction]]) -> list[list]:
    return [list(r) for r in rows]


def q_entry(rows: Sequence[Sequence[Fraction]], i: int, j: int) -> Fraction:
    return rows[i][j]


def q_is_symmetric(rows: tuple) -> bool:
    return rows == tuple(zip(*rows))


def q_mat_vec(rows: Sequence[Sequence[Fraction]], xs: Sequence) -> list:
    """A x on cleared integers: x is scaled once by the lcm e of its
    denominators and row i by its own d_i, so entry i is one integer dot
    product over d_i e, one Fraction an entry."""
    vec = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    e = lcm(*(x.denominator for x in vec))
    ys = [x.numerator * (e // x.denominator) for x in vec]
    scales, ints = _cleared(rows)
    return [Fraction(sum(map(mul, row, ys)), d * e) for d, row in zip(scales, ints)]


# ---------------------------------------------------------------------------
# Kernels on cleared integer rows.

def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Scale each row by the lcm d of its denominators: (the d's, the integer rows).

    Scaling a row keeps the rank of every principal submatrix and multiplies
    the determinant by d; eliminations then run on Python ints.
    """
    scales = [lcm(*(e.denominator for e in row)) for row in rows]
    ints = [[e.numerator * (d // e.denominator) for e in row] for d, row in zip(scales, rows)]
    return scales, ints


def q_rank_det(rows: Sequence[Sequence[Fraction]], bits: int) -> tuple[int, Fraction]:
    """Bareiss elimination on the cleared block on mask ``bits``; returns (rank, determinant).

    Each update p*a - f*b is divided exactly by the previous pivot, so every
    entry stays a minor of the cleared block and the last pivot is its
    determinant, up to the sign of the row swaps; for the empty block it is 1.
    """
    idx = tuple(mask_items(range(len(rows)), bits))
    scales, a = _cleared([[rows[i][j] for j in idx] for i in idx])
    m = len(a)
    prev, sign, r = 1, 1, 0
    for col in range(m):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        rowr = a[r]
        p = rowr[col]
        for i in range(r + 1, m):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rowr)]
        prev = p
        r += 1
    if r == m:
        return r, Fraction(sign * prev, prod(scales))
    return r, Fraction(0)


# The widest slot, in bits, that the packed walk of q_subset_nullities takes.
# Above it the gcd list walk can be faster: the two cross near 220-250 bits
# on random dense rows, but near 170-180 on sparse or low-rank ones.
PACKED_SLOT_BITS = 128


def q_subset_nullities(rows: Sequence[Sequence[Fraction]]) -> bytearray:
    """Rational twin of :func:`~pivotpoly.matrix.f2_subset_nullities`, fraction-free.

    The walk runs on the cleared rows with the same pending list, e_i then
    A_i for each later level.  A nonzero candidate v takes its first nonzero
    column c as pivot, p = v[c], and reduces every later row w on c with
    f = w[c], so the child's list vanishes on c; the echelon argument of the
    GF(2) walk carries over unchanged.

    B, the product of isqrt(|r|^2) + 1 over the cleared rows r, bounds every
    minor of every row choice (Hadamard).  When wd = bitlen(2B^2) + 2 is at
    most ``PACKED_SLOT_BITS``, each pending row is one int of n signed
    wd-bit slots and each step is Bareiss's: every later row w becomes
    (p*w - f*v) // prev, prev the pivot before p (1 at the root).  The
    division is exact, also for f = 0, so every slot stays a minor, at most
    B, and p*w - f*v fits its slot.  Wider rows are lists, and a row with f
    nonzero becomes p*w - f*v divided by the gcd of its entries, which keeps
    it primitive and so bounded by minors of the cleared matrix too.
    """
    n = len(rows)
    out = bytearray(1 << n)
    if n:
        _, ints = _cleared(rows)
        bound = prod(isqrt(sum(x * x for x in r)) + 1 for r in ints)
        wd = (2 * bound * bound).bit_length() + 2
        if wd <= PACKED_SLOT_BITS:
            _packed_walk(ints, wd, out)
        else:
            _gcd_walk(ints, out)
    return out


def _packed_walk(ints: list[list[int]], wd: int, out: bytearray) -> None:
    """Fill ``out`` with rows packed ``wd`` bits a slot, column j in slot j.

    The pivot column c is the lowest nonzero slot of v, at bit s.  Slot c
    of w is read with a rounding shift, since the slots below it are
    signed: r adds 2^(s-1), which rounds them away, and half to slot c,
    which then reads as an unsigned field; ``cols`` holds (s, r) for each
    c.  The last two levels are unrolled: a leaf row p*w - f*v is zero
    exactly when p*w == f*v, so the last reduction needs no division.
    """
    n = len(ints)
    if n == 1:
        out[1] = not ints[0][0]
        return
    pen, below, top = n - 2, 1 << n - 2, 1 << n - 1
    half, low = 1 << wd - 1, (1 << wd) - 1
    cols = [(s, (half << s) + (1 << s >> 1)) for s in range(0, n * wd, wd)]

    def walk(i: int, mask: int, nul: int, prev: int, pending: list[int]) -> None:
        if i == pen:
            c, d = pending[2], pending[3]
            for m, v in ((mask, pending[0]), (mask | below, pending[1])):
                if v:
                    s, r = cols[((v & -v).bit_length() - 1) // wd]
                    p = ((v + r >> s) & low) - half
                    out[m] = nul + (p * c == (((c + r) >> s & low) - half) * v)
                    out[m | top] = nul + (p * d == (((d + r) >> s & low) - half) * v)
                else:
                    out[m] = nul + 1 + (not c)
                    out[m | top] = nul + 1 + (not d)
            return
        rest = pending[2:]
        for m, v in ((mask, pending[0]), (mask | 1 << i, pending[1])):
            if not v:
                walk(i + 1, m, nul + 1, prev, rest)
                continue
            s, r = cols[((v & -v).bit_length() - 1) // wd]
            p = ((v + r >> s) & low) - half
            walk(i + 1, m, nul, p, [(p * w - (((w + r) >> s & low) - half) * v) // prev for w in rest])

    walk(0, 0, 0, 1, [x for i, row in enumerate(ints)
                      for x in (1 << wd * i, sum(e << wd * j for j, e in enumerate(row)))])
    del walk  # frees ``out`` with the caller, as in f2_subset_nullities


def _gcd_walk(ints: list[list[int]], out: bytearray) -> None:
    """Fill ``out`` with rows as lists, each reduced row divided by its gcd."""
    n = len(ints)
    last = n - 1
    top = 1 << last

    def walk(i: int, mask: int, nul: int, pending: list[list[int]]) -> None:
        if i == last:
            out[mask] = nul + (not any(pending[0]))
            out[mask | top] = nul + (not any(pending[1]))
            return
        rest = pending[2:]
        for m, v in ((mask, pending[0]), (mask | 1 << i, pending[1])):
            for c, p in enumerate(v):
                if p:
                    break
            else:
                walk(i + 1, m, nul + 1, rest)
                continue
            child = []
            for w in rest:
                f = w[c]
                if f:
                    w = [p * x - f * y for x, y in zip(w, v)]
                    g = gcd(*w)
                    if g > 1:
                        w = [x // g for x in w]
                child.append(w)
            walk(i + 1, m, nul, child)

    units = [[int(i == j) for j in range(n)] for i in range(n)]
    walk(0, 0, 0, [x for u, r in zip(units, ints) for x in (u, r)])
    del walk  # frees ``out`` with the caller, as in f2_subset_nullities


def q_pivot_rows(rows: Sequence[Sequence[Fraction]], bits: int) -> "tuple | None":
    """Rational twin of :func:`~pivotpoly.matrix.f2_pivot_rows`, fraction-free.

    Relation row i is the cleared (d_i A_i | -d_i e_i).  Each step replaces
    every other row by p*row - f*pivot_row divided exactly by the previous
    pivot (Bareiss), so all entries stay integers.  A row's output, x_j for
    j in X or y_i outside X, is its entries over minus its own coefficient.
    """
    n = len(rows)
    scales, ints = _cleared(rows)
    rel = [r + [0] * n for r in ints]
    for i, d in enumerate(scales):
        rel[i][n + i] = -d
    prev = 1
    for j in range(n):
        if not bits >> j & 1:
            continue
        piv = next((k for k in range(j, n) if bits >> k & 1 and rel[k][j]), None)
        if piv is None:
            return None
        rel[j], rel[piv] = rel[piv], rel[j]
        pr = rel[j]
        p = pr[j]
        for i in range(n):
            if i != j:
                f = rel[i][j]
                rel[i] = [(p * x - f * y) // prev for x, y in zip(rel[i], pr)]
        prev = p
    out = []
    for i, r in enumerate(rel):
        own = -(r[i] if bits >> i & 1 else r[n + i])
        out.append(tuple(Fraction(r[n + t] if bits >> t & 1 else r[t], own) for t in range(n)))
    return tuple(out)


def q_nullity_histogram(rows: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """How many masks X give A[X] over Q each nullity 0..n, counted from the sweep."""
    return _class_sizes(q_subset_nullities(rows), len(rows))


KERNELS = FieldKernels(
    q_rank_det, q_pivot_rows, q_subset_nullities, q_nullity_histogram,
    q_check_rows, q_pack_row, q_unpack, q_entry, q_is_symmetric, q_mat_vec,
)

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pivotpoly
from pivotpoly import (
    GF2,
    RATIONAL,
    Matrix,
    PartitionSequence,
    PivotOrbit,
    Poly,
    SetSystem,
    SingularMatrixError,
    SubsetMask,
    TwoInTwoOutDigraph,
    WalkPartition,
    delete_label,
    determinant,
    graph_from_edges,
    inverse,
    mat_vec,
    nullity,
    pivot,
    pivot_orbit,
    principal_submatrix,
    rank,
)
from pivotpoly.matrix import KERNELS, check_labels, nullity_by_bits
from pivotpoly.rational import q_pivot_rows, q_rank_det, q_subset_nullities
from pivotpoly.randgen import labels_for, random_graph, random_matrix, random_vector

import oracles
from samples import pivot_pair_left, rational_stress_matrices, sample_rational_matrix


# --- labels, masks, construction -------------------------------------------

@pytest.mark.parametrize("bad", ["", "a b", "x\t", "new\nline"])
def test_bad_labels_rejected(bad):
    with pytest.raises(ValueError):
        Matrix.zeros(GF2, ["ok", bad])


def old_label_predicate(lab):
    return isinstance(lab, str) and bool(lab) and not any(ch.isspace() for ch in lab)


def label_accepted(lab):
    try:
        check_labels([lab])
    except ValueError as err:
        assert "labels are non-empty strings without whitespace" in str(err)
        return False
    return True


def four_placements(ch):
    return (ch, ch + "x", "x" + ch, "x" + ch + "y")


def test_label_check_matches_entrywise_whitespace_test():
    # str.split() and str.isspace() read the same whitespace table.
    assert not label_accepted("")
    for code in range(0x3001):
        for lab in four_placements(chr(code)):
            assert label_accepted(lab) == old_label_predicate(lab), hex(code)
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        for lab in four_placements(ch):
            assert not label_accepted(lab), hex(ord(ch))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Matrix.zeros(GF2, ["a", "a"])


def test_from_entries_canonicalizes_label_order():
    A = Matrix.from_entries(RATIONAL, ["b", "a"], [[1, 2], [3, 4]])
    assert A.domain == ("a", "b")
    assert A.entry("a", "a") == 4
    assert A.entry("a", "b") == 3
    assert A.entry("b", "a") == 2
    assert A.entry("b", "b") == 1


def symmetric_entries(rng, field, n):
    entries = random_matrix(rng, field, n).to_entries()
    for i in range(n):
        for j in range(i):
            entries[i][j] = entries[j][i]
    return entries


def is_symmetric_entrywise(A):
    entries = A.to_entries()
    return all(entries[i][j] == entries[j][i] for i in range(A.n) for j in range(A.n))


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_is_symmetric_matches_entrywise_oracle(field):
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(0, 9)
        entries = symmetric_entries(rng, field, n)
        A = Matrix.from_entries(field, labels_for(n), entries)
        assert A.is_symmetric() and is_symmetric_entrywise(A)
        if n < 2:
            continue
        i, j = rng.sample(range(n), 2)
        entries[i][j] = 1 - entries[i][j] if field == GF2 else entries[i][j] + 1
        B = Matrix.from_entries(field, labels_for(n), entries)
        assert not B.is_symmetric() and not is_symmetric_entrywise(B)


def test_gf2_symmetry_check_reads_packed_rows(monkeypatch):
    G = random_graph(random.Random(59), 12)
    lopsided = Matrix(GF2, G.domain, (G.rows[0] ^ 1 << 11,) + G.rows[1:])
    calls = [0]
    real = Matrix.entry_at

    def counting(self, i, j):
        calls[0] += 1
        return real(self, i, j)

    monkeypatch.setattr(Matrix, "entry_at", counting)
    assert G.is_symmetric()
    assert not lopsided.is_symmetric()
    assert calls[0] == 0


def test_gf2_entries_validated():
    with pytest.raises(ValueError):
        Matrix.from_entries(GF2, ["a"], [[2]])


@pytest.mark.parametrize("field, value", [(RATIONAL, 0.1), (RATIONAL, 2.0), (GF2, 1.0), (GF2, 0.0)])
def test_float_entries_rejected(field, value):
    # Over Q, 0.1 would be stored as 3602879701896397/36028797018963968;
    # over GF(2), 1.0 == 1 would slip past the 0/1 check.
    with pytest.raises(ValueError, match="float"):
        Matrix.from_entries(field, ["a", "b"], [[1, 0], [value, 1]])
    with pytest.raises(ValueError, match="float"):
        mat_vec(Matrix.identity(field, ["a", "b"]), [0, value])
    assert Matrix.from_entries(RATIONAL, ["a"], [[Fraction(1, 10)]]).rows == ((Fraction(1, 10),),)


@pytest.mark.parametrize(
    "field, domain, rows",
    [
        (GF2, ("a", "b"), [1, 2]),
        (RATIONAL, ("a",), ([Fraction(1)],)),
        (RATIONAL, ("a",), (1,)),
    ],
)
def test_rows_must_be_tuples(field, domain, rows):
    # A list anywhere in rows would leave the matrix mutable and unhashable.
    with pytest.raises(ValueError):
        Matrix(field, domain, rows)


def test_subset_mask_basics():
    dom = ("a", "b", "c")
    X = SubsetMask.of(dom, ["c", "a"])
    assert X.labels() == ("a", "c")
    assert X.indices() == (0, 2)
    assert "a" in X and "b" not in X
    assert len(X) == 2
    assert str(X) == "{a,c}"
    assert (X ^ SubsetMask.full(dom)).labels() == ("b",)
    with pytest.raises(ValueError):
        SubsetMask.of(dom, ["z"])
    with pytest.raises(ValueError):
        X ^ SubsetMask(("a", "b"), 0)


def test_subset_mask_rejects_a_repeated_label():
    # A repeated label used to merge silently, so {a, a} became {a}.
    with pytest.raises(ValueError, match="^label 'a' given twice$"):
        SubsetMask.of(("a", "b", "c"), ["a", "b", "a"])
    with pytest.raises(ValueError, match="not in domain"):
        SubsetMask.of(("a", "b"), ["z", "z"])


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mask_labels_and_indices_list_set_bits_in_order(n_bits):
    n, bits = n_bits
    dom = tuple(f"v{i:02d}" for i in range(n))
    X = SubsetMask(dom, bits)
    assert X.indices() == tuple(i for i in range(n) if bits >> i & 1)
    assert X.labels() == tuple(dom[i] for i in X.indices())


@given(st.integers(0, 255), st.integers(0, 255))
def test_mask_xor_is_symmetric_difference(x, y):
    dom = tuple(f"v{i}" for i in range(8))
    a, b = SubsetMask(dom, x), SubsetMask(dom, y)
    assert (a ^ b).bits == x ^ y
    assert (a ^ b) ^ b == a
    assert a ^ SubsetMask(dom, 0) == a
    assert (a ^ a).bits == 0


# --- principal submatrices ---------------------------------------------------

def test_submatrix_of_rational_sample():
    A = sample_rational_matrix()
    sub = principal_submatrix(A, A.subset("b", "c"))
    assert sub.domain == ("b", "c")
    assert sub.to_entries() == [[4, 2], [2, 1]]


def test_submatrix_empty_and_full():
    A = sample_rational_matrix()
    empty = principal_submatrix(A, A.subset())
    assert empty.n == 0 and empty.to_entries() == []
    assert principal_submatrix(A, A.full_subset()) == A


def test_submatrix_of_graph():
    G = pivot_pair_left()
    sub = principal_submatrix(G, G.subset("1", "2", "3"))
    assert sub.to_entries() == [[0, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_submatrix_domain_mismatch():
    A = sample_rational_matrix()
    with pytest.raises(ValueError):
        principal_submatrix(A, SubsetMask(("x", "y", "z"), 0))


def test_delete_label():
    A = sample_rational_matrix()
    B = delete_label(A, "b")
    assert B.domain == ("a", "c")
    assert B.to_entries() == [[1, 5], [3, 1]]


# --- rank / nullity / determinant -------------------------------------------

def test_nullity_worked_values():
    A = sample_rational_matrix()
    assert nullity(principal_submatrix(A, A.subset("b", "c"))) == 1
    assert nullity(Matrix.zeros(RATIONAL, [])) == 0
    assert nullity(pivot_pair_left()) == 0


def test_determinant_worked_values():
    G = pivot_pair_left()
    assert determinant(principal_submatrix(G, G.subset("1", "2", "3"))) == 1
    assert determinant(Matrix.zeros(GF2, [])) == 1
    assert determinant(Matrix.zeros(RATIONAL, [])) == 1
    B = Matrix.from_entries(RATIONAL, ["a", "b"], [[1, 2], [1, 4]])
    assert determinant(B) == 2


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_nullity_by_bits_rejects_masks_outside_the_domain(field):
    assert [nullity_by_bits(Matrix.zeros(field, ["a", "b"]), m) for m in range(4)] == [0, 1, 1, 2]
    A = Matrix.identity(field, ["a", "b"])
    assert [nullity_by_bits(A, m) for m in range(4)] == [0, 0, 0, 0]
    for bits in (4, -1):
        with pytest.raises(ValueError, match="do not fit the domain"):
            nullity_by_bits(A, bits)


def test_rank_nullity_and_transpose_agree():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 7)
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, n)
        assert rank(A) + nullity(A) == n
        assert rank(A) == rank(Matrix.from_entries(field, A.domain, zip(*A.to_entries())))


def test_det_nonzero_iff_nullity_zero():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(0, 6)
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, n)
        assert (determinant(A) != 0) == (nullity(A) == 0)


def test_rational_rank_and_det_against_expansion_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = random_matrix(rng, RATIONAL, n)
        dense = A.to_entries()
        assert determinant(A) == oracles.det_by_expansion(dense)
        assert rank(A) == oracles.rank_by_minors(dense)
    for A in rational_stress_matrices(random.Random(37), 40, 5):
        dense = A.to_entries()
        assert determinant(A) == oracles.det_by_expansion(dense)
        assert rank(A) == oracles.rank_by_minors(dense)


def test_block_rank_det_on_every_mask_against_dense_oracles():
    # Both fields' kernel reads the principal block on a mask in place;
    # the oracles expand the dense block, reduced mod 2 over GF(2).
    rng = random.Random(71)
    cases = [Matrix.zeros(field, []) for field in (GF2, RATIONAL)]
    cases += [random_matrix(rng, field, n) for field in (GF2, RATIONAL) for n in range(1, 7)
              for _ in range(3)]
    cases += rational_stress_matrices(random.Random(73), 12, 5)
    for A in cases:
        mod2 = A.field == GF2
        dense = A.to_entries()
        kernel = KERNELS[A.field].rank_det
        for bits in range(1 << A.n):
            idx = SubsetMask(A.domain, bits).indices()
            block = [[dense[i][j] for j in idx] for i in idx]
            det = oracles.det_by_expansion(block)
            expected = (oracles.rank_by_minors(block, mod2), det % 2 if mod2 else det)
            assert kernel(A.rows, bits) == expected, (A, bits)


def test_rational_eliminations_do_no_fraction_arithmetic(monkeypatch):
    # Rank, determinant, pivot and the subset sweep eliminate on cleared
    # integer rows; a Fraction is only built for each value they return.
    matrices = rational_stress_matrices(random.Random(41), 16, 4)
    expected = []
    for A in matrices:
        dense = A.to_entries()
        pivots = [
            oracles.block_formula_pivot(dense, SubsetMask(A.domain, bits).indices())
            for bits in range(1 << A.n)
        ]
        expected.append((
            (oracles.rank_by_minors(dense), oracles.det_by_expansion(dense)),
            [None if P is None else tuple(map(tuple, P)) for P in pivots],
            oracles.subset_nullities_by_elimination(A),
        ))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside a rational elimination")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            patch.setattr(Fraction, name, refuse)
        got = [
            (
                q_rank_det(A.rows, (1 << A.n) - 1),
                [q_pivot_rows(A.rows, bits) for bits in range(1 << A.n)],
                q_subset_nullities(A.rows),
            )
            for A in matrices
        ]
    assert got == expected


def test_gf2_packed_rank_against_entrywise_oracle():
    rng = random.Random(19)
    for n in [1, 2, 3, 5, 8, 13, 21, 32, 48, 64]:
        A = random_matrix(rng, GF2, n)
        assert rank(A) == oracles.gf2_rank_entrywise(A.to_entries())


@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=6, max_size=6),
        min_size=6,
        max_size=6,
    )
)
def test_gf2_rank_matches_oracle_hypothesis(entries):
    A = Matrix.from_entries(GF2, [f"v{i}" for i in range(6)], entries)
    assert rank(A) == oracles.gf2_rank_entrywise(entries)


# --- inverse -----------------------------------------------------------------

def test_inverse_identity_and_permutation():
    I = Matrix.identity(RATIONAL, ["a", "b", "c"])
    assert inverse(I) == I
    swap = Matrix.from_entries(GF2, ["a", "b"], [[0, 1], [1, 0]])
    assert inverse(swap) == swap


def test_inverse_matches_gauss_jordan_oracle():
    A = sample_rational_matrix()
    inv = inverse(A)
    oracle = oracles.gauss_jordan_inverse(A.to_entries())
    assert inv.to_entries() == oracle
    unit = Matrix.identity(RATIONAL, A.domain).to_entries()
    assert oracles.dense_product(A.to_entries(), oracle) == unit


def test_inverse_random_round_trip():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.randint(1, 6)
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, n)
        if nullity(A) != 0:
            continue
        product = oracles.dense_product(A.to_entries(), inverse(A).to_entries(), field == GF2)
        assert product == Matrix.identity(field, A.domain).to_entries()
        done += 1


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zeros(RATIONAL, ["a", "b"]))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zeros(GF2, ["a"]))


# --- identity-row padding (rows outside X replaced by identity rows) -----------

def test_identity_outside_trivial_cases():
    A = sample_rational_matrix()
    a = A.to_entries()
    assert oracles.identity_outside(a, A.full_subset().bits) == a
    assert oracles.identity_outside(a, 0) == Matrix.identity(RATIONAL, A.domain).to_entries()


def test_identity_outside_worked_nullity():
    A = sample_rational_matrix()
    padded = oracles.identity_outside(A.to_entries(), A.subset("b", "c").bits)
    assert padded[0] == [1, 0, 0]
    assert nullity(Matrix.from_entries(RATIONAL, A.domain, padded)) == 1
    assert oracles.rank_by_minors(padded) == 2


def test_identity_outside_nullity_matches_submatrix():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 8)
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, n)
        X = SubsetMask(A.domain, rng.randrange(1 << n))
        padded = oracles.identity_outside(A.to_entries(), X.bits)
        assert nullity(Matrix.from_entries(field, A.domain, padded)) == nullity(principal_submatrix(A, X))


# --- Schur complement: the block of A*X outside X -----------------------------

def test_schur_empty_block_is_identity_on_A():
    A = sample_rational_matrix()
    assert principal_submatrix(pivot(A, A.subset()), A.full_subset()) == A


def test_schur_worked_value():
    A = sample_rational_matrix()
    X = A.subset("a", "b")
    S = principal_submatrix(pivot(A, X), X ^ A.full_subset())
    assert S.domain == ("c",)
    assert S.to_entries() == [[-20]]


def test_schur_singular_block_raises():
    A = sample_rational_matrix()
    with pytest.raises(SingularMatrixError):
        pivot(A, A.subset("b", "c"))


def test_schur_preserves_nullity():
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.randint(1, 7)
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, n)
        X = SubsetMask(A.domain, rng.randrange(1 << n))
        if nullity(principal_submatrix(A, X)) != 0:
            continue
        assert nullity(principal_submatrix(pivot(A, X), X ^ A.full_subset())) == nullity(A)
        done += 1


# --- domain checks --------------------------------------------------------------

# Every value that meets another value checks their domains through
# matrix.check_same_domain, so each mismatch names both domains the same way.
_AB, _AC = ("a", "b"), ("a", "c")
_DOMAIN_MISMATCH = "domains differ: ('a', 'b') and ('a', 'c')"


_COMBINE_ACROSS_DOMAINS = {
    "principal_submatrix": lambda X: principal_submatrix(Matrix.zeros(GF2, _AB), X),
    "mask_xor": lambda X: SubsetMask.full(_AB) ^ X,
    "pivot": lambda X: pivotpoly.pivot(Matrix.identity(RATIONAL, _AB), X),
    "elementary_decomposition": lambda X: pivotpoly.elementary_decomposition(Matrix.zeros(GF2, _AB), X),
    "set_system_contains": lambda X: X in SetSystem(_AB, frozenset({0})),
    "twist_set_system": lambda X: pivotpoly.twist(SetSystem(_AB, frozenset({0})), X),
    "twist_partition_sequence": lambda X: pivotpoly.twist(PartitionSequence(_AB, bytes(4)), X),
    "nullity_after_pivot": lambda Y: pivotpoly.nullity_after_pivot(
        Matrix.identity(RATIONAL, _AB), SubsetMask.full(_AB), Y
    ),
    "tucker_determinant_check": lambda Y: pivotpoly.tucker_determinant_check(
        Matrix.identity(GF2, _AB), SubsetMask.full(_AB), Y
    ),
}


@pytest.mark.parametrize(
    "combine", list(_COMBINE_ACROSS_DOMAINS.values()), ids=list(_COMBINE_ACROSS_DOMAINS)
)
def test_mismatched_domains_share_one_message(combine):
    with pytest.raises(ValueError) as exc:
        combine(SubsetMask.full(_AC))
    assert str(exc.value) == _DOMAIN_MISMATCH


def test_trace_partition_keeps_its_own_domain_message():
    # A flip set is checked against the string's letters, not against a value.
    with pytest.raises(ValueError, match="^flip set domain differs from the string's letters$"):
        pivotpoly.trace_partition("abab", SubsetMask.full(_AC))


def _product_cases():
    """(A, B, mod2) triples for n = 0..7 over both fields: random matrices,
    then the rational stress matrices paired with a random matrix and with
    themselves."""
    rng = random.Random(59)
    for field in (GF2, RATIONAL):
        for n in range(8):
            for _ in range(4):
                yield random_matrix(rng, field, n), random_matrix(rng, field, n), field == GF2
    for A in rational_stress_matrices(random.Random(61), 24, 7):
        yield A, random_matrix(rng, RATIONAL, A.n), False
        yield A, A, False


def test_products_against_dense_oracle():
    rng = random.Random(67)
    for A, B, mod2 in _product_cases():
        a, b = A.to_entries(), B.to_entries()
        n = A.n
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        I = Matrix.identity(A.field, A.domain)
        assert I.to_entries() == unit
        ab = oracles.dense_product(a, b, mod2)
        assert oracles.dense_product(I.to_entries(), a, mod2) == a
        assert oracles.dense_product(a, I.to_entries(), mod2) == a
        At, Bt = (Matrix.from_entries(M.field, M.domain, zip(*M.to_entries())) for M in (A, B))
        assert At.to_entries() == [[a[j][i] for j in range(n)] for i in range(n)]
        # (AB)^T = B^T A^T
        assert oracles.dense_product(Bt.to_entries(), At.to_entries(), mod2) == [
            [ab[j][i] for j in range(n)] for i in range(n)
        ]
        # Replacing the rows outside X by identity rows is D A + (I - D),
        # with D the 0/1 diagonal of X.
        X = SubsetMask(A.domain, rng.randrange(1 << n))
        d = [[int(i == j and X.bits >> i & 1) for j in range(n)] for i in range(n)]
        da = oracles.dense_product(d, a, mod2)
        expected = [[da[i][j] + unit[i][j] - d[i][j] for j in range(n)] for i in range(n)]
        assert oracles.identity_outside(a, X.bits) == expected


def test_constructors_reject_unknown_fields():
    for build in (
        lambda: Matrix("f3", ("a", "b"), (0, 0)),
        lambda: Matrix.zeros("f3", ["a", "b"]),
        lambda: Matrix.identity("f3", ["a", "b"]),
        lambda: Matrix.from_entries("f3", ["a", "b"], [[0, 0], [0, 0]]),
    ):
        with pytest.raises(ValueError, match="unknown field 'f3'"):
            build()


def test_random_draws_share_one_stream():
    # One entry draw per field: randrange(2) over GF(2), randint(-3, 3) over Q.
    for field, draw in ((GF2, lambda r: r.randrange(2)), (RATIONAL, lambda r: r.randint(-3, 3))):
        ref = random.Random(5)
        expected = [[draw(ref) for _ in range(3)] for _ in range(3)]
        vector = [draw(ref) for _ in range(3)]
        rng = random.Random(5)
        assert random_matrix(rng, field, 3).to_entries() == expected
        assert random_vector(rng, field, 3) == vector
    # A graph draws one randrange(2) per pair i <= j, row by row, and mirrors it.
    for n in (0, 1, 3, 9):
        ref = random.Random(5)
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if ref.randrange(2):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        rng = random.Random(5)
        G = random_graph(rng, n)
        assert (G.domain, G.rows) == (labels_for(n), tuple(rows))
        assert rng.random() == ref.random()
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="unknown field 'z'"):
            random_matrix(random.Random(1), "z", n)
        with pytest.raises(ValueError, match="unknown field 'z'"):
            random_vector(random.Random(1), "z", n)


def test_random_matrix_equals_from_entries_of_its_draws():
    # random_matrix packs each row as it draws it; Matrix.from_entries of
    # the same row-major draws is the reference, and both leave the stream
    # at the same state.
    for seed in (0, 1, 7, 42):
        for field in (GF2, RATIONAL):
            for n in range(10):
                rng, ref = random.Random(seed), random.Random(seed)
                lo, hi = (0, 1) if field == GF2 else (-3, 3)
                entries = [[ref.randint(lo, hi) for _ in range(n)] for _ in range(n)]
                assert random_matrix(rng, field, n) == Matrix.from_entries(field, labels_for(n), entries)
                assert rng.getstate() == ref.getstate()


def test_labels_sort_in_index_order_past_100_labels():
    # Labels are padded to the width of n - 1, at least 2 digits, so up to
    # 100 labels they are v00 .. v99 as always, and from 101 on they still
    # sort in index order, which the matrix domain requires.
    assert labels_for(100) == tuple(f"v{i:02d}" for i in range(100))
    for n in (0, 1, 11, 101, 1001):
        labels = labels_for(n)
        assert len(set(labels)) == n and list(labels) == sorted(labels)
    assert labels_for(101)[:2] + labels_for(101)[-1:] == ("v000", "v001", "v100")
    for field in (GF2, RATIONAL):
        assert random_matrix(random.Random(1), field, 101).domain == labels_for(101)
    assert random_graph(random.Random(1), 101).domain == labels_for(101)


def test_mat_vec_both_fields():
    A = sample_rational_matrix()
    assert mat_vec(A, [1, 0, 0]) == [Fraction(1), Fraction(1), Fraction(3)]
    G = pivot_pair_left()
    ones = [1] * 4
    assert mat_vec(G, ones) == [(G.rows[i].bit_count()) & 1 for i in range(4)]
    with pytest.raises(ValueError):
        mat_vec(A, [1, 2])


def test_rational_mat_vec_matches_the_fraction_formula():
    # Vectors mix ints and Fractions; the stress matrices include n = 0.
    rng = random.Random(29)
    for A in rational_stress_matrices(rng, 60, 8):
        for _ in range(3):
            xs = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 40))))
                  for _ in range(A.n)]
            got = mat_vec(A, xs)
            assert got == oracles.mat_vec_by_fractions(A.to_entries(), xs)
            assert all(type(v) is Fraction for v in got)


def test_values_survive_pickle_and_copy():
    # Values are shared across processes by pickling; each of the eight
    # value types must come back equal and with the same hash.
    A = sample_rational_matrix()
    G = pivot_pair_left()
    s = pivotpoly.parse_dos("146543625123")
    X = SubsetMask.of(sorted(set(s)), ["3", "4", "5", "6"])
    values = [
        X,
        A,
        G,
        pivotpoly.set_system_of(G),
        pivotpoly.partition_sequence_of(A),
        pivotpoly.pivot_orbit(G),
        pivotpoly.interlace_polynomial(G),
        pivotpoly.digraph_of(s),
        pivotpoly.trace_partition(s, X),
    ]
    assert len({type(v) for v in values}) == 8
    for v in values:
        copies = [copy.copy(v), copy.deepcopy(v)]
        copies += [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is type(v)
            assert c == v
            assert hash(c) == hash(v)


def _value_table():
    """One small value of each of the eight value types: (build, repr text, field names).

    ``build`` makes a new, equal value on every call."""
    return [
        (
            lambda: SubsetMask(("a", "b", "c"), 5),
            "SubsetMask(domain=('a', 'b', 'c'), bits=5)",
            ("domain", "bits"),
        ),
        (
            lambda: graph_from_edges(["b", "a"], [("a", "b"), ("b", "b")]),
            "Matrix(field='f2', domain=('a', 'b'), rows=(2, 3))",
            ("field", "domain", "rows"),
        ),
        (
            lambda: Matrix.from_entries(RATIONAL, ["a", "b"], [[1, Fraction(1, 2)], [0, -3]]),
            "Matrix(field='q', domain=('a', 'b'), rows=((Fraction(1, 1), Fraction(1, 2)),"
            " (Fraction(0, 1), Fraction(-3, 1))))",
            ("field", "domain", "rows"),
        ),
        (
            lambda: SetSystem(("a", "b"), frozenset({0, 3})),
            "SetSystem(domain=('a', 'b'), members=frozenset({0, 3}))",
            ("domain", "members"),
        ),
        (
            lambda: PartitionSequence(("a",), bytes([0, 1])),
            "PartitionSequence(domain=('a',), nullities=b'\\x00\\x01')",
            ("domain", "nullities"),
        ),
        (
            lambda: Poly((1, 0, 2)),
            "Poly(coeffs=(1, 0, 2))",
            ("coeffs",),
        ),
        (
            lambda: pivot_orbit(graph_from_edges(["a", "b"], [("a", "b")])),
            "PivotOrbit(graphs=(Matrix(field='f2', domain=('a', 'b'), rows=(2, 1)),),"
            " moves=((0, SubsetMask(domain=('a', 'b'), bits=3), 0),))",
            ("graphs", "moves"),
        ),
        (
            lambda: TwoInTwoOutDigraph(
                ("1", "2"), (("1", "2"), ("2", "2"), ("2", "1"), ("1", "1"))
            ),
            "TwoInTwoOutDigraph(vertices=('1', '2'), arcs=(('1', '2'), ('2', '2'), ('2', '1'),"
            " ('1', '1')))",
            ("vertices", "arcs"),
        ),
        (
            lambda: WalkPartition(((0, 1, 2), (3,)), SubsetMask(("1", "2"), 1)),
            "WalkPartition(walks=((0, 1, 2), (3,)), inducing_set=SubsetMask(domain=('1', '2'),"
            " bits=1))",
            ("walks", "inducing_set"),
        ),
    ]


def test_value_contract_of_the_eight_value_types():
    table = _value_table()
    assert len({type(build()) for build, _, _ in table}) == 8
    values = []
    for build, text, fields in table:
        a, b = build(), build()
        assert a is not b
        assert repr(a) == text
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert type(a).__match_args__ == fields
        kwargs = {f: getattr(a, f) for f in fields}
        by_keyword = type(a)(**kwargs)
        assert by_keyword == a and hash(by_keyword) == hash(a)
        args = tuple(kwargs.values())
        by_position = type(a)(*args)
        assert by_position == a and hash(by_position) == hash(a)
        for wrong in (
            lambda: type(a)(*args[:-1]),
            lambda: type(a)(*args, None),
            lambda: type(a)(**kwargs, extra=None),
        ):
            with pytest.raises(TypeError):
                wrong()
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b and getattr(a, fields[0]) == getattr(b, fields[0])
        assert a != tuple(getattr(a, f) for f in fields)
        values.append(a)
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert a != b and b != a
    # The constructor runs the class's __post_init__ check, where it has one.
    invalid = {
        SubsetMask: (("a",), 2),
        Matrix: ("f3", ("a",), (0,)),
        SetSystem: (("a",), frozenset({2})),
        PartitionSequence: (("a",), (0, 1)),  # nullities are bytes, never a tuple
        Poly: ((1, 0),),
        TwoInTwoOutDigraph: (("1",), (("1", "1"),)),
    }
    for cls, args in invalid.items():
        with pytest.raises(ValueError):
            cls(*args)
    assert {type(a) for a in values if hasattr(a, "__post_init__")} == set(invalid)

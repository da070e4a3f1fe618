import random
from fractions import Fraction

import pytest

from pivotpoly import (
    GF2,
    RATIONAL,
    Matrix,
    PivotUndefinedError,
    SingularMatrixError,
    SubsetMask,
    determinant,
    inverse,
    mat_vec,
    nullity,
    nullity_after_pivot,
    pivot,
    principal_submatrix,
    tucker_determinant_check,
    verify_partial_inverse,
)
from pivotpoly.cli import main
from pivotpoly.formats import format_matrix
from pivotpoly.matrix import nullity_by_bits
from pivotpoly.randgen import (
    random_graph,
    random_matrix,
    random_subset,
    random_valid_pivot_subset,
    random_vector,
)

from oracles import (
    block_formula_pivot,
    dense_product,
    gauss_jordan_inverse,
    gf2_gauss_jordan_inverse,
    identity_outside,
)
from samples import (
    SAMPLE_PIVOT_AB,
    pivot_pair_left,
    pivot_pair_right,
    rational_stress_matrices,
    sample_rational_matrix,
    small_orbit_graphs,
)


def _random_case(rng, max_n=8):
    n = rng.randint(1, max_n)
    field = rng.choice([GF2, RATIONAL]) if max_n <= 6 else GF2
    A = random_matrix(rng, field, n)
    X = random_valid_pivot_subset(rng, A)
    return A, X


# --- the pivot itself ---------------------------------------------------------

def test_pivot_worked_rational_matrix():
    A = sample_rational_matrix()
    B = pivot(A, A.subset("a", "b"))
    assert B.to_entries() == SAMPLE_PIVOT_AB


def test_pivot_on_empty_subset_is_identity_map():
    A = sample_rational_matrix()
    assert pivot(A, A.subset()) == A


def test_pivot_of_graph_pair():
    G = pivot_pair_left()
    assert pivot(G, G.subset("1", "2", "3")) == pivot_pair_right()


def _pivot_or_singular(A, X) -> bool:
    """Check pivot(A, X) against the block formula; True when A[X] is singular."""
    expected = block_formula_pivot(A.to_entries(), X.indices(), mod2=A.field == GF2)
    if expected is None:
        with pytest.raises(PivotUndefinedError) as exc:
            pivot(A, X)
        assert exc.value.subset == X
        return True
    assert pivot(A, X).to_entries() == expected
    return False


def test_pivot_matches_block_formula_oracle():
    # Half the subsets are drawn uniformly, so singular blocks come up and
    # must raise exactly where the oracle finds A[X] singular.
    rng = random.Random(89)
    for field in (GF2, RATIONAL):
        singular = 0
        for trial in range(320):
            A = random_matrix(rng, field, rng.randint(1, 8))
            if trial % 2:
                X = SubsetMask(A.domain, rng.randrange(1 << A.n))
            else:
                X = random_valid_pivot_subset(rng, A)
            singular += _pivot_or_singular(A, X)
        assert singular >= 10
    # p/q entries, every subset of each matrix.
    singular = 0
    for A in rational_stress_matrices(random.Random(97), 30, 5):
        for bits in range(1 << A.n):
            singular += _pivot_or_singular(A, SubsetMask(A.domain, bits))
    assert singular >= 10


def test_pivot_on_full_domain_is_inverse():
    A = sample_rational_matrix()
    assert pivot(A, A.full_subset()) == inverse(A)
    assert inverse(A).to_entries() == gauss_jordan_inverse(A.to_entries())
    rng = random.Random(5)
    for field, oracle in ((GF2, gf2_gauss_jordan_inverse), (RATIONAL, gauss_jordan_inverse)):
        done = 0
        while done < 20:
            A = random_matrix(rng, field, rng.randint(1, 8))
            expected = oracle(A.to_entries())
            if expected is None:
                with pytest.raises(SingularMatrixError, match="matrix is singular"):
                    inverse(A)
                continue
            assert inverse(A).to_entries() == expected
            assert pivot(A, A.full_subset()) == inverse(A)
            done += 1


def test_pivot_singular_block_raises_with_subset():
    A = sample_rational_matrix()
    X = A.subset("b", "c")
    with pytest.raises(PivotUndefinedError) as exc:
        pivot(A, X)
    assert exc.value.subset == X


def test_pivot_is_involution():
    rng = random.Random(37)
    for _ in range(80):
        A, X = _random_case(rng, max_n=6)
        assert pivot(pivot(A, X), X) == A


def test_pivot_preserves_graph_symmetry():
    rng = random.Random(41)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 8))
        X = random_valid_pivot_subset(rng, G)
        assert pivot(G, X).is_symmetric()


def test_schur_complement_is_pivot_corner():
    # The block of A*X outside X is S - R P^-1 Q, computed entry by entry.
    rng = random.Random(43)
    for _ in range(40):
        A, X = _random_case(rng, max_n=6)
        comp = X ^ A.full_subset()
        schur = block_formula_pivot(A.to_entries(), X.indices(), mod2=A.field == GF2)
        corner = [[schur[i][j] for j in comp.indices()] for i in comp.indices()]
        assert principal_submatrix(pivot(A, X), comp).to_entries() == corner


# --- partial inverse law ------------------------------------------------------

def test_partial_inverse_on_empty_subset():
    A = sample_rational_matrix()
    assert verify_partial_inverse(A, A.subset(), [1, 2, 3])


def test_partial_inverse_worked_vector():
    A = sample_rational_matrix()
    assert verify_partial_inverse(A, A.subset("a", "b"), [1, 0, 0])
    # spelled out: A(1,0,0) = (1,1,3); the pivot must send (1,1,0) to (1,0,3)
    B = pivot(A, A.subset("a", "b"))
    assert mat_vec(B, [Fraction(1), Fraction(1), Fraction(0)]) == [
        Fraction(1),
        Fraction(0),
        Fraction(3),
    ]


def test_partial_inverse_random_gf2():
    rng = random.Random(47)
    for _ in range(1000):
        n = rng.randint(1, 8)
        A = random_matrix(rng, GF2, n)
        X = random_valid_pivot_subset(rng, A)
        xs = random_vector(rng, GF2, n)
        assert verify_partial_inverse(A, X, xs)


def test_partial_inverse_random_rational():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(1, 6)
        A = random_matrix(rng, RATIONAL, n)
        X = random_valid_pivot_subset(rng, A)
        xs = random_vector(rng, RATIONAL, n)
        assert verify_partial_inverse(A, X, xs)


def test_partial_inverse_dimension_mismatch():
    A = sample_rational_matrix()
    with pytest.raises(ValueError):
        verify_partial_inverse(A, A.subset("a"), [1, 2])


def test_partial_inverse_rejects_float_vectors():
    # The vector must reach mat_vec unconverted, so its float check applies.
    A = sample_rational_matrix()
    with pytest.raises(ValueError, match="float"):
        verify_partial_inverse(A, A.subset("a", "b"), [0.1, 0, 1])
    assert verify_partial_inverse(A, A.subset("a", "b"), [Fraction(1, 10), 0, 1])


# --- nullity invariance -------------------------------------------------------

def test_nullity_after_pivot_worked_rational():
    A = sample_rational_matrix()
    X = A.subset("a", "b")
    pair = nullity_after_pivot(A, X, A.subset("a", "c"))
    assert pair == (1, 1)
    assert nullity(principal_submatrix(A, A.subset("b", "c"))) == 1


def test_nullity_after_pivot_worked_graph():
    G = pivot_pair_left()
    X = G.subset("1", "2", "3")
    assert nullity(principal_submatrix(G, G.subset("1", "4"))) == 2
    assert nullity_after_pivot(G, X, G.subset("2", "3", "4")) == (2, 2)


def test_nullity_after_pivot_empty_subset():
    A = sample_rational_matrix()
    for labels in [(), ("a",), ("b", "c"), ("a", "b", "c")]:
        Y = A.subset(*labels)
        pair = nullity_after_pivot(A, A.subset(), Y)
        assert pair[0] == pair[1] == nullity(principal_submatrix(A, Y))


def test_nullity_invariance_exhaustive_in_y():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 8)
        A = random_matrix(rng, GF2, n)
        X = random_valid_pivot_subset(rng, A)
        B = pivot(A, X)
        for y in range(1 << n):
            assert nullity_by_bits(B, y) == nullity_by_bits(A, y ^ X.bits)


def test_nonsingularity_transfer():
    rng = random.Random(61)
    for _ in range(60):
        A, X = _random_case(rng, max_n=6)
        B = pivot(A, X)
        for _ in range(8):
            Y = SubsetMask(A.domain, rng.randrange(1 << A.n))
            lhs = determinant(principal_submatrix(B, Y)) != 0
            rhs = determinant(principal_submatrix(A, X ^ Y)) != 0
            assert lhs == rhs


def test_row_replacement_composition_identity():
    # ((A*X) with rows pinned outside Y) times (A with rows pinned outside X)
    # equals A with rows pinned outside X xor Y.
    rng = random.Random(67)
    for _ in range(60):
        A, X = _random_case(rng, max_n=6)
        Y = SubsetMask(A.domain, rng.randrange(1 << A.n))
        a = A.to_entries()
        lhs = dense_product(
            identity_outside(pivot(A, X).to_entries(), Y.bits),
            identity_outside(a, X.bits),
            mod2=A.field == GF2,
        )
        assert lhs == identity_outside(a, (X ^ Y).bits)


def test_inverse_restriction_nullity():
    # for nonsingular A: n(inv(A)[Y]) = n(A[complement of Y])
    rng = random.Random(71)
    done = 0
    while done < 60:
        n = rng.randint(1, 7)
        field = rng.choice([GF2, RATIONAL]) if n <= 6 else GF2
        A = random_matrix(rng, field, n)
        if nullity(A) != 0:
            continue
        inv = inverse(A)
        Y = SubsetMask(A.domain, rng.randrange(1 << n))
        assert nullity(principal_submatrix(inv, Y)) == nullity(
            principal_submatrix(A, Y ^ A.full_subset())
        )
        done += 1


# --- Tucker's determinant identity ---------------------------------------------

def test_tucker_worked_case():
    A = sample_rational_matrix()
    X = A.subset("a", "b")
    Y = A.subset("a", "c")
    B = pivot(A, X)
    assert determinant(principal_submatrix(B, Y)) == 0
    assert determinant(principal_submatrix(A, A.subset("b", "c"))) == 0
    assert determinant(principal_submatrix(A, X)) == 2
    assert tucker_determinant_check(A, X, Y)


def test_tucker_empty_y():
    A = sample_rational_matrix()
    assert tucker_determinant_check(A, A.subset("a", "b"), A.subset())


def test_tucker_random_suite():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = random_matrix(rng, RATIONAL, n)
        X = random_valid_pivot_subset(rng, A)
        Y = SubsetMask(A.domain, rng.randrange(1 << n))
        assert tucker_determinant_check(A, X, Y)


def test_tucker_over_gf2():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 8)
        A = random_matrix(rng, GF2, n)
        X = random_valid_pivot_subset(rng, A)
        Y = SubsetMask(A.domain, rng.randrange(1 << n))
        assert tucker_determinant_check(A, X, Y)


def test_checks_and_nullity_command_read_blocks_in_place(tmp_path, monkeypatch, capsys):
    # The two checks build the pivot and nothing else, and ``nullity
    # --subset`` builds the matrix it parsed: no principal submatrix.
    rng = random.Random(83)
    A = sample_rational_matrix()
    cases = [(A, A.subset("a", "b"), A.subset("b", "c"))]
    for _ in range(10):
        A = random_matrix(rng, GF2, 6)
        cases.append((A, random_valid_pivot_subset(rng, A), random_subset(rng, A.domain)))
    path = tmp_path / "case.mat"
    built = []
    real_init = Matrix.__post_init__

    def counting_init(self):
        built.append(self.domain)
        real_init(self)

    for A, X, Y in cases:
        path.write_text(format_matrix(A))
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "__post_init__", counting_init)
            for check in (nullity_after_pivot, tucker_determinant_check):
                built.clear()
                check(A, X, Y)
                assert built == [A.domain], check.__name__
            built.clear()
            assert main(["nullity", "--matrix", str(path), "--subset", ",".join(Y.labels())]) == 0
            assert built == [A.domain]
        assert capsys.readouterr().out == f"{nullity(principal_submatrix(A, Y))}\n"


# --- composition ----------------------------------------------------------------

def test_composition_with_itself_restores_matrix():
    A = sample_rational_matrix()
    X = A.subset("a", "b")
    assert pivot(pivot(A, X), X) == pivot(A, X ^ X) == A


def test_composition_small_orbit_edge():
    graphs = small_orbit_graphs()
    five, one = graphs[4], graphs[0]
    X = five.subset("p", "r")
    assert pivot(five, X) == one


def test_composition_random():
    rng = random.Random(83)
    for _ in range(60):
        A, X = _random_case(rng, max_n=6)
        B = pivot(A, X)
        Y = random_valid_pivot_subset(rng, B)
        assert pivot(B, Y) == pivot(A, X ^ Y)

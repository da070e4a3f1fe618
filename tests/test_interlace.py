import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pivotpoly import (
    GF2,
    RATIONAL,
    Matrix,
    Poly,
    PivotUndefinedError,
    SubsetMask,
    graph_from_edges,
    interlace_from_nullity,
    interlace_polynomial,
    interlace_recursive,
    norm,
    nullity_from_interlace,
    nullity_polynomial,
    partition_sequence_of,
    pivot,
    principal_submatrix,
    set_system_of,
    verify_recursion,
)
from pivotpoly.randgen import random_graph, random_matrix, random_valid_pivot_subset

from samples import pivot_pair_left, sample_rational_matrix


def all_graphs(n):
    """Every symmetric GF(2) matrix on n labeled vertices."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for code in range(1 << len(pairs)):
        entries = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                entries[i][j] = entries[j][i] = 1
        yield Matrix.from_entries(GF2, labels, entries)


# --- Poly ------------------------------------------------------------------------

def test_poly_trims_and_validates():
    assert Poly.of([1, 2, 0, 0]) == Poly((1, 2))
    assert Poly.of([0, 0]) == Poly(())
    with pytest.raises(ValueError):
        Poly((1, 0))


def test_poly_arithmetic():
    p = Poly.of([1, 1])
    assert p * p == Poly.of([1, 2, 1])
    assert p + Poly.of([-1, -1]) == Poly(())
    assert p ** 3 == Poly.of([1, 3, 3, 1])
    assert Poly.monomial(3) == Poly.of([0, 0, 0, 1])
    assert p(4) == 5
    assert str(Poly.of([2, 5, 1])) == "2 5 1"
    assert str(Poly(())) == "0"


def test_poly_shift_worked():
    # (y+1)^2 shifted down by one is y^2
    assert Poly.of([1, 2, 1]).shift(-1) == Poly.of([0, 0, 1])
    assert Poly.of([8, 7, 1]).shift(-1) == Poly.of([2, 5, 1])


@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-3, 3))
def test_poly_shift_round_trip_and_evaluation(coeffs, delta):
    p = Poly.of(coeffs)
    shifted = p.shift(delta)
    assert shifted.shift(-delta) == p
    for x in (-2, 0, 1, 5):
        assert shifted(x) == p(x + delta)


# --- direct enumeration ------------------------------------------------------------

def test_nullity_polynomial_worked_values():
    assert nullity_polynomial(pivot_pair_left()) == Poly.of([8, 7, 1])
    assert nullity_polynomial(sample_rational_matrix()) == Poly.of([7, 1])
    for n in range(5):
        discrete = Matrix.zeros(GF2, [f"v{i}" for i in range(n)])
        assert nullity_polynomial(discrete) == Poly.of([1, 1]) ** n


def test_interlace_conversions():
    assert interlace_from_nullity(Poly.of([1, 1]) ** 4) == Poly.monomial(4)
    assert interlace_from_nullity(Poly.of([8, 7, 1])) == Poly.of([2, 5, 1])
    assert interlace_from_nullity(Poly.of([1])) == Poly.of([1])
    rng = random.Random(3)
    for _ in range(30):
        p = Poly.of([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert nullity_from_interlace(interlace_from_nullity(p)) == p


def test_interlace_polynomial_worked_values():
    assert interlace_polynomial(pivot_pair_left()) == Poly.of([2, 5, 1])
    assert interlace_polynomial(sample_rational_matrix()) == Poly.of([6, 1])


def test_zero_line_shortcut_matches_plain_sweep():
    # A label whose row and column vanish adds nothing to any rank, so it
    # contributes a factor (1 + y): q'(A) = (1 + y)^z q'(A without those z labels).
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        field = rng.choice([GF2, RATIONAL]) if n <= 6 else GF2
        A = random_matrix(rng, field, n)
        entries = A.to_entries()
        zero = [i for i in range(n) if rng.random() < 0.4]
        for i in zero:
            for j in range(n):
                entries[i][j] = entries[j][i] = 0
        A = Matrix.from_entries(field, A.domain, entries)
        rest = SubsetMask(A.domain, sum(1 << i for i in range(n) if i not in zero))
        expected = nullity_polynomial(principal_submatrix(A, rest)) * Poly((1, 1)) ** len(zero)
        assert nullity_polynomial(A) == expected


def test_coefficients_equal_partition_norm():
    rng = random.Random(7)
    for _ in range(30):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(0, 6))
        counts = norm(partition_sequence_of(A))
        assert nullity_polynomial(A) == Poly.of(counts)


def test_evaluation_sanity():
    rng = random.Random(11)
    for _ in range(30):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(0, 7))
        assert nullity_polynomial(A)(1) == 1 << A.n
        assert interlace_polynomial(A)(2) == 1 << A.n


# --- recursion -----------------------------------------------------------------------

def test_recursive_discrete_graph():
    G = Matrix.zeros(GF2, ["a", "b", "c"])
    assert interlace_recursive(G) == Poly.monomial(3)


def test_recursive_matches_direct_on_graph_pair():
    G = pivot_pair_left()
    assert interlace_recursive(G) == Poly.of([2, 5, 1])


def test_single_vertex_cases_settle_the_base_case():
    looped = graph_from_edges(["u"], [("u", "u")])
    assert nullity_polynomial(looped) == Poly.of([2])
    assert interlace_polynomial(looped) == Poly.of([2])
    assert interlace_recursive(looped) == Poly.of([2])
    bare = graph_from_edges(["u"], [])
    assert nullity_polynomial(bare) == Poly.of([1, 1])
    assert interlace_polynomial(bare) == Poly.monomial(1)
    assert interlace_recursive(bare) == Poly.monomial(1)


def test_recursive_equals_direct_exhaustively_small():
    for n in range(4):
        for G in all_graphs(n):
            assert interlace_recursive(G) == interlace_polynomial(G)


def test_recursive_equals_direct_random():
    rng = random.Random(13)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 9))
        assert interlace_recursive(G) == interlace_polynomial(G)


def test_recursion_rejects_non_graphs():
    with pytest.raises(ValueError):
        interlace_recursive(sample_rational_matrix())


def test_enumeration_cap_applies_even_to_shortcut_inputs():
    big = Matrix.zeros(GF2, [f"v{i:03d}" for i in range(65)])
    with pytest.raises(ValueError, match="enumeration cap"):
        nullity_polynomial(big)


# --- the general deletion/pivot identity ------------------------------------------------

def test_verify_recursion_worked_rational():
    A = sample_rational_matrix()
    assert verify_recursion(A, "a", A.subset("a", "b")) == Poly.of([6, 1])


def test_verify_recursion_on_graph_pair():
    G = pivot_pair_left()
    assert verify_recursion(G, "2", G.subset("1", "2", "3")) == interlace_polynomial(G)


def test_verify_recursion_random_both_fields():
    rng = random.Random(17)
    checked = 0
    while checked < 80:
        field = rng.choice([GF2, RATIONAL])
        n = rng.randint(1, 6)
        A = random_matrix(rng, field, n)
        members = [m for m in sorted(set_system_of(A).members) if m]
        if not members:
            continue
        bits = rng.choice(members)
        X = SubsetMask(A.domain, bits)
        u = rng.choice(X.labels())
        verify_recursion(A, u, X)
        checked += 1


def test_verify_recursion_preconditions():
    A = sample_rational_matrix()
    with pytest.raises(ValueError):
        verify_recursion(A, "c", A.subset("a", "b"))
    with pytest.raises(PivotUndefinedError):
        verify_recursion(A, "b", A.subset("b", "c"))


# --- pivot invariance ---------------------------------------------------------------------

def test_interlace_invariant_under_pivot():
    rng = random.Random(19)
    for _ in range(40):
        field = rng.choice([GF2, RATIONAL])
        n = rng.randint(1, 6)
        A = random_matrix(rng, field, n)
        X = random_valid_pivot_subset(rng, A)
        B = pivot(A, X)
        assert interlace_polynomial(B) == interlace_polynomial(A)
        assert nullity_polynomial(B) == nullity_polynomial(A)

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pivotpoly.interlace as interlace_module
from pivotpoly import (
    GF2,
    RATIONAL,
    Matrix,
    Poly,
    SubsetMask,
    delete_label,
    edges_of,
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
)
from pivotpoly.matrix import f2_pivot_rows
from pivotpoly.randgen import labels_for, random_graph, random_matrix, random_valid_pivot_subset

from oracles import recursion_memo_rows
from samples import all_graphs, path_graph, pivot_pair_left, sample_rational_matrix


# --- Poly ------------------------------------------------------------------------

def test_poly_trims_and_validates():
    assert Poly.of([1, 2, 0, 0]) == Poly((1, 2))
    assert Poly.of([0, 0]) == Poly(())
    with pytest.raises(ValueError):
        Poly((1, 0))


def test_poly_rejects_non_integral_coefficients():
    # Truncating 1.5 to 1 would change the polynomial silently, and trimming
    # before converting would report Fraction(1, 2) as a trailing zero.
    with pytest.raises(ValueError, match="1.5"):
        Poly.of([1.5, 2])
    with pytest.raises(ValueError, match="Fraction\\(1, 2\\)"):
        Poly.of([Fraction(1, 2)])
    with pytest.raises(ValueError, match="Fraction\\(7, 3\\)"):
        Poly.of([1, Fraction(7, 3), 0])
    assert Poly.of([Fraction(3), 2.0, Fraction(0)]) == Poly((3, 2))
    assert all(type(c) is int for c in Poly.of([Fraction(3), 2.0]).coeffs)


def test_poly_arithmetic():
    p = Poly.of([1, 1])
    assert p * p == Poly.of([1, 2, 1])
    assert p + Poly.of([-1, -1]) == Poly(())
    assert p ** 3 == Poly.of([1, 3, 3, 1])
    assert Poly.monomial(3) == Poly.of([0, 0, 0, 1])
    assert p(4) == 5
    assert str(Poly.of([2, 5, 1])) == "2 5 1"
    assert str(Poly(())) == "0"


def test_poly_rejects_negative_powers():
    # Both used to fall through an empty loop or an empty pad and return 1.
    with pytest.raises(ValueError, match="-2"):
        Poly.of([1, 1]) ** -2
    with pytest.raises(ValueError, match="-3"):
        Poly.monomial(-3)
    assert Poly.of([1, 1]) ** 0 == Poly.of([1])
    assert Poly.monomial(0) == Poly.of([1])


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


def path_polynomials(count):
    """q(P_0) .. q(P_{count-1}) from q(P_n) = q(P_{n-1}) + y q(P_{n-2})."""
    out = [Poly.of([1]), Poly.monomial(1)]
    while len(out) < count:
        out.append(out[-1] + Poly.monomial(1) * out[-2])
    return out[:count]


def test_path_closed_form_matches_the_sweep():
    for n, q in enumerate(path_polynomials(13)):
        assert interlace_polynomial(path_graph(n)) == q


def test_recursion_memo_solves_long_paths(monkeypatch):
    # Without a memo the recursion on P_n makes Fibonacci-many kernel calls;
    # with one it makes n - 1, so P_60 stays under the budget.  Equal
    # counts on a repeated call show the memo does not outlive a call.
    # Paths up to 60 vertices run on packed ints, so the packed kernel counts.
    budget = 1000
    calls = [0]
    real = interlace_module._packed_pivot

    def counting(graph, part, n, base):
        calls[0] += 1
        if calls[0] > budget:
            raise AssertionError(f"more than {budget} elementary pivots in one call")
        return real(graph, part, n, base)

    monkeypatch.setattr(interlace_module, "_packed_pivot", counting)
    for n, q in enumerate(path_polynomials(61)):
        calls[0] = 0
        assert interlace_recursive(path_graph(n)) == q
    first = calls[0]
    calls[0] = 0
    interlace_recursive(path_graph(60))
    assert calls[0] == first > 0


def test_recursion_on_row_tuples_pivots_once_per_path_vertex(monkeypatch):
    # Past the packed bound the recursion keys subgraphs as row tuples and
    # calls the row kernel, n - 1 times on P_n as on the packed side.
    calls = [0]
    real = interlace_module._elementary_pivot_rows

    def counting(rows, part):
        calls[0] += 1
        return real(rows, part)

    def packed(*args):
        raise AssertionError("the packed kernel ran past the packed bound")

    monkeypatch.setattr(interlace_module, "_elementary_pivot_rows", counting)
    monkeypatch.setattr(interlace_module, "_packed_pivot", packed)
    bound = interlace_module._PACKED_RECURSION_VERTICES
    for n, q in enumerate(path_polynomials(101)):
        if n > bound:
            calls[0] = 0
            assert interlace_recursive(path_graph(n)) == q
            assert calls[0] == n - 1


def test_recursion_memo_cap(monkeypatch):
    # The memo of P_n holds P_2 .. P_n: 35 rows for P_8, 135 for P_16.
    monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", 100)
    assert interlace_recursive(path_graph(8)) == path_polynomials(9)[8]
    with pytest.raises(ValueError, match="memo cap of 100 rows"):
        interlace_recursive(path_graph(16))


@pytest.mark.parametrize("loop", ["packed", "rows"])
def test_recursion_memo_cap_counts_each_distinct_subgraph_once(loop, monkeypatch):
    # The cap is reached exactly when the rows of the distinct stripped
    # subgraphs reached exceed it, whatever order they are reached in.  A
    # packed bound of 0 sends these small graphs through the row-tuple loop.
    if loop == "rows":
        monkeypatch.setattr(interlace_module, "_PACKED_RECURSION_VERTICES", 0)
    rng = random.Random(75)
    for _ in range(50):
        G = random_graph(rng, rng.randint(1, 9))
        total = recursion_memo_rows(G.to_entries())
        monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", total)
        assert interlace_recursive(G) == interlace_polynomial(G)
        if total:
            monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", total - 1)
            with pytest.raises(ValueError, match=f"memo cap of {total - 1} rows"):
                interlace_recursive(G)


def test_recursion_does_not_depend_on_the_label_order():
    rng = random.Random(76)
    for _ in range(60):
        G = random_graph(rng, rng.randint(2, 10))
        image = list(G.domain)
        while image == list(G.domain):
            rng.shuffle(image)
        rename = dict(zip(G.domain, image))
        H = graph_from_edges(G.domain, [(rename[a], rename[b]) for a, b in edges_of(G)])
        assert interlace_recursive(H) == interlace_recursive(G) == interlace_polynomial(G)


def test_recursion_on_a_long_path_holds_little_memory():
    # Only the subgraphs still to expand are held: on a path in label
    # order that is a few short-lived entries, not one per subgraph.
    labels = [f"v{i:03d}" for i in range(990)]
    G = graph_from_edges(labels, list(zip(labels, labels[1:])))
    expected = path_polynomials(991)[990]
    tracemalloc.start()
    try:
        q = interlace_recursive(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == expected
    assert peak < 4 << 20


def test_recursion_leaves_no_reference_cycle(monkeypatch):
    # A cycle would keep the recursion's levels alive until the next
    # garbage collection, after a return and after a failure alike.
    G = random_graph(random.Random(1), 12)
    gc.collect()
    gc.disable()
    try:
        interlace_recursive(G)
        assert gc.collect() == 0
        monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", 100)
        with pytest.raises(ValueError, match="memo cap"):
            interlace_recursive(path_graph(16))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recursion_matches_the_path_recurrence_up_to_200_vertices():
    for n, q in enumerate(path_polynomials(201)):
        G = path_graph(n)
        for i, row in enumerate(G.rows):
            assert row == sum(1 << j for j in (i - 1, i + 1) if 0 <= j < n), (n, i)
        assert interlace_recursive(G) == q


def graph_on_rows(rows):
    """The graph whose packed rows are ``rows``, on labels that sort in index order."""
    labels = [f"v{i:02d}" for i in range(len(rows))]
    return Matrix(GF2, tuple(labels), tuple(rows))


def with_last_vertex(rng, n, loop, neighbours_looped):
    """A random graph on n vertices whose last vertex has a loop or not, and
    whose neighbours (at least one) all have a loop when ``neighbours_looped``."""
    rows = list(random_graph(rng, n).rows)
    u = n - 1
    hood = rng.randrange(1, 1 << u)
    for i in range(u):
        rows[i] = rows[i] & ~(1 << u) | (hood >> i & 1) << u
        if neighbours_looped and hood >> i & 1:
            rows[i] |= 1 << i
    rows[u] = hood | loop << u
    return graph_on_rows(rows)


def isolate(G, i):
    """G with every edge at vertex i removed, its loop included."""
    return graph_on_rows([0 if j == i else r & ~(1 << i) for j, r in enumerate(G.rows)])


def test_recursion_on_a_loopless_last_vertex_with_only_looped_neighbours():
    # X = {u, v} with v looped: one pivot on an edge with one looped end.
    rng = random.Random(71)
    for _ in range(60):
        G = with_last_vertex(rng, rng.randint(2, 9), 0, True)
        u = G.n - 1
        assert not G.entry_at(u, u)
        assert all(G.entry_at(i, i) for i in range(u) if G.entry_at(i, u))
        assert interlace_recursive(G) == interlace_polynomial(G)


def test_recursion_on_a_looped_last_vertex():
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randint(1, 9)
        G = with_last_vertex(rng, n, 1, rng.randrange(2)) if n > 1 else graph_on_rows([1])
        assert G.entry_at(G.n - 1, G.n - 1)
        assert interlace_recursive(G) == interlace_polynomial(G)


def unpack_graph(graph, n):
    """The rows of a graph packed at stride n, up to its last nonzero row."""
    return tuple(graph >> x * n & (1 << n) - 1 for x in range(-(-graph.bit_length() // n)))


def test_recursion_pivots_once_per_frame_with_u_deleted(monkeypatch):
    # On a path with loops on its even vertices, every loopless u has a
    # looped highest neighbour v; X = {u, v} is still one kernel call, which
    # builds G*X on every row, u's included; the loop then deletes u.  The
    # graph has 12 vertices, so the calls are to the packed kernel.
    calls = []
    real = interlace_module._packed_pivot

    def recording(graph, part, n, base):
        out = real(graph, part, n, base)
        calls.append((unpack_graph(graph, n), part, unpack_graph(out, n)))
        return out

    monkeypatch.setattr(interlace_module, "_packed_pivot", recording)
    labels = [f"v{i:02d}" for i in range(12)]
    G = graph_from_edges(
        labels, [(a, b) for a, b in zip(labels, labels[1:])] + [(v, v) for v in labels[::2]]
    )
    assert interlace_recursive(G) == interlace_polynomial(G)
    assert calls
    for rows, part, pivoted in calls:
        u = len(rows) - 1
        assert part >> u & 1
        assert part.bit_count() <= 2 and not part & ~rows[u] & ~(1 << u)
        assert pivoted == f2_pivot_rows(rows, part)


def test_recursion_strips_a_trailing_run_of_isolated_vertices():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(1, 10)
        G = random_graph(rng, n)
        for i in range(n - rng.randint(1, n), n):
            G = isolate(G, i)
        assert not G.rows[-1]
        assert interlace_recursive(G) == interlace_polynomial(G)


def test_recursion_with_a_vertex_isolated_in_the_middle():
    rng = random.Random(74)
    for _ in range(60):
        n = rng.randint(3, 10)
        G = isolate(random_graph(rng, n), rng.randrange(1, n - 1))
        assert interlace_recursive(G) == interlace_polynomial(G)


def test_recursion_finishes_a_long_matching_and_a_large_discrete_graph():
    # A matching's chain of deletions is one level per edge, and the
    # isolated vertices each deletion leaves are stripped in that level;
    # a discrete graph is stripped at once.
    labels = [f"v{i:04d}" for i in range(1200)]
    for edges in (
        [(labels[2 * i], labels[2 * i + 1]) for i in range(600)],
        [(labels[i], labels[i + 600]) for i in range(600)],
    ):
        assert interlace_recursive(graph_from_edges(labels, edges)) == Poly.monomial(600, 2**600)
    discrete = Matrix.zeros(GF2, [f"v{i:04d}" for i in range(2000)])
    assert interlace_recursive(discrete) == Poly.monomial(2000)


def test_recursion_weights_hold_a_coefficient_of_two_to_the_n():
    # n isolated looped vertices give q = 2^n, the largest coefficient any
    # graph on n vertices has; it needs all n + 1 bits of a packed weight.
    for n in range(66):
        labels = [f"v{i:02d}" for i in range(n)]
        G = graph_from_edges(labels, [(v, v) for v in labels])
        assert interlace_recursive(G) == Poly.of([2**n])


def test_recursion_on_disjoint_unions_near_the_packed_bound():
    # q is multiplicative over disjoint unions.  Each component sits on a
    # contiguous block of labels, so the subgraphs reached hold several
    # components at once: packed at the stride of the whole graph around
    # the packed bound, and as row tuples on 101 labels and more, where the
    # labels take three digits.
    rng = random.Random(77)
    for least in (60, 101):
        seen = set()
        for _ in range(12):
            parts, pairs, q, n = [], [], Poly.of([1]), 0
            while n < least:
                H = random_graph(rng, rng.randint(4, 9))
                pairs += [
                    (n + i, n + j) for i in range(H.n) for j in range(i, H.n) if H.rows[i] >> j & 1
                ]
                q = q * interlace_polynomial(H)
                parts.append(H.n)
                n += H.n
            seen.add(n)
            labels = labels_for(n)
            G = graph_from_edges(labels, [(labels[i], labels[j]) for i, j in pairs])
            assert interlace_recursive(G) == q, parts
        if least == 60:
            assert min(seen) <= interlace_module._PACKED_RECURSION_VERTICES < max(seen)
        else:
            assert min(seen) >= 101 and max(seen) <= 130


@pytest.mark.parametrize("n", [64, 65])
def test_recursion_memo_cap_is_exact_on_either_side_of_the_packed_bound(n, monkeypatch):
    # The memo of P_n holds P_2 .. P_n, n(n + 1)/2 - 1 rows in all.
    total = n * (n + 1) // 2 - 1
    monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", total)
    assert interlace_recursive(path_graph(n)) == path_polynomials(n + 1)[n]
    monkeypatch.setattr(interlace_module, "RECURSION_MEMO_CAP", total - 1)
    with pytest.raises(ValueError, match=f"memo cap of {total - 1} rows"):
        interlace_recursive(path_graph(n))


def test_recursion_rejects_non_graphs():
    with pytest.raises(ValueError):
        interlace_recursive(sample_rational_matrix())


def test_enumeration_cap_applies_even_to_shortcut_inputs():
    big = Matrix.zeros(GF2, [f"v{i:03d}" for i in range(65)])
    with pytest.raises(ValueError, match="enumeration cap"):
        nullity_polynomial(big)


# --- the general deletion/pivot identity ------------------------------------------------

def _deletion_sum(A, u, X):
    """q(A - u) + q(A*X - u), both by enumeration: q(A) when u is in X and A[X] is nonsingular."""
    q = interlace_polynomial
    return q(delete_label(A, u)) + q(delete_label(pivot(A, X), u))


def test_verify_recursion_worked_rational():
    A = sample_rational_matrix()
    assert _deletion_sum(A, "a", A.subset("a", "b")) == interlace_polynomial(A) == Poly.of([6, 1])


def test_verify_recursion_on_graph_pair():
    G = pivot_pair_left()
    assert _deletion_sum(G, "2", G.subset("1", "2", "3")) == interlace_polynomial(G)


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
        assert _deletion_sum(A, u, X) == interlace_polynomial(A)
        checked += 1


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

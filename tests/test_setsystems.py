import functools
import gc
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from pivotpoly import (
    GF2,
    RATIONAL,
    Matrix,
    SubsetMask,
    graph_from_edges,
    norm,
    nullity,
    partition_sequence_of,
    pivot,
    principal_submatrix,
    rank,
    set_system_of,
    twist,
)
from pivotpoly.setsystems import (
    ENUMERATION_CAP,
    PartitionSequence,
    nullity_histogram,
    subset_nullities,
)
from pivotpoly import matrix, rational
from pivotpoly.cli import main
from pivotpoly.interlace import nullity_polynomial
from pivotpoly.randgen import labels_for, random_graph, random_matrix, random_valid_pivot_subset

from oracles import subset_nullities_by_elimination
from samples import (
    LEFT_CLASSES,
    PAIR_NORM,
    RIGHT_CLASSES,
    big_fraction_entries,
    classes_to_masks,
    patch_kernels,
    pivot_pair_left,
    pivot_pair_right,
    rational_stress_matrices,
    sample_rational_matrix,
)


def test_set_system_of_graph_matches_known_members():
    G = pivot_pair_left()
    S = set_system_of(G)
    assert S.members == classes_to_masks(G.domain, LEFT_CLASSES)[0]
    assert 0 in S.members  # the empty set is always nonsingular


def test_set_system_of_zero_matrix():
    Z = Matrix.zeros(GF2, ["a", "b", "c"])
    assert set_system_of(Z).members == frozenset({0})


def test_set_system_of_rational_sample():
    A = sample_rational_matrix()
    S = set_system_of(A)
    excluded = A.subset("b", "c").bits
    assert S.members == frozenset(range(8)) - {excluded}


def test_partition_sequence_matches_known_listings():
    G = pivot_pair_left()
    P = partition_sequence_of(G)
    assert P.classes == classes_to_masks(G.domain, LEFT_CLASSES)
    H = pivot_pair_right()
    Q = partition_sequence_of(H)
    assert Q.classes == classes_to_masks(H.domain, RIGHT_CLASSES)


def test_partition_sequence_single_vertex():
    G = graph_from_edges(["1"], [])
    P = partition_sequence_of(G)
    assert P.classes == (frozenset({0}), frozenset({1}))


def test_class_zero_equals_set_system():
    rng = random.Random(3)
    for _ in range(30):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(0, 6))
        assert partition_sequence_of(A).classes[0] == set_system_of(A).members


def test_partition_sequence_validation():
    P = PartitionSequence(("a",), bytes([0, 1]))
    assert P.classes == (frozenset({0}), frozenset({1}))
    # The nullities are bytes, one per mask: 2^n of them.
    for nullities in [b"\0", bytes(3), bytes(4)]:
        with pytest.raises(ValueError, match="expected 2 nullities"):
            PartitionSequence(("a",), nullities)
    # Every entry is a class index 0..n.
    for nullities in [bytes([0, 2]), bytes([255, 0]), bytes([0, 5])]:
        with pytest.raises(ValueError, match=r"in 0\.\.1"):
            PartitionSequence(("a",), nullities)
    # Any other container is refused, even with valid entries: a bytearray
    # would make the value mutable and unhashable.
    for nullities in [(0, 1), [0, 1], bytearray([0, 1]), memoryview(bytes([0, 1])), "\0\1"]:
        with pytest.raises(ValueError, match="must be bytes"):
            PartitionSequence(("a",), nullities)


# --- twist ---------------------------------------------------------------------

def test_twist_is_involution():
    G = pivot_pair_left()
    P = partition_sequence_of(G)
    X = G.subset("1", "3")
    assert twist(twist(P, X), X) == P
    S = set_system_of(G)
    assert twist(twist(S, X), X) == S


def test_twist_tracks_pivot():
    G = pivot_pair_left()
    X = G.subset("1", "2", "3")
    assert twist(partition_sequence_of(G), X) == partition_sequence_of(
        pivot_pair_right()
    )
    rng = random.Random(7)
    for _ in range(40):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(1, 6))
        X = random_valid_pivot_subset(rng, A)
        assert twist(partition_sequence_of(A), X) == partition_sequence_of(
            pivot(A, X)
        )


def test_twist_preserves_norm_for_arbitrary_subsets():
    rng = random.Random(11)
    for _ in range(40):
        A = random_matrix(rng, GF2, rng.randint(1, 7))
        P = partition_sequence_of(A)
        X = SubsetMask(A.domain, rng.randrange(1 << A.n))  # may be singular
        assert norm(twist(P, X)) == norm(P)


def test_twist_moves_every_mask_to_its_index():
    # The twist moves blocks by slices; the reference indexes every mask.
    # Every x for n <= 5 covers odd and even splits into low and high bits.
    rng = random.Random(12)
    for n in range(10):
        domain = tuple(f"v{i}" for i in range(n))
        P = PartitionSequence(domain, bytes(rng.randint(0, n) for _ in range(1 << n)))
        xs = range(1 << n) if n <= 5 else [rng.randrange(1 << n) for _ in range(8)]
        for x in xs:
            want = bytes(P.nullities[y ^ x] for y in range(1 << n))
            assert twist(P, SubsetMask(domain, x)).nullities == want, (n, x)


def test_twist_rejects_foreign_domain():
    P = partition_sequence_of(pivot_pair_left())
    with pytest.raises(ValueError):
        twist(P, SubsetMask(("x",), 0))
    with pytest.raises(TypeError):
        twist([", not a system"], SubsetMask(("x",), 0))


# --- norm ------------------------------------------------------------------------

def test_norm_worked_values():
    assert norm(partition_sequence_of(pivot_pair_left())) == PAIR_NORM
    assert norm(partition_sequence_of(pivot_pair_right())) == PAIR_NORM
    A = sample_rational_matrix()
    assert norm(partition_sequence_of(A)) == (7, 1, 0, 0)


def test_norm_of_discrete_graph_is_binomial():
    for n in range(0, 7):
        G = Matrix.zeros(GF2, [f"v{i}" for i in range(n)])
        assert norm(partition_sequence_of(G)) == tuple(
            math.comb(n, i) for i in range(n + 1)
        )


# --- restriction ------------------------------------------------------------------

def _on_submasks(nullities, X):
    """The entries of a subset sweep at the submasks of X, in increasing order."""
    return [k for m, k in enumerate(nullities) if m & ~X.bits == 0]


def test_restrict_full_and_empty():
    G = pivot_pair_left()
    nullities = subset_nullities(G)
    assert _on_submasks(nullities, G.full_subset()) == list(nullities)
    empty = G.subset()
    on_empty = list(subset_nullities(principal_submatrix(G, empty)))
    assert _on_submasks(nullities, empty) == on_empty == [0]


def test_restrict_equals_submatrix_sequence():
    # The submasks of X in increasing order are the masks of A[X]'s sweep.
    G = pivot_pair_left()
    X = G.subset("1", "2", "3")
    assert _on_submasks(subset_nullities(G), X) == list(
        subset_nullities(principal_submatrix(G, X))
    )
    rng = random.Random(13)
    for _ in range(40):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(1, 6))
        X = SubsetMask(A.domain, rng.randrange(1 << A.n))
        assert _on_submasks(subset_nullities(A), X) == list(
            subset_nullities(principal_submatrix(A, X))
        )


# --- sweeps -------------------------------------------------------------------------

def test_subset_nullities_agree_with_direct_computation():
    rng = random.Random(17)
    for _ in range(20):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(0, 6))
        sweep = subset_nullities(A)
        assert partition_sequence_of(A).nullities == sweep
        for bits in range(1 << A.n):
            X = SubsetMask(A.domain, bits)
            assert sweep[bits] == nullity(principal_submatrix(A, X))


def test_histogram_equals_norm():
    rng = random.Random(19)
    for _ in range(20):
        field = rng.choice([GF2, RATIONAL])
        A = random_matrix(rng, field, rng.randint(0, 7))
        assert nullity_histogram(A) == norm(partition_sequence_of(A))


def test_sweeps_leave_no_reference_cycle():
    # A cycle would keep the sweep's bytes or level dicts alive until the next
    # garbage collection, for example through a whole pseq listing.
    rng = random.Random(21)
    gc.collect()
    gc.disable()
    try:
        for field in (GF2, RATIONAL):
            A = random_matrix(rng, field, 9)
            for sweep in (subset_nullities, nullity_histogram):
                sweep(A)
                assert gc.collect() == 0, (field, sweep.__name__)
    finally:
        gc.enable()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_one_byte_a_subset():
    # 2^16 nullities fill 64 KiB as bytes; a list of them alone is 512 KiB.
    A = random_matrix(random.Random(16), GF2, 16)
    peak = _traced_peak(lambda: subset_nullities(A))
    assert peak < 256 * 1024, peak


def test_histogram_memo_keeps_each_count_once():
    # Each level's dict keeps every distinct pending list once, with its
    # counts by nullity packed into one int.  One pass over all 18 labels
    # holds two levels' dicts at a time: about 1.45 MB here.
    A = random_matrix(random.Random(18), GF2, 18)
    peak = _traced_peak(lambda: nullity_histogram(A))
    assert peak < 2 * 1024 * 1024, peak


def test_histogram_split_bounds_the_level_pass(monkeypatch):
    # With passes of 12 labels a first pass covers the first 6 labels and
    # each list it reaches runs its own pass over the last 12, so no pass
    # holds more than 12 labels' worth of states: about 75 KB here,
    # against 1.45 MB for one pass over all 18 labels.
    monkeypatch.setattr(matrix, "_LEVEL_PASS_LABELS", 12)
    A = random_matrix(random.Random(18), GF2, 18)
    peak = _traced_peak(lambda: nullity_histogram(A))
    assert peak < 256 * 1024, peak


def test_subset_nullities_match_elimination_oracle():
    rng = random.Random(23)
    for n in range(11):
        for field in (GF2, RATIONAL):
            for _ in range(3 if n < 8 else 1):
                A = random_matrix(rng, field, n)
                assert subset_nullities(A) == subset_nullities_by_elimination(A)


def test_subset_nullities_clear_large_fractions():
    # p/q entries with large numerators and denominators run the
    # denominator clearing and the gcd division.  Half the matrices take
    # some rows as rational combinations of the others, so that nullities
    # above zero occur in submatrices of every size.
    rng = random.Random(29)
    for trial in range(24):
        n = rng.randint(1, 7)
        rows = big_fraction_entries(rng, n, dependent=trial % 2 == 1)
        A = Matrix.from_entries(RATIONAL, labels_for(n), rows)
        assert subset_nullities(A) == subset_nullities_by_elimination(A)


def _structured_entries(n):
    yield "zeros", [[0] * n for _ in range(n)]
    yield "identity", [[int(i == j) for j in range(n)] for i in range(n)]
    yield "ones", [[1] * n for _ in range(n)]
    yield "zero line", [
        [0 if n // 2 in (i, j) else (i * 3 + j * 5) % 4 - 1 for j in range(n)]
        for i in range(n)
    ]
    yield "repeated rows", [[(min(i, 2) * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_subset_nullities_on_structured_matrices(field):
    for n in range(7):
        for name, entries in _structured_entries(n):
            if field == GF2:
                entries = [[e % 2 for e in row] for row in entries]
            A = Matrix.from_entries(field, labels_for(n), entries)
            assert subset_nullities(A) == subset_nullities_by_elimination(A), (name, n)


def test_subset_nullities_on_every_small_gf2_matrix():
    # Every GF(2) matrix with n <= 3 (1 + 2 + 16 + 512 = 531 of them)
    # covers each path through the walk's unrolled last two levels.
    count = 0
    for n in range(4):
        for bits in range(1 << (n * n)):
            entries = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
            A = Matrix.from_entries(GF2, labels_for(n), entries)
            assert subset_nullities(A) == subset_nullities_by_elimination(A), entries
            count += 1
    assert count == 531


def _leaf_cases(rng, field, n):
    """Random n x n entries whose last two rows, a = n-2 and b = n-1, take
    the values the walk's last levels special-case: zero, equal to each
    other, a unit e_a or e_b, or (a multiple of) an earlier row."""
    draw = (lambda: rng.randrange(2)) if field == GF2 else (lambda: rng.randint(-2, 2))
    scale = 1 if field == GF2 else -2
    zero = [0] * n
    a, b = n - 2, n - 1
    e_a, e_b = ([int(j == i) for j in range(n)] for i in (a, b))
    for case in [
        (None, zero),
        (zero, zero),
        (zero, e_b),
        (None, "same"),
        (e_a, "same"),
        (e_b, "same"),
        (None, e_a),
        (None, e_b),
        (e_a, None),
        (e_b, None),
        (e_a, e_b),
        (e_b, e_a),
        (None, "earlier"),
        ("earlier", None),
        ("earlier", "same"),
    ]:
        entries = [[draw() for _ in range(n)] for _ in range(n)]
        for i, row in zip((a, b), case):
            if row == "same":
                entries[i] = list(entries[a])
            elif row == "earlier":
                if i:
                    entries[i] = [scale * x for x in entries[rng.randrange(i)]]
            elif row is not None:
                entries[i] = list(row)
        yield case, entries


@pytest.mark.parametrize("field", [GF2, RATIONAL])
def test_subset_nullities_on_leaf_special_cases(field):
    rng = random.Random(47)
    for n in range(2, 11):
        cases = list(_leaf_cases(rng, field, n))
        if field == RATIONAL and n > 8:
            cases = cases[::3]  # the rational oracle takes 0.2-0.3 s a matrix here
        for case, entries in cases:
            A = Matrix.from_entries(field, labels_for(n), entries)
            assert subset_nullities(A) == subset_nullities_by_elimination(A), (n, case)


def test_rational_walk_keeps_integers_small(monkeypatch):
    # On the list path each row the walk reduces is divided by the gcd of
    # its entries, which keeps it primitive: its entries are then bounded by
    # minors of the cleared matrix (Hadamard), and the p*w - f*v passed to
    # gcd by twice that bound squared.  Without the division the sizes grow
    # geometrically with the depth.  A slot limit of 0 sends every matrix
    # down this path.
    sizes = []
    real_gcd = rational.gcd

    def recording_gcd(*xs):
        sizes.append(max(abs(x) for x in xs).bit_length())
        return real_gcd(*xs)

    monkeypatch.setattr(rational, "gcd", recording_gcd)
    monkeypatch.setattr(rational, "PACKED_SLOT_BITS", 0)
    for A in rational_stress_matrices(random.Random(43), 16, 9):
        sizes.clear()
        assert subset_nullities(A) == subset_nullities_by_elimination(A)
        _, ints = rational._cleared(A.rows)
        top = max((abs(x) for row in ints for x in row), default=0).bit_length()
        bound = 2 * A.n * (top + A.n.bit_length()) + 2
        assert max(sizes, default=0) <= bound, (A.n, max(sizes), bound)
        if any(row[0] for row in ints[1:]):
            # The root's pivot e_0 reduces every later row with a nonzero
            # first entry.
            assert sizes, A.n


def _hadamard_bound(A):
    _, ints = rational._cleared(A.rows)
    return math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in ints)


def _slot_width(A):
    return (2 * _hadamard_bound(A) ** 2).bit_length() + 2


def test_packed_rational_walk_keeps_slots_within_the_hadamard_bound(monkeypatch):
    # On the packed path every reduced row is p*w - f*v divided exactly by
    # the previous pivot (Bareiss), so each of its n signed slots is a minor
    # of the row choice, at most B in magnitude.  Without the division the
    # slots grow past B and spill into their neighbours.  The profiler
    # reads the rows that each call of the walk receives.
    walk_code = next(c for c in rational._packed_walk.__code__.co_consts if getattr(c, "co_name", "") == "walk")
    seen = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is walk_code:
            seen.extend(frame.f_locals["pending"])

    # The wide stress matrices run it under a raised slot limit.
    rng = random.Random(44)
    cases = rational_stress_matrices(rng, 16, 7)
    cases += [random_matrix(rng, RATIONAL, rng.randint(2, 9)) for _ in range(12)]
    for A in cases:
        B, wd = _hadamard_bound(A), _slot_width(A)
        half, low = 1 << wd - 1, (1 << wd) - 1
        seen.clear()
        with monkeypatch.context() as patch:
            if wd > rational.PACKED_SLOT_BITS:
                patch.setattr(rational, "PACKED_SLOT_BITS", wd)
            sys.setprofile(record)
            try:
                got = subset_nullities(A)
            finally:
                sys.setprofile(None)
        assert got == subset_nullities_by_elimination(A)
        assert seen or A.n < 2, A
        for row in seen:
            for _ in range(A.n - 1):
                slot = (row + half & low) - half
                assert abs(slot) <= B, (A, slot, B)
                row = (row - slot) >> wd
            assert abs(row) <= B, (A, row, B)


def _count_paths(monkeypatch):
    ran = Counter()
    for name in ("_packed_walk", "_gcd_walk"):
        def counted(*args, real=getattr(rational, name), name=name):
            ran[name] += 1
            return real(*args)

        monkeypatch.setattr(rational, name, counted)
    return ran


def _signed_entries():
    yield "negative ones", lambda n: [[-1] * n for _ in range(n)]
    yield "minus identity", lambda n: [[-int(i == j) for j in range(n)] for i in range(n)]
    yield "alternating", lambda n: [[(-1) ** (i + j) * (1 + (i * j) % 3) for j in range(n)] for i in range(n)]
    yield "negative tail", lambda n: [[3 if j == i else -2 for j in range(n)] for i in range(n)]
    yield "minus a row", lambda n: [[-(j + 1) * (1 if i % 2 else -1) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("path", ["_packed_walk", "_gcd_walk"])
def test_rational_sweep_paths_match_the_elimination_oracle(monkeypatch, path):
    # Both walks on the same inputs, each forced by the slot limit: n = 0
    # and 1, the structured matrices, signed rows whose negative slots borrow
    # from the slot above, and the leaf cases of the unrolled last levels.
    ran = _count_paths(monkeypatch)
    monkeypatch.setattr(rational, "PACKED_SLOT_BITS", 1 << 20 if path == "_packed_walk" else 0)
    cases = [("empty", [])] + [("one", [[x]]) for x in (0, 1, -1, 5, Fraction(-3, 7))]
    for n in range(1, 7):
        cases += [(name, entries) for name, entries in _structured_entries(n)]
        cases += [(name, make(n)) for name, make in _signed_entries()]
    rng = random.Random(53)
    for n in range(2, 8):
        cases += [(case, entries) for case, entries in _leaf_cases(rng, RATIONAL, n)]
    for name, entries in cases:
        A = Matrix.from_entries(RATIONAL, labels_for(len(entries)), entries)
        assert subset_nullities(A) == subset_nullities_by_elimination(A), (path, name, entries)
    assert set(ran) == {path}, ran
    assert ran[path] == len(cases) - 1  # the empty matrix runs no walk


def test_rational_sweep_takes_the_packed_path_up_to_the_slot_limit(monkeypatch):
    # The last row is (small, ..., small, k), so isqrt(|row|^2) + 1 grows one
    # for one with k; k is set so that the slot width lands exactly on the
    # limit, and one past it.
    limit = rational.PACKED_SLOT_BITS
    ran = _count_paths(monkeypatch)
    rng = random.Random(59)
    for n, dependent in ((2, False), (5, False), (5, True)):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        if dependent:
            rows[-1] = [-x for x in rows[0]]
        rows.append([rng.randint(-3, 3) for _ in range(n - 1)] + [0])

        def width(k):
            rows[-1][-1] = k
            return _slot_width(Matrix.from_entries(RATIONAL, labels_for(n), rows))

        k = 1
        while width(2 * k) <= limit:
            k *= 2
        lo, hi = k, 2 * k  # width(lo) <= limit < width(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if width(mid) <= limit else (lo, mid)
        for k, want in ((lo, "_packed_walk"), (hi, "_gcd_walk"), (-lo, "_packed_walk")):
            assert width(abs(k)) == (limit if want == "_packed_walk" else limit + 1)
            rows[-1][-1] = k
            A = Matrix.from_entries(RATIONAL, labels_for(n), rows)
            ran.clear()
            assert subset_nullities(A) == subset_nullities_by_elimination(A), (n, k)
            assert set(ran) == {want}, (n, k, ran)


def test_sweep_runs_no_per_subset_elimination(monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    # Through the table for callers that look kernels up, and as module
    # attributes for kernels that call one another.
    for field in (GF2, RATIONAL):
        patch_kernels(monkeypatch, field, rank_det=counted(field, matrix.KERNELS[field].rank_det))
    for module, name in ((matrix, "nullity_by_bits"), (matrix, "f2_rank_rows"), (rational, "q_rank_det")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = random.Random(31)
    for field in (GF2, RATIONAL):
        A = random_matrix(rng, field, 6)
        rank(A)
        assert field in calls  # the wrappers see a direct elimination
        calls.clear()
        partition_sequence_of(A)
        nullity_histogram(A)
        set_system_of(A)
        assert calls == []


def test_enumeration_cap_is_enforced():
    big = Matrix.zeros(GF2, [f"v{i:03d}" for i in range(ENUMERATION_CAP + 1)])
    with pytest.raises(ValueError, match="enumeration cap"):
        subset_nullities(big)


# --- the GF(2) histogram walk -------------------------------------------------------------

@functools.cache
def _reference_histogram(A):
    """Class sizes of the entrywise elimination oracle, shared by every pass bound."""
    counts = Counter(subset_nullities_by_elimination(A))
    return tuple(counts[k] for k in range(A.n + 1))


# The bound on the labels one level pass covers; a prefix pass covers the
# labels before it, and each list it reaches runs its own pass over the
# rest.  0 puts every label in the prefix; 1 leaves one label to each pass;
# 3 mixes the prefix and the pass from n = 4 on; None keeps the module's
# bound, so every small input runs one pass.
LEVEL_PASS_BOUNDS = [None, 0, 1, 3]


@pytest.fixture(
    params=LEVEL_PASS_BOUNDS, ids=lambda b: f"level_pass_labels={'default' if b is None else b}"
)
def level_pass_bound(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(matrix, "_LEVEL_PASS_LABELS", request.param)
    return request.param


def test_histogram_walk_on_every_small_gf2_matrix(level_pass_bound):
    # Every GF(2) matrix with n <= 3 (1 + 2 + 16 + 512 = 531 of them): the
    # empty domain, whose root list is already empty, and every zero or
    # nonzero candidate at each of up to three labels.
    count = 0
    for n in range(4):
        for bits in range(1 << (n * n)):
            entries = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
            A = Matrix.from_entries(GF2, labels_for(n), entries)
            assert nullity_histogram(A) == _reference_histogram(A), entries
            count += 1
    assert count == 531


def test_histogram_walk_on_random_matrices_and_graphs(level_pass_bound):
    rng = random.Random(53)
    for n in range(11):
        for _ in range(4):
            for A in (random_matrix(rng, GF2, n), random_graph(rng, n)):
                assert nullity_histogram(A) == _reference_histogram(A), (n, A.rows)


def test_histogram_walk_on_leaf_special_cases(level_pass_bound):
    rng = random.Random(59)
    for n in range(2, 11):
        for case, entries in _leaf_cases(rng, GF2, n):
            A = Matrix.from_entries(GF2, labels_for(n), entries)
            assert nullity_histogram(A) == _reference_histogram(A), (n, case)


def _packing_boundary_cases(rng, n):
    """GF(2) entries that set the bits at the edges of the walks' packed
    rows (n bits a row, e_0 lowest) or make two levels pack alike.  At
    n = 2 the root is the unrolled level."""
    def with_row(i, row):
        entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        entries[i] = row
        return entries

    yield "ones", [[1] * n for _ in range(n)]
    for i in range(n):
        yield f"row {i} is e_{n - 1}", with_row(i, [int(j == n - 1) for j in range(n)])
    yield f"top row has bit {n - 1}", with_row(n - 1, [rng.randrange(2) for _ in range(n - 1)] + [1])
    # The first half of the rows are the highest units and the rest repeat
    # the lowest of them.  Picking the first n // 2 rows reduces every row
    # still to come to zero, and so does picking one more: from n = 6 on,
    # two levels then hold the same (zero) packed list.
    h = n // 2
    yield "two levels pack alike", [
        [int(j == (n - 1 - i if i < h else n - h)) for j in range(n)] for i in range(n)
    ]


def test_histogram_walk_at_the_packing_boundaries(level_pass_bound):
    rng = random.Random(71)
    for n in range(2, 11):
        for case, entries in _packing_boundary_cases(rng, n):
            A = Matrix.from_entries(GF2, labels_for(n), entries)
            assert nullity_histogram(A) == _reference_histogram(A), (n, case)
            assert subset_nullities(A) == subset_nullities_by_elimination(A), (n, case)


@pytest.mark.parametrize("labels", [*range(11), 64])
def test_histogram_walk_at_every_memo_depth(labels, monkeypatch):
    # The labels one level pass covers: 0 (the prefix pass covers every
    # label) up to 10, then 64, one pass over every label.  Below n each
    # bound mixes the prefix and the pass.
    monkeypatch.setattr(matrix, "_LEVEL_PASS_LABELS", labels)
    rng = random.Random(61)
    for n in range(11):
        for A in (random_matrix(rng, GF2, n), random_graph(rng, n)):
            assert nullity_histogram(A) == _reference_histogram(A), (labels, n)


def test_histogram_default_split_matches_the_sweep():
    # One label past the default bound: a prefix pass over label 0, then
    # one pass over the last 18 labels from each list it reaches.
    n = 19
    assert matrix._LEVEL_PASS_LABELS < n
    rng = random.Random(73)
    for A in (random_matrix(rng, GF2, n), random_graph(rng, n)):
        assert nullity_histogram(A) == matrix._class_sizes(subset_nullities(A), n)


def test_histogram_consumers_build_no_mask_list(monkeypatch, capsys):
    def refuse(rows):
        raise AssertionError("a histogram consumer built the 2^n mask list")

    patch_kernels(monkeypatch, GF2, subset_nullities=refuse)
    monkeypatch.setattr(matrix, "f2_subset_nullities", refuse)
    G = graph_from_edges("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("e", "e")])
    A = random_matrix(random.Random(67), GF2, 9)
    with pytest.raises(AssertionError, match="mask list"):
        subset_nullities(A)
    assert sum(nullity_histogram(A)) == 1 << 9
    assert sum(nullity_polynomial(G).coeffs) == 1 << 5
    assert main(["distribution", "--dos", "abcadbcd"]) == 0
    assert capsys.readouterr().out.endswith("match\n")

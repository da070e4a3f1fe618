"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
3 mathematical precondition violation (for example a singular pivot block),
141 stdout closed before the output was written (128 + SIGPIPE, as when the
output is piped into ``head``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

# The modules every command needs.  The rest (setsystems, interlace,
# circuits, randgen) are imported by the handlers that run them, so a
# process loads only what its command uses.
from . import graphs
from .graphs import OrbitOverflowError
from .formats import (
    FormatError,
    _partition_lines,
    format_graph,
    format_matrix,
    format_norm,
    format_orbit_blocks,
    parse_graph,
    parse_matrix,
)
from .matrix import (
    GF2,
    RATIONAL,
    SingularMatrixError,
    SubsetMask,
    _class_sizes,
    delete_label,
    nullity_by_bits,
)
from .pivot import pivot, tucker_determinant_check, verify_partial_inverse

__all__ = ["main", "run"]

VERIFY_PROPS = (
    "nullity-invariance",
    "tucker",
    "partial-inverse",
    "twist",
    "recursion",
    "cohn-lempel",
)


def _split_labels(arg: str) -> list[str]:
    if not arg:
        return []
    labels = arg.split(",")
    if "" in labels:
        raise argparse.ArgumentTypeError(f"empty label in {arg!r}")
    return labels


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def _at_least_one(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _trial_size(arg: str) -> int:
    """Verify trials sweep all subsets, so the size is held to the enumeration cap."""
    from . import setsystems

    value = _at_least_one(arg)
    if value > setsystems.ENUMERATION_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {setsystems.ENUMERATION_CAP}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pivotpoly",
        description="Exact pivots, partition sequences, and interlace polynomials.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pivot", help="pivot a matrix on a label subset")
    sp.add_argument("--matrix", required=True, metavar="FILE")
    sp.add_argument("--on", required=True, type=_split_labels, metavar="LABELS", help="comma-separated labels")

    sp = sub.add_parser("nullity", help="nullity of a matrix or principal submatrix")
    sp.add_argument("--matrix", required=True, metavar="FILE")
    sp.add_argument("--subset", type=_split_labels, metavar="LABELS")

    sp = sub.add_parser("pseq", help="partition sequence of a matrix")
    sp.add_argument("--matrix", required=True, metavar="FILE")
    sp.add_argument("--norm-only", action="store_true")

    sp = sub.add_parser("interlace", help="interlace polynomial of a graph")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--method", choices=("direct", "recursive", "both"), default="both")

    sp = sub.add_parser("overlap", help="overlap graph of a double occurrence string")
    sp.add_argument("--dos", required=True, metavar="STRING")

    sp = sub.add_parser("walks", help="closed-walk partition induced by a flip set")
    sp.add_argument("--dos", required=True, metavar="STRING")
    sp.add_argument("--flip", required=True, type=_split_labels, metavar="LABELS")

    sp = sub.add_parser("distribution", help="walk-count distribution over all flip sets")
    sp.add_argument("--dos", required=True, metavar="STRING")

    sp = sub.add_parser("orbit", help="pivot orbit of a graph")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--max-graphs", type=_at_least_one, default=10**6)

    sp = sub.add_parser("verify", help="randomized property verification")
    sp.add_argument("--prop", required=True, choices=VERIFY_PROPS)
    sp.add_argument("--trials", type=_at_least_one, default=100)
    sp.add_argument("--size", type=_trial_size, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", choices=(GF2, RATIONAL), default=GF2)
    return p


def _cmd_pivot(args) -> int:
    A = parse_matrix(_read(args.matrix))
    X = SubsetMask.of(A.domain, args.on)
    print(format_matrix(pivot(A, X)), end="")
    return 0


def _cmd_nullity(args) -> int:
    A = parse_matrix(_read(args.matrix))
    X = A.full_subset() if args.subset is None else SubsetMask.of(A.domain, args.subset)
    print(nullity_by_bits(A, X.bits))
    return 0


def _cmd_pseq(args) -> int:
    from . import setsystems

    A = parse_matrix(_read(args.matrix))
    if args.norm_only:
        print(f"norm: {format_norm(setsystems.nullity_histogram(A))}")
    else:
        sys.stdout.writelines(_partition_lines(A.domain, setsystems.subset_nullities(A)))
    return 0


def _cmd_interlace(args) -> int:
    from . import interlace

    G = parse_graph(_read(args.graph))
    if args.method == "recursive":
        q = interlace.interlace_recursive(G)
        qp = interlace.nullity_from_interlace(q)
    else:
        qp = interlace.nullity_polynomial(G)
        q = interlace.interlace_from_nullity(qp)
    # The check runs before anything is printed, so a recursion that fails
    # (exit 2) leaves stdout empty.
    q_rec = interlace.interlace_recursive(G) if args.method == "both" else q
    print(f"q': {qp}")
    print(f"q: {q}")
    if args.method == "both":
        print("methods agree" if q_rec == q else f"METHOD MISMATCH: recursive gave {q_rec}")
    return 0 if q_rec == q else 1


def _cmd_overlap(args) -> int:
    from . import circuits

    s = circuits.parse_dos(args.dos)
    print(format_graph(circuits.overlap_graph(s)), end="")
    return 0


def _cmd_walks(args) -> int:
    from . import circuits

    s = circuits.parse_dos(args.dos)
    domain = circuits.dos_domain(s)
    X = SubsetMask.of(domain, args.flip)
    part = circuits.trace_partition(s, X)
    walks = len(part)
    print(f"walks: {walks}")
    for idx, walk in enumerate(part.walks):
        print(f"walk {idx}: " + " ".join(str(a) for a in walk))
    alg = nullity_by_bits(circuits.overlap_graph(s), X.bits) + 1
    ok = walks == alg
    print(f"cohn-lempel: walks={walks} nullity+1={alg} {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_distribution(args) -> int:
    from . import circuits, setsystems

    s = circuits.parse_dos(args.dos)
    dist = circuits.walk_distribution(s)
    alg = setsystems.nullity_histogram(circuits.overlap_graph(s))
    print(f"distribution: {format_norm(dist)}")
    print(f"norm: {format_norm(alg)}")
    ok = dist == alg
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_orbit(args) -> int:
    G = parse_graph(_read(args.graph))
    rows, moves = graphs._orbit_search(G, args.max_graphs)
    sys.stdout.writelines(format_orbit_blocks(G.domain, rows, moves))
    return 0


def _verify_trial(prop: str, rng: random.Random, size: int, field: str) -> bool:
    from . import circuits, interlace, randgen, setsystems

    n = rng.randint(1, size)
    if prop == "cohn-lempel":
        s = randgen.random_dos(rng, n)
        nullities = setsystems.subset_nullities(circuits.overlap_graph(s))
        return circuits.walk_counts(s) == [k + 1 for k in nullities]
    if prop == "recursion":
        if field == GF2:
            G = randgen.random_graph(rng, n)
            direct = interlace.interlace_from_nullity(interlace.nullity_polynomial(G))
            return interlace.interlace_recursive(G) == direct
        A = randgen.random_matrix(rng, RATIONAL, n)
        nullities = setsystems.subset_nullities(A)
        members = [m for m, k in enumerate(nullities) if m and not k]
        if not members:
            return True  # no nonempty pivot exists; nothing to recurse on
        X = SubsetMask(A.domain, rng.choice(members))
        u = rng.choice(X.labels())
        # q(A) = q(A - u) + q(A*X - u), with q(A) read off the sweep that drew X.
        q = interlace.interlace_polynomial
        total = q(delete_label(A, u)) + q(delete_label(pivot(A, X), u))
        direct = interlace.Poly.of(_class_sizes(nullities, n))
        return total == interlace.interlace_from_nullity(direct)
    A = randgen.random_matrix(rng, field, n)
    before = setsystems.subset_nullities(A)
    X = randgen.valid_pivot_subset_from(rng, A.domain, before)
    if prop == "nullity-invariance":
        after = setsystems.subset_nullities(pivot(A, X))
        return all(k == before[y ^ X.bits] for y, k in enumerate(after))
    if prop == "tucker":
        Y = randgen.random_subset(rng, A.domain)
        return tucker_determinant_check(A, X, Y)
    if prop == "partial-inverse":
        xs = randgen.random_vector(rng, field, n)
        return verify_partial_inverse(A, X, xs)
    if prop == "twist":
        P = setsystems.PartitionSequence(A.domain, tuple(before))
        return setsystems.twist(P, X) == setsystems.partition_sequence_of(pivot(A, X))
    raise ValueError(f"unknown property {prop!r}")


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        if not _verify_trial(args.prop, rng, args.size, args.field):
            failures += 1
    print(f"{args.trials - failures}/{args.trials} pass")
    return 1 if failures else 0


_HANDLERS = {
    "pivot": _cmd_pivot,
    "nullity": _cmd_nullity,
    "pseq": _cmd_pseq,
    "interlace": _cmd_interlace,
    "overlap": _cmd_overlap,
    "walks": _cmd_walks,
    "distribution": _cmd_distribution,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.prop == "cohn-lempel" and args.field != GF2:
        parser.error("argument --field: cohn-lempel is a GF(2) property; use --field f2")
    try:
        return _HANDLERS[args.command](args)
    except SingularMatrixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, OrbitOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    """Console entry point: exit with the code of :func:`main`.

    When the reader of stdout goes away early, as ``pivotpoly orbit ... |
    head -1`` does, the run ends with exit 141 (128 + SIGPIPE, what a shell
    reports for a process killed by that signal) and no traceback.  Stdout
    is flushed inside the ``try`` so the broken pipe surfaces here, then
    pointed at os.devnull so the flush at interpreter exit cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)

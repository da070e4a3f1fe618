"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
3 mathematical precondition violation (for example a singular pivot block).
"""

from __future__ import annotations

import argparse
import random
import sys

from . import circuits, graphs, interlace, randgen, setsystems
from .graphs import OrbitOverflowError
from .formats import (
    FormatError,
    format_graph,
    format_matrix,
    format_norm,
    format_partition_sequence,
    parse_graph,
    parse_matrix,
)
from .matrix import (
    GF2,
    RATIONAL,
    SingularMatrixError,
    SubsetMask,
    nullity,
    principal_submatrix,
)
from .pivot import (
    nullity_after_pivot,
    pivot,
    tucker_determinant_check,
    verify_partial_inverse,
)

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
    arg = arg.strip()
    if not arg:
        return []
    return [tok for tok in arg.split(",") if tok]


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pivotpoly",
        description="Exact pivots, partition sequences, and interlace polynomials.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pivot", help="pivot a matrix on a label subset")
    sp.add_argument("--matrix", required=True, metavar="FILE")
    sp.add_argument("--on", required=True, metavar="LABELS", help="comma-separated labels")

    sp = sub.add_parser("nullity", help="nullity of a matrix or principal submatrix")
    sp.add_argument("--matrix", required=True, metavar="FILE")
    sp.add_argument("--subset", metavar="LABELS")

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
    sp.add_argument("--flip", required=True, metavar="LABELS")

    sp = sub.add_parser("distribution", help="walk-count distribution over all flip sets")
    sp.add_argument("--dos", required=True, metavar="STRING")

    sp = sub.add_parser("orbit", help="pivot orbit of a graph")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--max-graphs", type=_at_least_one, default=10**6)

    sp = sub.add_parser("verify", help="randomized property verification")
    sp.add_argument("--prop", required=True, choices=VERIFY_PROPS)
    sp.add_argument("--trials", type=_at_least_one, default=100)
    sp.add_argument("--size", type=_at_least_one, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", choices=(GF2, RATIONAL), default=GF2)
    return p


def _cmd_pivot(args) -> int:
    A = parse_matrix(_read(args.matrix))
    X = SubsetMask.of(A.domain, _split_labels(args.on))
    print(format_matrix(pivot(A, X)), end="")
    return 0


def _cmd_nullity(args) -> int:
    A = parse_matrix(_read(args.matrix))
    if args.subset is not None:
        X = SubsetMask.of(A.domain, _split_labels(args.subset))
        A = principal_submatrix(A, X)
    print(nullity(A))
    return 0


def _cmd_pseq(args) -> int:
    A = parse_matrix(_read(args.matrix))
    if args.norm_only:
        print(f"norm: {format_norm(setsystems.nullity_histogram(A))}")
    else:
        print(format_partition_sequence(setsystems.partition_sequence_of(A)), end="")
    return 0


def _cmd_interlace(args) -> int:
    G = parse_graph(_read(args.graph))
    if args.method == "direct":
        qp = interlace.nullity_polynomial(G)
        q = interlace.interlace_from_nullity(qp)
    elif args.method == "recursive":
        q = interlace.interlace_recursive(G)
        qp = interlace.nullity_from_interlace(q)
    else:
        qp = interlace.nullity_polynomial(G)
        q = interlace.interlace_from_nullity(qp)
        q_rec = interlace.interlace_recursive(G)
        if q_rec != q:
            print(f"q': {qp}")
            print(f"q: {q}")
            print(f"METHOD MISMATCH: recursive gave {q_rec}")
            return 1
    print(f"q': {qp}")
    print(f"q: {q}")
    if args.method == "both":
        print("methods agree")
    return 0


def _cmd_overlap(args) -> int:
    s = circuits.parse_dos(args.dos)
    print(format_graph(circuits.overlap_graph(s)), end="")
    return 0


def _cmd_walks(args) -> int:
    s = circuits.parse_dos(args.dos)
    domain = circuits.dos_domain(s)
    X = SubsetMask.of(domain, _split_labels(args.flip))
    part = circuits.trace_partition(s, X)
    print(f"walks: {len(part)}")
    for idx, walk in enumerate(part.walks):
        print(f"walk {idx}: " + " ".join(str(a) for a in walk))
    walks, alg = circuits.cohn_lempel_check(s, X)
    ok = walks == alg
    print(f"cohn-lempel: walks={walks} nullity+1={alg} {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_distribution(args) -> int:
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
    orbit = graphs.pivot_orbit(G, max_graphs=args.max_graphs)
    print(f"orbit size {len(orbit.graphs)}")
    for idx, H in enumerate(orbit.graphs):
        print(f"graph {idx}")
        print(format_graph(H), end="")
    print("moves")
    for a, X, b in orbit.moves:
        print(f"{a} {X} {b}")
    return 0


def _verify_trial(prop: str, rng: random.Random, size: int, field: str) -> bool:
    n = rng.randint(1, size)
    if prop == "cohn-lempel":
        s = randgen.random_dos(rng, n)
        domain = circuits.dos_domain(s)
        nullities = setsystems.subset_nullities(circuits.overlap_graph(s))
        return all(
            len(circuits.trace_partition(s, SubsetMask(domain, bits))) == k + 1
            for bits, k in enumerate(nullities)
        )
    if prop == "recursion":
        if field == GF2:
            G = randgen.random_graph(rng, n)
            direct = interlace.interlace_from_nullity(interlace.nullity_polynomial(G))
            return interlace.interlace_recursive(G) == direct
        A = randgen.random_matrix(rng, RATIONAL, n)
        members = sorted(m for m in setsystems.set_system_of(A).members if m)
        if not members:
            return True  # no nonempty pivot exists; nothing to recurse on
        X = SubsetMask(A.domain, rng.choice(members))
        u = rng.choice(X.labels())
        try:
            interlace.verify_recursion(A, u, X)
        except AssertionError:
            return False
        return True
    A = randgen.random_matrix(rng, field, n)
    X = randgen.random_valid_pivot_subset(rng, A)
    if prop == "nullity-invariance":
        if field == GF2:
            before = setsystems.subset_nullities(A)
            after = setsystems.subset_nullities(pivot(A, X))
            return all(k == before[y ^ X.bits] for y, k in enumerate(after))
        Y = randgen.random_subset(rng, A.domain)
        a, b = nullity_after_pivot(A, X, Y)
        return a == b
    if prop == "tucker":
        Y = randgen.random_subset(rng, A.domain)
        return tucker_determinant_check(A, X, Y)
    if prop == "partial-inverse":
        xs = randgen.random_vector(rng, field, n)
        return verify_partial_inverse(A, X, xs)
    if prop == "twist":
        P = setsystems.partition_sequence_of(A)
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
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SingularMatrixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, OrbitOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())

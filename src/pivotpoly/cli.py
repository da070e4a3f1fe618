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

# The modules every command needs.  The rest are imported by the handlers
# that run them, so a process loads only what its command uses.
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
    from .formats import FormatError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
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


def _cmd_pivot(args) -> int:
    from .formats import format_matrix, parse_matrix

    A = parse_matrix(_read(args.matrix))
    X = SubsetMask.of(A.domain, args.on)
    print(format_matrix(pivot(A, X)), end="")
    return 0


def _cmd_nullity(args) -> int:
    from .formats import parse_matrix

    A = parse_matrix(_read(args.matrix))
    X = A.full_subset() if args.subset is None else SubsetMask.of(A.domain, args.subset)
    print(nullity_by_bits(A, X.bits))
    return 0


def _cmd_pseq(args) -> int:
    from . import setsystems
    from .formats import _partition_lines, format_norm, parse_matrix

    A = parse_matrix(_read(args.matrix))
    if args.norm_only:
        print(f"norm: {format_norm(setsystems.nullity_histogram(A))}")
    else:
        sys.stdout.writelines(_partition_lines(A.domain, setsystems.subset_nullities(A)))
    return 0


def _cmd_interlace(args) -> int:
    from . import interlace
    from .formats import parse_graph

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
    from .formats import format_graph

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
    from .formats import format_norm

    s = circuits.parse_dos(args.dos)
    dist = circuits.walk_distribution(s)
    alg = setsystems.nullity_histogram(circuits.overlap_graph(s))
    print(f"distribution: {format_norm(dist)}")
    print(f"norm: {format_norm(alg)}")
    ok = dist == alg
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_orbit(args) -> int:
    from . import graphs
    from .formats import format_orbit_blocks, parse_graph

    G = parse_graph(_read(args.graph))
    try:
        rows, moves = graphs._orbit_search(G, args.max_graphs)
    except graphs.OrbitOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.writelines(format_orbit_blocks(G.domain, rows, moves))
    return 0


def _verify_trial(prop: str, rng: random.Random, size: int, field: str) -> bool:
    from . import randgen, setsystems

    n = rng.randint(1, size)
    if prop == "cohn-lempel":
        from . import circuits

        s = randgen.random_dos(rng, n)
        nullities = setsystems.subset_nullities(circuits.overlap_graph(s))
        return circuits.walk_counts(s) == bytes([k + 1 for k in nullities])
    if prop == "recursion":
        from . import interlace

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
        P = setsystems.PartitionSequence(A.domain, bytes(before))
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


# Each command's handler, help line and arguments, in the order help lists
# them.  build_parser builds every subparser, or one, from this table.
_COMMANDS = {
    "pivot": (_cmd_pivot, "pivot a matrix on a label subset", (
        ("--matrix", dict(required=True, metavar="FILE")),
        ("--on", dict(required=True, type=_split_labels, metavar="LABELS", help="comma-separated labels")),
    )),
    "nullity": (_cmd_nullity, "nullity of a matrix or principal submatrix", (
        ("--matrix", dict(required=True, metavar="FILE")),
        ("--subset", dict(type=_split_labels, metavar="LABELS")),
    )),
    "pseq": (_cmd_pseq, "partition sequence of a matrix", (
        ("--matrix", dict(required=True, metavar="FILE")),
        ("--norm-only", dict(action="store_true")),
    )),
    "interlace": (_cmd_interlace, "interlace polynomial of a graph", (
        ("--graph", dict(required=True, metavar="FILE")),
        ("--method", dict(choices=("direct", "recursive", "both"), default="both")),
    )),
    "overlap": (_cmd_overlap, "overlap graph of a double occurrence string", (
        ("--dos", dict(required=True, metavar="STRING")),
    )),
    "walks": (_cmd_walks, "closed-walk partition induced by a flip set", (
        ("--dos", dict(required=True, metavar="STRING")),
        ("--flip", dict(required=True, type=_split_labels, metavar="LABELS")),
    )),
    "distribution": (_cmd_distribution, "walk-count distribution over all flip sets", (
        ("--dos", dict(required=True, metavar="STRING")),
    )),
    "orbit": (_cmd_orbit, "pivot orbit of a graph", (
        ("--graph", dict(required=True, metavar="FILE")),
        ("--max-graphs", dict(type=_at_least_one, default=10**6)),
    )),
    "verify": (_cmd_verify, "randomized property verification", (
        ("--prop", dict(required=True, choices=VERIFY_PROPS)),
        ("--trials", dict(type=_at_least_one, default=100)),
        ("--size", dict(type=_trial_size, default=6)),
        ("--seed", dict(type=int, default=0)),
        ("--field", dict(choices=(GF2, RATIONAL), default=GF2)),
    )),
}


class _Unparsed(Exception):
    """A one-command parser met an error; the full parser reports it."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Unparsed


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` only that one's.

    A one-command parser prints its own ``--help``, which is the full
    parser's, but raises :class:`_Unparsed` on any error in place of
    printing: its usage line would name only one command.
    """
    p = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="pivotpoly",
        description="Exact pivots, partition sequences, and interlace polynomials.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_line)
            for flag, options in arguments:
                sp.add_argument(flag, **options)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` building only the subparser of the command it names.

    No command, top-level help, an unknown command and every parse error
    go through the full parser, so each help, usage and error text is the
    full parser's.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Unparsed:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.command == "verify" and args.prop == "cohn-lempel" and args.field != GF2:
        build_parser().error("argument --field: cohn-lempel is a GF(2) property; use --field f2")
    try:
        return _COMMANDS[args.command][0](args)
    except SingularMatrixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
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

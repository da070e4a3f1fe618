"""Exact pivot algebra over GF(2) and the rationals.

Principal pivot transform on label-indexed matrices, the nullity identities
it satisfies, partition sequences and their twists, interlace polynomials by
enumeration and by recursion, and a closed-walk tracer on double occurrence
strings that cross-checks all of it.
"""

# Every command needs the pivot, and ``pivotpoly.pivot`` must be the
# function, not the submodule of the same name, so this import is eager.
from .pivot import pivot

__version__ = "0.1.0"

# The public names of each submodule.  A name is imported on first access
# (PEP 562), so a process loads only the modules it uses.
_EXPORTS = {
    "matrix": (
        "GF2",
        "RATIONAL",
        "Matrix",
        "SubsetMask",
        "SetSystem",
        "PartitionSequence",
        "SingularMatrixError",
        "PivotUndefinedError",
        "principal_submatrix",
        "delete_label",
        "rank",
        "nullity",
        "determinant",
        "inverse",
        "mat_vec",
    ),
    "pivot": (
        "pivot",
        "verify_partial_inverse",
        "nullity_after_pivot",
        "tucker_determinant_check",
    ),
    "setsystems": (
        "set_system_of",
        "partition_sequence_of",
        "twist",
        "norm",
    ),
    "graphs": (
        "graph_from_edges",
        "edges_of",
        "local_complement",
        "edge_complement",
        "elementary_pivots",
        "elementary_decomposition",
        "pivot_orbit",
        "PivotOrbit",
        "OrbitOverflowError",
    ),
    "interlace": (
        "Poly",
        "nullity_polynomial",
        "interlace_polynomial",
        "interlace_from_nullity",
        "nullity_from_interlace",
        "interlace_recursive",
    ),
    "circuits": (
        "TwoInTwoOutDigraph",
        "WalkPartition",
        "parse_dos",
        "overlap_graph",
        "digraph_of",
        "trace_partition",
        "walk_labels",
        "cohn_lempel_check",
        "walk_distribution",
        "count_euler_circuits",
        "cyclic_equal",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    """Import a public name from its submodule on first access."""
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Dominant weight posets of affine Kac-Moody root systems.

The package builds the generalized Cartan matrices of the affine diagrams
together with their marks and comarks, models dominant weights by their integer
labels and an exact delta shift, classifies the covering relations of the
dominance order, computes lattice meets and joins, assembles Hasse diagrams
of intervals and the basic cells of untwisted type A, and ships a brute
force oracle that re-derives all of it from scratch for cross checking.
"""

from .cartan import (
    AffineDiagram,
    AffineTypeId,
    FiniteType,
    build_affine,
    catalog_types,
    classify_finite,
    parse_type_id,
)
from .roots import (
    CoverCandidate,
    CoverKind,
    RootVector,
    cover_root_lookup,
    cover_root_set,
    coroot_pairing,
    delta_root,
    highest_short_root,
    is_real_root,
    simple_reflection,
    simple_root,
    sym_length_sq,
)
from .weights import (
    ComponentMismatchError,
    Weight,
    add_root,
    delta_shift,
    difference,
    dominance_leq,
    format_shift,
    fundamental_weight,
    is_dominant,
    join,
    labels,
    meet,
    parse_shift,
    sort_key,
    weight_from_json,
    weight_from_labels,
    weight_to_json,
)
from .covering import (
    CoverEdge,
    NonPositiveLevelError,
    cocovers,
    covers,
    edge_from_json,
    edge_to_json,
    is_delta_cocover,
    special_vertices,
)

__version__ = "0.1.0"

# The oracle (and numpy with it) and the poset module load on first use of
# one of their names.  Each lookup reads the module, so no copy here outlives
# a patch of it.
_LAZY = {
    **dict.fromkeys((
        "BoxTooLargeError", "BruteBounds", "BruteCocovers", "SearchWindow",
        "VerificationReport", "WindowExhaustedError", "brute_bounds",
        "brute_cocovers", "default_window", "verify_covering",
    ), "oracle"),
    **dict.fromkeys((
        "Cell", "CellMismatchError", "CellShape", "IncomparableError",
        "IntervalTooLargeError", "PosetGraph", "basic_cell", "export_graph",
        "graph_from_json", "interval",
    ), "poset"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "AffineDiagram",
    "AffineTypeId",
    "FiniteType",
    "build_affine",
    "catalog_types",
    "classify_finite",
    "parse_type_id",
    "CoverCandidate",
    "CoverKind",
    "RootVector",
    "cover_root_lookup",
    "cover_root_set",
    "coroot_pairing",
    "delta_root",
    "highest_short_root",
    "is_real_root",
    "simple_reflection",
    "simple_root",
    "sym_length_sq",
    "ComponentMismatchError",
    "Weight",
    "add_root",
    "delta_shift",
    "difference",
    "dominance_leq",
    "format_shift",
    "fundamental_weight",
    "is_dominant",
    "join",
    "labels",
    "meet",
    "parse_shift",
    "sort_key",
    "weight_from_json",
    "weight_from_labels",
    "weight_to_json",
    "CoverEdge",
    "NonPositiveLevelError",
    "cocovers",
    "covers",
    "edge_from_json",
    "edge_to_json",
    "is_delta_cocover",
    "special_vertices",
    "BoxTooLargeError",
    "BruteBounds",
    "BruteCocovers",
    "SearchWindow",
    "VerificationReport",
    "WindowExhaustedError",
    "brute_bounds",
    "brute_cocovers",
    "default_window",
    "verify_covering",
    "Cell",
    "CellMismatchError",
    "CellShape",
    "IncomparableError",
    "IntervalTooLargeError",
    "PosetGraph",
    "basic_cell",
    "export_graph",
    "graph_from_json",
    "interval",
    "__version__",
]

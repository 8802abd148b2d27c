"""Dominant weight posets of affine Kac-Moody root systems.

The package builds the generalized Cartan matrices of the affine diagrams
together with their marks and comarks, models dominant weights by their integer
labels and an exact delta shift, classifies the covering relations of the
dominance order, computes lattice meets and joins, assembles Hasse diagrams
of intervals and the basic cells of untwisted type A, and ships a brute
force oracle that re-derives all of it from scratch for cross checking.
"""

import importlib
import sys

__version__ = "0.1.0"

# Every public name is served by the module that defines it, loaded on the
# first use of one of its names.  Each lookup reads the module, so no copy
# here outlives a patch of it.  This is the one list of public names: each
# module reads its ``__all__`` off it.
_LAZY = {
    **dict.fromkeys((
        "AffineDiagram", "AffineTypeId", "FiniteType", "RankTooLargeError",
        "build_affine", "catalog_types", "classify_finite", "format_shift",
        "parse_type_id", "special_vertices",
    ), "cartan"),
    **dict.fromkeys((
        "CoverCandidate", "CoverKind", "RootVector", "coroot_pairing",
        "cover_root_lookup", "cover_root_set", "delta_root",
        "highest_short_root", "is_real_root", "simple_reflection",
        "simple_root", "sym_length_sq",
    ), "roots"),
    **dict.fromkeys((
        "ComponentMismatchError", "Weight", "add_root", "delta_shift",
        "difference", "dominance_leq", "fundamental_weight", "is_dominant",
        "join", "labels", "meet", "parse_shift", "sort_key",
        "weight_from_json", "weight_from_labels", "weight_to_json",
    ), "weights"),
    **dict.fromkeys((
        "CoverEdge", "NonPositiveLevelError", "cocovers", "covers",
        "edge_from_json", "edge_to_json", "is_delta_cocover",
    ), "covering"),
    **dict.fromkeys((
        "BoxTooLargeError", "BruteBounds", "BruteCocovers", "SearchWindow",
        "TooManySamplesError", "VerificationReport", "WindowExhaustedError",
        "brute_bounds", "brute_cocovers", "default_window", "verify_covering",
    ), "oracle"),
    **dict.fromkeys((
        "Cell", "CellMismatchError", "CellShape", "IncomparableError",
        "IntervalTooLargeError", "PosetGraph", "basic_cell", "export_graph",
        "graph_from_json", "interval",
    ), "poset"),
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{module}"
    loaded = sys.modules.get(path) or importlib.import_module(path)
    return getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})

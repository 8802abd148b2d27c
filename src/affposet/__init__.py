"""Dominant weight posets of affine Kac-Moody root systems.

The package builds the generalized Cartan matrices of the affine diagrams
together with their marks and comarks, models dominant weights by their integer
labels and an exact delta shift, classifies the covering relations of the
dominance order, computes lattice meets and joins, assembles Hasse diagrams
of intervals and the basic cells of untwisted type A, and ships a brute
force oracle that re-derives all of it from scratch for cross checking.
"""

from . import cartan, covering, roots, weights
from .cartan import *
from .roots import *
from .weights import *
from .covering import *

__version__ = "0.1.0"

# The oracle and the poset module load on first use of one of their names.
# Each lookup reads the module, so no copy here outlives a patch of it.
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
    *cartan.__all__,
    *roots.__all__,
    *weights.__all__,
    *covering.__all__,
    *_LAZY,
    "__version__",
]

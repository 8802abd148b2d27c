"""Spans around affposet's public functions, installed from outside the package.

:func:`install` replaces each function named in :data:`TRACED` by a wrapper,
in every affposet module namespace that binds it.  A caller therefore meets
the wrapper wherever it looks the function up: ``affposet.poset.cocovers``
inside ``interval``, ``affposet.covering.cocovers`` inside the oracle's
checker, ``affposet.cocovers`` in the benchmark itself.  Each call records
one span (name, start, end, parent span) in flat arrays kept in
memory; :meth:`Tracer.write` saves them when the run ends.

The same wrappers record counts at the boundaries where the work happens.
Counts marked "computed" in :data:`COUNTS` are derived from sizes the
wrapper can see (a diagram's vertex count, a search window's bounds), not
measured inside the library.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import time
from array import array

MODULES = (
    "affposet",
    "affposet.cartan",
    "affposet.roots",
    "affposet.weights",
    "affposet.covering",
    "affposet.poset",
    "affposet.oracle",
    "affposet.cli",
)

# "<layer>.<function>": the layer is the affposet module that defines it.
TRACED = (
    "cartan.build_affine",
    "roots.cover_root_set",
    "roots.highest_short_root",
    "weights.weight_from_labels",
    "weights.labels",
    "weights.is_dominant",
    "weights.dominance_leq",
    "weights.meet",
    "weights.join",
    "weights.weight_to_json",
    "weights.weight_from_json",
    "covering.cocovers",
    "covering.covers",
    "covering.is_delta_cocover",
    "poset.interval",
    "poset.basic_cell",
    "poset.export_graph",
    "oracle.verify_covering",
    "oracle.brute_cocovers",
    "oracle.brute_bounds",
    "cli.run",
)

COUNTS = {
    "roots.candidates": "cover candidates returned by cover_root_set cache misses",
    "roots.subsets_scanned": "computed: 2^(n+1) - 2 vertex subsets per cover_root_set cache miss",
    "roots.connected_subsets": "simple and short candidates, one per connected proper subset;"
    " reported only as roots.candidate_yield",
    "covering.cocovers.edges": "edges returned by cocovers",
    "covering.cocovers.tried": "computed: candidates of the diagram per cocovers call",
    "poset.interval.nodes": "nodes of the graphs interval returned",
    "poset.interval.edges": "edges of the graphs interval returned",
    "poset.basic_cell.mismatches": "CellMismatchError raised by basic_cell",
    "oracle.box_rows": "computed: product of (bound + 1) over the window per box search",
    "oracle.window_doublings": "WindowExhaustedError raised by brute_bounds",
}


class Tracer:
    """Spans and counts of one process, in flat arrays."""

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]

    def wrap(self, index: int, fn, hook=None):
        name, parent = self.name, self.parent
        start, end, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                end[span] = clock()
                stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, None, error)
                raise
            end[span] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result, None)
            return result

        return traced

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans, from a child process."""
        offset = len(self.start)
        self.name.extend(other.name)
        self.parent.extend(array("q", (p + offset if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        for key, value in other.counts.items():
            self.counts[key] += value

    def summary(self) -> dict:
        """Calls, busy seconds and self seconds per traced function.

        Self time is a span's duration minus the durations of its direct
        child spans; the library is single threaded, so children never
        overlap one another.
        """
        size = len(self.start)
        child = [0.0] * size
        for span in range(size):
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        calls = [0] * len(TRACED)
        busy = [0.0] * len(TRACED)
        own = [0.0] * len(TRACED)
        for span in range(size):
            k = self.name[span]
            duration = self.end[span] - self.start[span]
            calls[k] += 1
            busy[k] += duration
            own[k] += duration - child[span]
        return {
            fn: {"calls": calls[k], "busy_s": busy[k], "self_s": own[k]}
            for k, fn in enumerate(TRACED)
        }

    def to_dict(self) -> dict:
        return {
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": self.counts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.name.extend(data["name"])
        tracer.parent.extend(data["parent"])
        tracer.start.extend(data["start"])
        tracer.end.extend(data["end"])
        tracer.counts.update(data["counts"])
        return tracer

    def write(self, path) -> None:
        """One tab separated line per span: span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_s\tend_s\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span}\t{self.parent[span]}\t"
                    f"{TRACED[self.name[span]]}\t{self.start[span]!r}\t{self.end[span]!r}\n"
                )


def _hooks(ap, originals: dict) -> dict:
    """Count hooks keyed by traced name; they call only untraced originals."""
    cover_root_set = originals["roots.cover_root_set"]
    misses = [cover_root_set.cache_info().misses]

    def on_cover_root_set(counts, args, kwargs, result, error):
        now = cover_root_set.cache_info().misses
        if error is None and now > misses[0]:
            misses[0] = now
            diagram = args[0] if args else kwargs["diagram"]
            counts["roots.candidates"] += len(result)
            counts["roots.subsets_scanned"] += 2 ** (diagram.n + 1) - 2
            counts["roots.connected_subsets"] += sum(
                1 for c in result if c.kind in (ap.CoverKind.SIMPLE, ap.CoverKind.SHORT)
            )

    def on_cocovers(counts, args, kwargs, result, error):
        if error is None:
            weight = args[0] if args else kwargs["weight"]
            counts["covering.cocovers.edges"] += len(result)
            counts["covering.cocovers.tried"] += len(cover_root_set(weight.diagram))

    def on_interval(counts, args, kwargs, result, error):
        if error is None:
            counts["poset.interval.nodes"] += len(result.nodes)
            counts["poset.interval.edges"] += len(result.edges)

    def on_basic_cell(counts, args, kwargs, result, error):
        if isinstance(error, ap.CellMismatchError):
            counts["poset.basic_cell.mismatches"] += 1

    def box_rows(counts, weight, window):
        if window is None:
            window = ap.default_window(weight.diagram)
        counts["oracle.box_rows"] += math.prod(b + 1 for b in window.bounds)

    def on_brute_cocovers(counts, args, kwargs, result, error):
        box_rows(counts, args[0], args[1] if len(args) > 1 else kwargs.get("window"))

    def on_brute_bounds(counts, args, kwargs, result, error):
        box_rows(counts, args[0], args[2] if len(args) > 2 else kwargs.get("window"))
        if isinstance(error, ap.WindowExhaustedError):
            counts["oracle.window_doublings"] += 1

    return {
        "roots.cover_root_set": on_cover_root_set,
        "covering.cocovers": on_cocovers,
        "poset.interval": on_interval,
        "poset.basic_cell": on_basic_cell,
        "oracle.brute_cocovers": on_brute_cocovers,
        "oracle.brute_bounds": on_brute_bounds,
    }


def install(tracer: Tracer):
    """Route every affposet lookup of a traced function through its wrapper.

    Returns a function that puts the original functions back.
    """
    ap = importlib.import_module("affposet")
    modules = [importlib.import_module(m) for m in MODULES]
    originals = {
        fn: getattr(importlib.import_module("affposet." + fn.split(".")[0]), fn.split(".")[1])
        for fn in TRACED
    }
    hooks = _hooks(ap, originals)
    replaced = []
    for index, fn in enumerate(TRACED):
        original = originals[fn]
        wrapper = tracer.wrap(index, original, hooks.get(fn))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, original))

    def uninstall() -> None:
        for module, key, original in replaced:
            setattr(module, key, original)

    return uninstall

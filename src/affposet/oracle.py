"""Brute force verification of the covering and lattice structure.

The searches here know nothing about the classification of covers: they
enumerate a whole box of root-vector offsets, keep the dominant results, and
extract extremal elements by componentwise comparison.  The covering module
is imported only inside :func:`verify_covering`, which is the comparator;
the brute searches themselves must stay independent of it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cartan import AffineDiagram, build_affine, parse_type_id
from .roots import RootVector, cover_root_lookup, delta_root
from .weights import (
    ComponentMismatchError,
    Weight,
    add_root,
    difference,
    format_shift,
    is_dominant,
    meet,
    join,
    weight_from_labels,
)

__all__ = [
    "WindowExhaustedError",
    "SearchWindow",
    "default_window",
    "BruteCocovers",
    "BruteBounds",
    "brute_cocovers",
    "brute_bounds",
    "VerificationReport",
    "verify_covering",
]


class WindowExhaustedError(RuntimeError):
    """The search window was too small to certify an answer."""


@dataclass(frozen=True)
class SearchWindow:
    """Inclusive upper bounds for nonnegative root-vector offsets."""

    bounds: tuple

    def __post_init__(self) -> None:
        bounds = tuple(int(b) for b in self.bounds)
        if not bounds or any(b < 1 for b in bounds):
            raise ValueError(f"window bounds must be positive, got {bounds}")
        object.__setattr__(self, "bounds", bounds)

    def doubled(self) -> "SearchWindow":
        return SearchWindow(tuple(2 * b for b in self.bounds))


def default_window(diagram: AffineDiagram) -> SearchWindow:
    """Twice the marks: strictly contains every candidate cover difference."""
    return SearchWindow(tuple(2 * a for a in diagram.marks))


_GRID_CACHE: dict = {}


def _grid(diagram: AffineDiagram, window: SearchWindow):
    """All offsets in the window and their effect on coroot values."""
    key = (str(diagram.type_id), window.bounds)
    hit = _GRID_CACHE.get(key)
    if hit is not None:
        return hit
    axes = [np.arange(b + 1, dtype=np.int64) for b in window.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    betas = np.stack(mesh, axis=-1).reshape(-1, len(axes))
    a = np.array(diagram.cartan, dtype=np.int64)
    label_delta = betas @ a.T
    _GRID_CACHE[key] = (betas, label_delta)
    return betas, label_delta


def _minimal_rows(rows):
    """Indices of componentwise-minimal rows (rows are pairwise distinct)."""
    count = len(rows)
    if count <= 1500:
        leq = (rows[:, None, :] <= rows[None, :, :]).all(axis=-1)
        below = leq & ~np.eye(count, dtype=bool)
        return np.flatnonzero(~below.any(axis=0))
    keep = []
    for r in range(count):
        if int((rows <= rows[r]).all(axis=1).sum()) == 1:
            keep.append(r)
    return np.array(keep, dtype=np.int64)


@dataclass(frozen=True)
class BruteCocovers:
    cocovers: tuple
    differences: tuple
    boundary: tuple


def brute_cocovers(weight: Weight, window: SearchWindow | None = None) -> BruteCocovers:
    """Maximal dominant weights strictly below the input, by box search.

    Any weight between a candidate and the input differs from the input by a
    smaller nonnegative offset, which also lies in the window, so a result
    that is maximal within the window is a genuine cocover.  A result whose
    offset touches the window boundary is flagged: offsets outside the
    window were never compared against it.
    """
    if not is_dominant(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    diagram = weight.diagram
    if window is None:
        window = default_window(diagram)
    if len(window.bounds) != diagram.n + 1:
        raise ValueError("window rank does not match the diagram")
    betas, label_delta = _grid(diagram, window)
    labs = np.array(weight.labels, dtype=np.int64)
    dominant = (labs[None, :] - label_delta >= 0).all(axis=1)
    dominant &= (betas != 0).any(axis=1)
    candidates = betas[dominant]
    if len(candidates) == 0:
        return BruteCocovers((), (), ())
    minimal = candidates[_minimal_rows(candidates)]
    order = sorted(range(len(minimal)), key=lambda r: tuple(minimal[r]))
    bounds = np.array(window.bounds, dtype=np.int64)
    lowers, diffs, flags = [], [], []
    for r in order:
        beta = minimal[r]
        diff = RootVector(diagram, tuple(int(b) for b in beta))
        lowers.append(add_root(weight, -diff))
        diffs.append(diff)
        flags.append(bool((beta == bounds).any()))
    return BruteCocovers(tuple(lowers), tuple(diffs), tuple(flags))


@dataclass(frozen=True)
class BruteBounds:
    glb: Weight
    lub: Weight


def _corner_weights(a: Weight, gap: tuple):
    """Componentwise minimum and maximum of a and b, given gap = a - b."""
    lo = add_root(a, RootVector(a.diagram, tuple(-max(0, g) for g in gap)))
    hi = add_root(a, RootVector(a.diagram, tuple(max(0, -g) for g in gap)))
    return lo, hi


def brute_bounds(a: Weight, b: Weight, window: SearchWindow | None = None) -> BruteBounds:
    """Greatest lower and least upper bound of two dominant weights.

    Lower bounds sit under the componentwise minimum of the coefficients and
    upper bounds over the maximum, so both searches scan a box of offsets
    from those corners.  For the least upper bound the componentwise minimum
    of two dominant candidates is again a dominant candidate below both, so
    a minimal candidate is automatically the global minimum; the search is
    exact whenever the box is nonempty.
    """
    gap = difference(a, b)
    for g in gap:
        if g.denominator != 1:
            raise ComponentMismatchError(
                f"coefficients differ by the non-integer {g}"
            )
    if not (is_dominant(a) and is_dominant(b)):
        raise ValueError("bounds are searched for dominant integral weights")
    diagram = a.diagram
    if window is None:
        window = default_window(diagram)
    betas, label_delta = _grid(diagram, window)
    bounds = np.array(window.bounds, dtype=np.int64)
    corner_lo, corner_hi = _corner_weights(a, tuple(g.numerator for g in gap))

    lo_labs = np.array(corner_lo.labels, dtype=np.int64)
    down_ok = (lo_labs[None, :] - label_delta >= 0).all(axis=1)
    down = betas[down_ok]
    if len(down) == 0:
        raise WindowExhaustedError("no dominant lower bound within the window")
    down_min = down[_minimal_rows(down)]
    if len(down_min) != 1:
        raise RuntimeError(
            "lower bounds have no greatest element: "
            + ", ".join(str(tuple(map(int, r))) for r in down_min)
        )
    gamma = down_min[0]
    if not (down >= gamma).all():
        raise RuntimeError("lower bound search found incomparable maxima")
    if gamma.any() and bool((gamma == bounds).any()):
        raise WindowExhaustedError("greatest lower bound touches the window")
    glb = add_root(corner_lo, -RootVector(diagram, tuple(int(v) for v in gamma)))

    hi_labs = np.array(corner_hi.labels, dtype=np.int64)
    up_ok = (hi_labs[None, :] + label_delta >= 0).all(axis=1)
    up = betas[up_ok]
    if len(up) == 0:
        raise WindowExhaustedError("no dominant upper bound within the window")
    up_min = up[_minimal_rows(up)]
    if len(up_min) != 1:
        raise RuntimeError(
            "upper bounds have two incomparable minima: "
            + ", ".join(str(tuple(map(int, r))) for r in up_min)
        )
    lub = add_root(corner_hi, RootVector(diagram, tuple(int(v) for v in up_min[0])))
    return BruteBounds(glb, lub)


@dataclass(frozen=True)
class VerificationReport:
    type: str
    levels: tuple
    tested: int
    mismatches: tuple
    boundary_flags: int
    elapsed: float = field(compare=False, default=0.0)
    budget_exceeded: bool = field(compare=False, default=False)

    def to_json(self) -> dict:
        return {
            "type": self.type,
            "levels": list(self.levels),
            "tested": self.tested,
            "mismatches": list(self.mismatches),
            "boundary_flags": self.boundary_flags,
        }


def _census_labels(diagram: AffineDiagram, max_sum: int = 3):
    """All nonzero label vectors with entry sum at most max_sum."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == diagram.n + 1:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], max_sum)
    return out


def _sample_labels(diagram: AffineDiagram, target_level: int, rng: random.Random):
    labs = [0] * (diagram.n + 1)
    remaining = target_level
    while remaining > 0:
        choices = [j for j in diagram.vertices if diagram.comarks[j] <= remaining]
        j = rng.choice(choices)
        labs[j] += 1
        remaining -= diagram.comarks[j]
    return tuple(labs)


def _dominant_repair(weight: Weight) -> Weight:
    # smallest dominant weight above the input; reimplemented here so the
    # pair generator does not lean on the lattice code it is checking
    diagram = weight.diagram
    while True:
        bad = [j for j, e in enumerate(weight.labels) if e < 0]
        if not bad:
            return weight
        j = bad[0]
        step = [(1 - weight.labels[j]) // 2 if i == j else 0 for i in diagram.vertices]
        weight = add_root(weight, RootVector(diagram, step))


def _weight_key(weight: Weight):
    return (weight.labels, format_shift(weight.shift))


def _check_one(weight, window, mismatches, flags_total):
    from . import covering

    record = {
        "labels": list(_weight_key(weight)[0]),
        "shift": _weight_key(weight)[1],
    }
    bc = brute_cocovers(weight, window)
    flags_total += sum(1 for f in bc.boundary if f)
    for f, diff in zip(bc.boundary, bc.differences):
        if f:
            mismatch = dict(record)
            mismatch["check"] = "boundary"
            mismatch["detail"] = f"offset {list(diff.coeffs)} touches the window"
            mismatches.append(mismatch)
    theory = covering.cocovers(weight)
    brute_set = {_weight_key(w) for w in bc.cocovers}
    theory_set = {_weight_key(e.lower) for e in theory}
    if brute_set != theory_set:
        mismatch = dict(record)
        mismatch["check"] = "cocovers"
        mismatch["detail"] = (
            f"brute {sorted(brute_set)} vs classified {sorted(theory_set)}"
        )
        mismatches.append(mismatch)
    lookup = cover_root_lookup(weight.diagram)
    for diff in bc.differences:
        if diff.coeffs not in lookup:
            mismatch = dict(record)
            mismatch["check"] = "difference"
            mismatch["detail"] = f"{list(diff.coeffs)} is not a candidate root"
            mismatches.append(mismatch)
    marks = weight.diagram.marks
    delta_brute = any(diff.coeffs == marks for diff in bc.differences)
    if covering.is_delta_cocover(weight) != delta_brute:
        mismatch = dict(record)
        mismatch["check"] = "delta"
        mismatch["detail"] = f"classified {not delta_brute}, brute {delta_brute}"
        mismatches.append(mismatch)
    return flags_total


def _check_pair(weight, partner, window, mismatches):
    record = {
        "labels": list(_weight_key(weight)[0]),
        "shift": _weight_key(weight)[1],
        "partner": list(_weight_key(partner)[0]),
        "partner_shift": _weight_key(partner)[1],
    }
    search = window
    bb = None
    for _ in range(5):
        try:
            bb = brute_bounds(weight, partner, search)
            break
        except WindowExhaustedError:
            search = search.doubled()
    if bb is None:
        mismatch = dict(record)
        mismatch["check"] = "bounds"
        mismatch["detail"] = "window exhausted"
        mismatches.append(mismatch)
        return
    if _weight_key(bb.glb) != _weight_key(meet(weight, partner)):
        mismatch = dict(record)
        mismatch["check"] = "meet"
        mismatch["detail"] = f"brute {_weight_key(bb.glb)}"
        mismatches.append(mismatch)
    if _weight_key(bb.lub) != _weight_key(join(weight, partner)):
        mismatch = dict(record)
        mismatch["check"] = "join"
        mismatch["detail"] = f"brute {_weight_key(bb.lub)}"
        mismatches.append(mismatch)


def verify_covering(
    type_id,
    levels=(1, 2, 3),
    samples_per_level: int = 200,
    seed: int = 0,
    window: SearchWindow | None = None,
    budget: float | None = None,
) -> VerificationReport:
    """Compare the classified covers against brute force on one diagram.

    Runs a census of every label vector with entry sum at most three plus
    seeded random samples at each requested level, checking the cocover set,
    membership of the differences in the candidate set, the delta-cocover
    test, and meet/join against the box searches.
    """
    diagram = build_affine(parse_type_id(type_id)) if not isinstance(
        type_id, AffineDiagram
    ) else type_id
    if window is None:
        window = default_window(diagram)
    start = time.monotonic()
    mismatches: list = []
    flags = 0
    tested = 0
    exceeded = False

    def out_of_time() -> bool:
        return budget is not None and time.monotonic() - start > budget

    for labs in _census_labels(diagram):
        if out_of_time():
            exceeded = True
            break
        weight = weight_from_labels(diagram, labs)
        if weight.m <= 0:
            continue
        flags = _check_one(weight, window, mismatches, flags)
        tested += 1
    for lvl in levels:
        if exceeded:
            break
        rng = random.Random(f"{seed}:{diagram.type_id}:{lvl}")
        for _ in range(samples_per_level):
            if out_of_time():
                exceeded = True
                break
            labs = _sample_labels(diagram, lvl, rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            weight = weight_from_labels(diagram, labs, shift)
            flags = _check_one(weight, window, mismatches, flags)
            offsets = [rng.randint(-2, 2) for _ in diagram.vertices]
            partner = _dominant_repair(
                add_root(weight, RootVector(diagram, offsets))
            )
            _check_pair(weight, partner, window, mismatches)
            tested += 1
    return VerificationReport(
        type=str(diagram.type_id),
        levels=tuple(levels),
        tested=tested,
        mismatches=tuple(mismatches),
        boundary_flags=flags,
        elapsed=time.monotonic() - start,
        budget_exceeded=exceeded,
    )

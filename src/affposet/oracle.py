"""Brute force verification of the covering and lattice structure.

The searches here know nothing about the classification of covers: one
depth-first search, ``_minimal_offsets``, walks the root-vector offsets of a
window and returns the componentwise-minimal ones whose result is dominant.
The covering module is imported only inside ``_check_one``, which compares
the two; the brute searches themselves must stay independent of it.

``brute_bounds`` searches only above two weights: their greatest lower bound
is the coefficient-minimum corner, tested for dominance, and the root vector
between them is first checked against the Cartan matrix.  A sweep's pair
check computes that root vector, the gap, once and hands the same one to the
bounds search and to the meet and join it checks.

The search reads only the Cartan matrix.  It assigns one vertex at a time
and keeps, for each label, how far the vertices still unassigned could
raise it, so each vertex's feasible values form one interval; an offset
above a minimum already found is cut.  A search past its bound on nodes
visited or on vertices raises ``BoxTooLargeError``.

A sweep works on integer labels: the search depends on the labels alone, so
:func:`verify_covering` runs it once per label tuple within a call, and
builds the brute lower ends as (labels, shift) pairs.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from operator import eq, le, mul, sub

from . import _LAZY
from .cartan import AffineDiagram, _Value, build_affine, format_shift, parse_type_id
from .roots import RootVector, cover_root_lookup
from .weights import (
    Weight,
    _add_columns,
    _gap_join,
    _gap_meet,
    _moved,
    _plus_delta,
    _require_component,
    is_dominant,
    weight_from_labels,
)

__all__ = [name for name, home in _LAZY.items() if home == "oracle"]


class WindowExhaustedError(RuntimeError):
    """The search window was too small to certify an answer."""


class BoxTooLargeError(ValueError):
    """A search would visit more nodes or vertices than one search may."""


# Sweeps at levels 1-3 (1-2 from rank 7 on) of the catalog, E6-1, E7-1,
# E8-1, B12-1, C12-1, D12-1 and A20-1, in their default and doubled windows,
# visit at most 9682 nodes per search (E8-1, doubled window)
_MAX_SEARCH_NODES = 1 << 21
# one recursion frame per vertex, well under the interpreter's default limit of 1000
_MAX_SEARCH_VERTICES = 512


class SearchWindow(_Value):
    """Inclusive upper bounds for nonnegative root-vector offsets."""

    __slots__ = _fields = ("bounds",)

    def __init__(self, bounds) -> None:
        bounds = tuple(bounds)
        for b in bounds:
            if type(b) is not int:
                raise TypeError(f"window bounds must be ints, got {b!r}")
        if not bounds or any(b < 1 for b in bounds):
            raise ValueError(f"window bounds must be positive, got {bounds}")
        super().__init__(bounds)

    def doubled(self) -> "SearchWindow":
        return SearchWindow(tuple(2 * b for b in self.bounds))


def default_window(diagram: AffineDiagram) -> SearchWindow:
    """Twice the marks: strictly contains every candidate cover difference."""
    return SearchWindow(tuple(2 * a for a in diagram.marks))


def _window_bounds(diagram: AffineDiagram, window: SearchWindow) -> tuple:
    if len(window.bounds) != diagram.n + 1:
        raise ValueError("window rank does not match the diagram")
    return window.bounds


@functools.lru_cache(maxsize=None)
def _plan(diagram: AffineDiagram, bounds: tuple, sign: int) -> tuple:
    """One step per vertex v, in breadth-first order from vertex 0.

    A step is (v, bound of v, rising, falling, column).  ``column`` pairs
    each u in v's closed neighbourhood with sign * a[u][v], the change of
    u's label per unit of gamma_v.  ``rising`` and ``falling`` split it by
    sign, each entry with the change's size and u's slack: the most u's
    label can still rise through the vertices after v.  The steps are built
    last to first, so the slacks add up one column at a time.
    """
    order = [0]
    for v in order:
        order.extend(w for w in diagram.adjacency[v] if w not in order)
    plan, slack = [], [0] * len(order)
    for v in reversed(order):
        column = tuple((u, sign * x) for u, x in diagram.columns[v])
        rising = tuple((u, c, slack[u]) for u, c in column if c > 0)
        falling = tuple((u, -c, slack[u]) for u, c in column if c < 0)
        plan.append((v, bounds[v], rising, falling, column))
        for u, c, _ in rising:
            slack[u] += c * bounds[v]
    return tuple(reversed(plan))


def _minimal_offsets(diagram: AffineDiagram, bounds: tuple, labs, sign: int) -> list:
    """The minimal nonzero offsets 0 <= gamma <= bounds with labs + sign *
    A gamma >= 0, in lexicographic order (vertex 0 most significant).

    A depth-first search assigns gamma vertex by vertex along ``_plan``.
    The values at v that leave every label it touches able to end up
    nonnegative form an interval, and they are tried in increasing order,
    so an offset below another is always reached first.  Unassigned entries
    are zero, so once a minimum already found lies below the partial offset
    it lies below every completion, and the larger values at v are cut too.
    At the last vertex every label is settled: the first nonzero value
    there that is not cut is a new minimum.
    """
    if len(bounds) > _MAX_SEARCH_VERTICES:
        raise BoxTooLargeError(
            f"{diagram} search recurses through {len(bounds)} > {_MAX_SEARCH_VERTICES} vertices"
        )
    plan = _plan(diagram, bounds, sign)
    last = len(plan) - 1
    cur, gamma, minima = list(labs), [0] * len(plan), []
    nodes = 0

    def visit(k):
        nonlocal nodes
        nodes += 1
        if nodes > _MAX_SEARCH_NODES:
            raise BoxTooLargeError(
                f"the search of window {list(bounds)} visits more than "
                f"{_MAX_SEARCH_NODES} nodes"
            )
        v, hi, rising, falling, column = plan[k]
        lo = 0
        for u, c, slack in rising:
            least = -((cur[u] + slack) // c)
            if least > lo:
                lo = least
        for u, c, slack in falling:
            most = (cur[u] + slack) // c
            if most < hi:
                hi = most
        if k == last:
            if lo == 0 and not any(gamma):
                lo = 1
            if lo <= hi:
                gamma[v] = lo
                if not (minima and any(all(map(le, m, gamma)) for m in minima)):
                    minima.append(tuple(gamma))
                gamma[v] = 0
            return
        if lo > hi:
            return
        for u, c in column:
            cur[u] += c * lo
        d = lo
        while True:
            gamma[v] = d
            if d and minima and any(all(map(le, m, gamma)) for m in minima):
                break
            visit(k + 1)
            if d == hi:
                break
            d += 1
            for u, c in column:
                cur[u] += c
        for u, c in column:
            cur[u] -= c * d
        gamma[v] = 0

    visit(0)
    return sorted(minima)


def _brute_lowers(diagram: AffineDiagram, window: SearchWindow, labs) -> list:
    """The minimal nonzero offsets beta of the window with labs - A beta
    dominant, in lexicographic order, each paired with those labels."""
    return [
        (beta, tuple(_add_columns(diagram, labs, [-c for c in beta])))
        for beta in _minimal_offsets(diagram, _window_bounds(diagram, window), labs, -1)
    ]


class BruteCocovers(_Value):
    __slots__ = _fields = ("cocovers", "differences", "boundary")


def brute_cocovers(weight: Weight, window: SearchWindow | None = None) -> BruteCocovers:
    """Maximal dominant weights strictly below the input, by brute search.

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
    found = _brute_lowers(diagram, window, weight.labels)
    mark0 = diagram.marks[0]
    return BruteCocovers(
        tuple(
            Weight(diagram, lower, _plus_delta(weight.shift, -beta[0], mark0))
            for beta, lower in found
        ),
        tuple(RootVector(diagram, beta) for beta, _ in found),
        tuple(any(map(eq, beta, window.bounds)) for beta, _ in found),
    )


class BruteBounds(_Value):
    __slots__ = _fields = ("glb", "lub")


def brute_bounds(a: Weight, b: Weight, window: SearchWindow | None = None) -> BruteBounds:
    """Greatest lower and least upper bound of two dominant weights.

    The root vector a - b, the gap, comes from the helper ``meet`` and
    ``join`` use, so it is first checked against the Cartan matrix: its
    columns must add up to the label difference, and its vertex 0
    coefficient over the mark to the shift difference, which only the true
    gap does.  A sweep's pair check computes the gap once and passes it to
    this search and to the meet and join it compares.

    The greatest lower bound is the coefficient-minimum corner, which lies
    below both weights and above every lower bound; the meet theorem makes
    it dominant, and that is tested.  The least upper bound is the
    coefficient-maximum corner when that is dominant, and otherwise is
    searched for among the window's offsets above it.  The componentwise
    minimum of two dominant candidates is again one, so a minimal candidate
    is the global minimum, and the search is exact whenever it finds one.

    A failed gap check, a corner that is not dominant, or upper bounds with
    two minima raise ``RuntimeError``.
    """
    return _gap_bounds(a, b, _require_component(a, b), window)


def _gap_bounds(a: Weight, b: Weight, gap, window: SearchWindow | None) -> BruteBounds:
    """``brute_bounds`` of a and b, given the gap a - b to check."""
    diagram = a.diagram
    if window is None:
        window = default_window(diagram)
    mark0 = diagram.marks[0]
    change = [sum(map(mul, row, gap)) for row in diagram.cartan]
    s, t = a.shift, b.shift
    # gap[0] / mark0 == s - t, cross-multiplied
    shift_ok = gap[0] * s.denominator * t.denominator == (
        s.numerator * t.denominator - t.numerator * s.denominator
    ) * mark0
    if change != list(map(sub, a.labels, b.labels)) or not shift_ok:
        raise RuntimeError(f"gap {list(gap)} does not give the label and shift differences")
    lo = [-max(0, g) for g in gap]
    hi = [max(0, -g) for g in gap]
    corner_lo = _add_columns(diagram, a.labels, lo)
    if min(corner_lo) < 0:
        raise RuntimeError(f"the coefficient minimum {corner_lo} is not dominant")
    glb = Weight(diagram, corner_lo, _plus_delta(a.shift, lo[0], mark0))

    bounds = _window_bounds(diagram, window)
    corner_hi = _add_columns(diagram, a.labels, hi)
    if min(corner_hi) >= 0:
        beta = (0,) * len(hi)
    else:
        minima = _minimal_offsets(diagram, bounds, corner_hi, 1)
        if not minima:
            raise WindowExhaustedError("no dominant upper bound within the window")
        if len(minima) > 1:
            listed = ", ".join(map(str, minima))
            raise RuntimeError(f"upper bounds have two incomparable minima: {listed}")
        beta = minima[0]
    lub = Weight(
        diagram,
        _add_columns(diagram, corner_hi, beta),
        _plus_delta(a.shift, hi[0] + beta[0], mark0),
    )
    return BruteBounds(glb, lub)


class VerificationReport(_Value):
    __slots__ = _fields = (
        "type", "levels", "tested", "mismatches", "boundary_flags", "elapsed", "budget_exceeded"
    )

    def _key(self) -> tuple:
        # elapsed and budget_exceeded vary from run to run
        return (self.type, self.levels, self.tested, self.mismatches, self.boundary_flags)

    def to_json(self) -> dict:
        return {
            "type": self.type,
            "levels": list(self.levels),
            "tested": self.tested,
            "mismatches": list(self.mismatches),
            "boundary_flags": self.boundary_flags,
        }


def _census_labels(diagram: AffineDiagram) -> list:
    """All nonzero label vectors with entry sum at most three, in
    lexicographic order: one per multiset of one to three vertices."""
    vertices = diagram.vertices
    return sorted(
        tuple(multiset.count(v) for v in vertices)
        for size in (1, 2, 3)
        for multiset in itertools.combinations_with_replacement(vertices, size)
    )


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
    # pair generator does not lean on the lattice code it is checking.
    # Raising vertex j by step adds step times Cartan column j to the labels.
    diagram = weight.diagram
    labs, shift = list(weight.labels), weight.shift
    while True:
        j = next((j for j, e in enumerate(labs) if e < 0), None)
        if j is None:
            return Weight(diagram, labs, shift)
        step = (1 - labs[j]) // 2
        for i, x in diagram.columns[j]:
            labs[i] += step * x
        if j == 0:
            shift += Fraction(step, diagram.marks[0])


def _sweep(diagram: AffineDiagram, levels, samples_per_level: int, seed: int):
    """The weights a sweep checks, each with the partner of its meet/join
    check: the census weights with none, then each level's seeded samples,
    each with a dominant partner near it."""
    for labs in _census_labels(diagram):
        yield weight_from_labels(diagram, labs), None
    for lvl in levels:
        rng = random.Random(f"{seed}:{diagram.type_id}:{lvl}")
        for _ in range(samples_per_level):
            labs = _sample_labels(diagram, lvl, rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            offsets = [rng.randint(-2, 2) for _ in diagram.vertices]
            weight = weight_from_labels(diagram, labs, shift)
            yield weight, _dominant_repair(_moved(weight, offsets))


def _weight_key(weight: Weight):
    return (weight.labels, format_shift(weight.shift))


def _mismatch(mismatches, check, detail, weight, partner=None):
    record = {"labels": list(weight.labels), "shift": format_shift(weight.shift)}
    if partner is not None:
        record["partner"] = list(partner.labels)
        record["partner_shift"] = format_shift(partner.shift)
    record["check"] = check
    record["detail"] = detail
    mismatches.append(record)


def _pair_keys(keys) -> list:
    return sorted((labs, f"{p}/{q}") for labs, p, q in keys)


def _check_one(weight, window, mismatches, searches):
    """Compare the classified cocovers of one weight with the brute search.

    ``searches`` maps labels to the minimal offsets and the labels below
    them, for the length of one sweep: the search reads the labels alone.
    """
    from . import covering

    diagram, labs, shift = weight.diagram, weight.labels, weight.shift
    found = searches.get(labs)
    if found is None:
        found = searches[labs] = _brute_lowers(diagram, window, labs)
    mark0 = diagram.marks[0]
    brute = set()
    for beta, lower in found:
        if any(map(eq, beta, window.bounds)):
            detail = f"offset {list(beta)} touches the window"
            _mismatch(mismatches, "boundary", detail, weight)
        below = _plus_delta(shift, -beta[0], mark0)
        brute.add((lower, below.numerator, below.denominator))
    classified = {
        (e.lower.labels, e.lower.shift.numerator, e.lower.shift.denominator)
        for e in covering.cocovers(weight)
    }
    if brute != classified:
        detail = f"brute {_pair_keys(brute)} vs classified {_pair_keys(classified)}"
        _mismatch(mismatches, "cocovers", detail, weight)
    lookup = cover_root_lookup(diagram)
    for beta, _ in found:
        if beta not in lookup:
            detail = f"{list(beta)} is not a candidate root"
            _mismatch(mismatches, "difference", detail, weight)
    marks = diagram.marks
    delta_brute = any(beta == marks for beta, _ in found)
    if covering.is_delta_cocover(weight) != delta_brute:
        detail = f"classified {not delta_brute}, brute {delta_brute}"
        _mismatch(mismatches, "delta", detail, weight)


def _check_pair(weight, partner, window, mismatches):
    """Compare the meet and join of two weights with the brute bounds, all
    three computed from one gap."""
    gap = _require_component(weight, partner)
    for _ in range(5):
        try:
            bb = _gap_bounds(weight, partner, gap, window)
            break
        except WindowExhaustedError:
            window = window.doubled()
        except (BoxTooLargeError, RuntimeError) as exc:
            _mismatch(mismatches, "bounds", str(exc), weight, partner)
            return
    else:
        _mismatch(mismatches, "bounds", "window exhausted", weight, partner)
        return
    if bb.glb != _gap_meet(weight, gap):
        _mismatch(mismatches, "meet", f"brute {_weight_key(bb.glb)}", weight, partner)
    if bb.lub != _gap_join(weight, gap):
        _mismatch(mismatches, "join", f"brute {_weight_key(bb.lub)}", weight, partner)


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
    test, and meet/join against the brute searches.  Each distinct label
    tuple is searched once per call; only the search plans, a few integers
    per vertex and window, are kept between calls.
    """
    levels = tuple(levels)
    for lvl in levels:
        if type(lvl) is not int:
            raise TypeError(f"levels must be ints, got {lvl!r}")
        if lvl < 1:
            raise ValueError(f"levels must be at least 1, got {lvl}")
    if type(samples_per_level) is not int:
        raise TypeError(f"samples_per_level must be an int, got {samples_per_level!r}")
    if samples_per_level < 0:
        raise ValueError(f"samples_per_level must be nonnegative, got {samples_per_level}")
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    if isinstance(budget, bool):
        raise TypeError(f"budget must be a number of seconds, got {budget!r}")
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")
    diagram = build_affine(parse_type_id(type_id)) if not isinstance(
        type_id, AffineDiagram
    ) else type_id
    if window is None:
        window = default_window(diagram)
    start = time.monotonic()
    _window_bounds(diagram, window)  # a window of the wrong rank fails at once
    searches: dict = {}
    mismatches: list = []
    tested = 0
    exceeded = False
    for weight, partner in _sweep(diagram, levels, samples_per_level, seed):
        if budget is not None and time.monotonic() - start > budget:
            exceeded = True
            break
        _check_one(weight, window, mismatches, searches)
        if partner is not None:
            _check_pair(weight, partner, window, mismatches)
        tested += 1
    return VerificationReport(
        type=str(diagram.type_id),
        levels=levels,
        tested=tested,
        mismatches=tuple(mismatches),
        boundary_flags=sum(record["check"] == "boundary" for record in mismatches),
        elapsed=time.monotonic() - start,
        budget_exceeded=exceeded,
    )

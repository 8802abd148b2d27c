"""Brute force verification of the covering and lattice structure.

The searches here know nothing about the classification of covers: one
depth-first search, ``_minimal_offsets``, walks the root-vector offsets of a
window and returns the componentwise-minimal ones whose result is dominant.
The covering module is imported only inside ``_check_one``, which compares
the two as label moves, (root, labels across it) pairs; the brute searches
themselves must stay independent of it.

``brute_bounds`` searches only above two weights: their greatest lower bound
is the coefficient-minimum corner, tested for dominance, and the root vector
between them is first checked against the Cartan matrix and, at vertex 0,
against a c0 that never comes from it.  The bounds search takes the second
weight as a state over the first weight a, (labels, c0) with c0 the vertex-0
coefficient of the root vector from a: ``brute_bounds`` reads c0 off the two
shifts as an exact Fraction.  A sweep's pair check computes that root
vector, the gap, once and hands the same one to the bounds search and to the
meet and join it checks; the partner, the bounds, the meet and the join are
all integer states over a, so they compare as ints and tuples, and a weight
or a shift is built only for a record.  The corners come from ``weights``'
label arithmetic, which never solves for coefficients.

The search reads only the Cartan columns.  It assigns one vertex at a time
and keeps, for each label, how far the vertices still unassigned could
raise it, so each vertex's feasible values form one interval; an offset
above a minimum already found is cut.  A search past its bound on nodes
visited, on minima compared or on vertices raises ``BoxTooLargeError``.

A ``SearchWindow`` is read once, where it enters a public function; every
search below takes its bound tuple.  A sweep works on integer labels, and
every check but meet and join reads the labels alone: the search, and the
classifier's label moves and delta test.  So :func:`verify_covering` checks
each label tuple once within a call, in one pass: the census streams, then
each seeded sample is drawn and checked in turn.  Each sample's partner
is the state that ``weights._repaired`` gives of its labels plus the
offsets, the repair ``join`` uses, and its gap is solved from the labels
and c0 by ``weights._state_gap``.  That keeps the check sound: a repair bug
shared with ``join`` still shows as a ``join`` mismatch against the search,
and a partner the solve refuses, one that is not dominant or a gap that is
not integral, is a ``bounds`` record.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
import time
from fractions import Fraction
from operator import eq, le

from . import _LAZY
from .cartan import (
    _ZERO,
    AffineDiagram,
    _ints,
    _Value,
    _vertex_count,
    build_affine,
    format_shift,
    parse_type_id,
)
from .roots import RootVector, cover_root_lookup
from .weights import (
    Weight,
    _add_columns,
    _at,
    _corner,
    _gap_join,
    _gap_meet,
    _repaired,
    _require_component,
    _shift_at,
    _state_gap,
    _weight,
    is_dominant,
)

__all__ = [name for name, home in _LAZY.items() if home == "oracle"]


class WindowExhaustedError(RuntimeError):
    """The search window was too small to certify an answer."""


class BoxTooLargeError(ValueError):
    """A search would visit more nodes or vertices than one search may."""


class TooManySamplesError(ValueError):
    """A sweep would draw more samples, each counted once per unit of its level, than it may."""


class CensusTooLargeError(ValueError):
    """A sweep with no budget would check more census weights than it may."""


# Sweeps at levels 1-3 (1-2 from rank 7 on) of the catalog, E6-1, E7-1,
# E8-1, B12-1, C12-1, D12-1 and A20-1, in their default and doubled windows,
# visit at most 9682 nodes per search (E8-1, doubled window)
_MAX_SEARCH_NODES = 1 << 21
# the same sweeps compare at most 2123 minima per search (E6-1 to C12-1 at
# levels 1-2); rho compares 723 145 on A127-1 (1.4 s), 5 689 737 on A255-1 (20 s)
_MAX_SEARCH_SCANS = 1 << 21
# one recursion frame per vertex, well under the interpreter's default limit of 1000
_MAX_SEARCH_VERTICES = 512
# a draw makes one generator call per unit of level
_MAX_SAMPLE_LEVELS = 100000
# A60-1's census of 41 663 weights took 96 s; A64-1's has 50 115
_MAX_CENSUS = 50000


class SearchWindow(_Value):
    """Inclusive upper bounds for nonnegative root-vector offsets."""

    __slots__ = _fields = ("bounds",)

    def __init__(self, bounds) -> None:
        bounds = _ints("window bounds", bounds)
        if not bounds or any(b < 1 for b in bounds):
            raise ValueError(f"window bounds must be positive, got {bounds}")
        super().__init__(bounds)

    def doubled(self) -> "SearchWindow":
        return SearchWindow(tuple(2 * b for b in self.bounds))


def _bounds(diagram: AffineDiagram, window: SearchWindow | None) -> tuple:
    """The bounds of a window, checked against the diagram's rank; None is
    the default window."""
    if window is None:
        return tuple(2 * a for a in diagram.marks)
    if not isinstance(window, SearchWindow):
        raise TypeError(f"window must be a SearchWindow or None, got {window!r}")
    if len(window.bounds) != diagram.n + 1:
        raise ValueError("window rank does not match the diagram")
    return window.bounds


def default_window(diagram: AffineDiagram) -> SearchWindow:
    """Twice the marks: strictly contains every candidate cover difference."""
    return SearchWindow(_bounds(diagram, None))


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


def _check_vertices(type_id, vertices: int) -> None:
    """Raise ``BoxTooLargeError`` if a search through this many vertices
    would recurse past its bound."""
    if vertices > _MAX_SEARCH_VERTICES:
        raise BoxTooLargeError(
            f"{type_id} search recurses through {vertices} > {_MAX_SEARCH_VERTICES} vertices"
        )


def _minimal_offsets(diagram: AffineDiagram, bounds: tuple, labs, sign: int) -> list:
    """The minimal nonzero offsets 0 <= gamma <= bounds with labs + sign *
    A gamma >= 0, in lexicographic order (vertex 0 most significant).

    A depth-first search assigns gamma vertex by vertex along ``_plan``.
    The values at v that leave every label it touches able to end up
    nonnegative form an interval, and they are tried in increasing order,
    so an offset below another is always reached first.  Unassigned entries
    are zero, so once a minimum already found lies below the partial offset
    it lies below every completion, and the larger values at v are cut too.
    Every vertex, the last included, runs that one loop; past the last every
    label is settled, and a nonzero offset that gets there is a new minimum.
    The minima are tested in plain ``for`` loops, which count the minima
    compared against ``_MAX_SEARCH_SCANS`` as nodes count against
    ``_MAX_SEARCH_NODES``.  A zero value is neither tested nor adds a
    column: it leaves the offset as it was last tested.
    """
    _check_vertices(diagram, len(bounds))
    plan = _plan(diagram, bounds, sign)
    last = len(plan) - 1
    cur, gamma, minima = list(labs), [0] * len(plan), []
    nodes = scans = 0

    def visit(k):
        nonlocal nodes, scans
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
        if lo > hi:
            return
        if lo:
            for u, c in column:
                cur[u] += c * lo
        d = lo
        while True:
            gamma[v] = d
            if d:
                scans += len(minima)
                if scans > _MAX_SEARCH_SCANS:
                    raise BoxTooLargeError(f"search compares more than {_MAX_SEARCH_SCANS} minima")
                for m in minima:
                    if all(map(le, m, gamma)):
                        break
                else:
                    m = None
                if m is not None:  # below a minimum, as every larger value is
                    break
            if k < last:
                visit(k + 1)
            elif any(gamma):
                minima.append(tuple(gamma))
            if d == hi:
                break
            d += 1
            for u, c in column:
                cur[u] += c
        if d:
            for u, c in column:
                cur[u] -= c * d
        gamma[v] = 0

    visit(0)
    return sorted(minima)


def _brute_lowers(diagram: AffineDiagram, bounds: tuple, labs) -> list:
    """The minimal nonzero offsets beta <= bounds with labs - A beta
    dominant, in lexicographic order, each as (beta, those labels, whether
    beta touches the window's edge)."""
    return [
        (beta, tuple(_add_columns(diagram, labs, [-c for c in beta])), any(map(eq, beta, bounds)))
        for beta in _minimal_offsets(diagram, bounds, labs, -1)
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
    bounds = _bounds(diagram, window)
    found = _brute_lowers(diagram, bounds, weight.labels)
    return BruteCocovers(
        tuple(_at(weight, (lower, -beta[0])) for beta, lower, _ in found),
        tuple(RootVector(diagram, beta) for beta, _, _ in found),
        tuple(edge for _, _, edge in found),
    )


class BruteBounds(_Value):
    __slots__ = _fields = ("glb", "lub")


def brute_bounds(a: Weight, b: Weight, window: SearchWindow | None = None) -> BruteBounds:
    """Greatest lower and least upper bound of two dominant weights.

    The root vector a - b, the gap, comes from the helper ``meet`` and
    ``join`` use, so it is first checked against the Cartan matrix: its
    columns must add up to the label difference, and its vertex-0
    coefficient must be -c0, with c0 = (t - s) * mark0 an exact Fraction
    read off the two shifts s and t, which only the true gap matches.  The
    search runs on states over a (``_gap_bounds``), b's among them, and the
    two weights are built from them at the end.

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
    gap = _require_component(a, b)  # solved before the window is read
    c0 = (b.shift - a.shift) * a.diagram.marks[0]
    glb, lub = _gap_bounds(a, (b.labels, c0), gap, _bounds(a.diagram, window))
    return BruteBounds(_at(a, glb), _at(a, lub))


def _gap_bounds(a: Weight, b, gap, bounds: tuple) -> tuple:
    """``brute_bounds`` of a and the state b = (labels, c0) over a
    (``weights._at``) within bounds, as two states over a.  The gap a - b
    must add b's labels up to a's through the Cartan columns and have -c0
    at vertex 0; c0 never comes from it.  Every corner is an integer step;
    the searched bound adds the search's minimum to the coefficient-maximum
    corner's labels and c0 alike.  Only the search itself is this module's."""
    diagram = a.diagram
    labs, c0 = b
    if tuple(_add_columns(diagram, labs, gap)) != a.labels or gap[0] != -c0:
        raise RuntimeError(f"gap {list(gap)} does not give the label and shift differences")
    glb = _corner(a, [-g if g > 0 else 0 for g in gap])
    if min(glb[0]) < 0:
        raise RuntimeError(f"the coefficient minimum {list(glb[0])} is not dominant")
    top = _corner(a, [-g if g < 0 else 0 for g in gap])
    if min(top[0]) >= 0:
        return glb, top
    minima = _minimal_offsets(diagram, bounds, top[0], 1)
    if not minima:
        raise WindowExhaustedError("no dominant upper bound within the window")
    if len(minima) > 1:
        listed = ", ".join(map(str, minima))
        raise RuntimeError(f"upper bounds have two incomparable minima: {listed}")
    return glb, _corner(a, [m - g if g < 0 else m for g, m in zip(gap, minima[0])])


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


_CENSUS_SUM = 3  # the largest entry sum of a census tuple


def _census_labels(diagram: AffineDiagram):
    """All nonzero label vectors with entry sum at most ``_CENSUS_SUM``,
    one at a time in lexicographic order: one per multiset a <= b <= c of
    one to three vertices.  An absent b or c is n + 1, past every vertex;
    the larger a comes first, then the larger b, then the larger c."""
    end = diagram.n + 1
    for a in range(end - 1, -1, -1):
        for b in range(end, a - 1, -1):
            for c in range(end, b - 1, -1):
                yield tuple(map((a, b, c).count, range(end)))


@functools.lru_cache(maxsize=None)
def _level_choices(diagram: AffineDiagram) -> tuple:
    """For each remaining level r up to the largest comark, the vertices
    whose comark is at most r, in order.  At higher levels every vertex
    fits, as at the largest comark."""
    comarks = diagram.comarks
    return tuple(
        tuple(j for j in diagram.vertices if comarks[j] <= r) for r in range(max(comarks) + 1)
    )


def _sample_labels(diagram: AffineDiagram, target_level: int, rng: random.Random):
    """Labels of the given level, one vertex at a time: each is drawn from
    the vertices whose comark fits in the level still to fill."""
    choices = _level_choices(diagram)
    top = len(choices) - 1
    comarks = diagram.comarks
    labs = [0] * (diagram.n + 1)
    remaining = target_level
    while remaining > 0:
        j = rng.choice(choices[min(remaining, top)])
        labs[j] += 1
        remaining -= comarks[j]
    return tuple(labs)


def _draws(diagram: AffineDiagram, levels, samples_per_level: int, seed: int):
    """Each sample's labels, delta shift and root-vector offsets, one at a
    time, level by level from one seeded generator per level."""
    for lvl in levels:
        rng = random.Random(f"{seed}:{diagram.type_id}:{lvl}")
        for _ in range(samples_per_level):
            labs = _sample_labels(diagram, lvl, rng)
            # randrange(2k + 1) - k draws as randint(-k, k) does
            shift = Fraction(rng.randrange(9) - 4, rng.choice((1, 1, 2, 3)))
            yield labs, shift, [rng.randrange(5) - 2 for _ in diagram.vertices]


def _sweep(diagram: AffineDiagram, draws):
    """The weights a sweep checks, each with the partner of its meet/join
    check: the census weights with none, then each drawn sample, with the
    dominant partner near it as its state (labels, c0) over the sample."""
    for labs in _census_labels(diagram):
        yield _weight(diagram, labs, _ZERO), None
    for labs, shift, offsets in draws:
        weight = _weight(diagram, labs, shift)
        yield weight, _repaired(weight, offsets)


def _weight_key(weight: Weight):
    return (weight.labels, format_shift(weight.shift))


def _mismatch(mismatches, check, detail, weight, partner=None):
    """Append a record of one failed check; a partner is a state over the weight."""
    record = {"labels": list(weight.labels), "shift": format_shift(weight.shift)}
    if partner is not None:
        labs, c0 = partner
        record["partner"] = list(labs)
        record["partner_shift"] = format_shift(_shift_at(weight, c0))
    record["check"] = check
    record["detail"] = detail
    mismatches.append(record)


def _drop_keys(weight, moves) -> list:
    """The sorted (labels, shift text) keys of the weights across (root, labels) moves down."""
    return sorted((labs, format_shift(_shift_at(weight, -r[0]))) for r, labs in moves)


def _check_one(weight, bounds, mismatches, memo, drawn):
    """Compare the classified cocovers of one weight with the brute search.

    Every check reads the labels alone, so ``memo`` maps labels to the
    (check, detail) records they fix, for the length of one sweep: the
    brute search and the classifier run once per label tuple.  The census
    comes first and keeps a tuple only if it has records, so a drawn weight
    whose labels are in the census and not in the memo has none; a drawn
    tuple outside the census is kept, records or not.  The search's
    (offset, labels below) pairs must be the classifier's label moves; a
    root fixes the shift too.  A cocovers record keeps both sets, which
    each weight writes out with its own shift.
    """
    labs = weight.labels
    records = memo.get(labs)
    if records is None and not (drawn and sum(labs) <= _CENSUS_SUM):
        from . import covering

        diagram = weight.diagram
        found = _brute_lowers(diagram, bounds, labs)
        records = [
            ("boundary", f"offset {list(beta)} touches the window")
            for beta, _, edge in found
            if edge
        ]
        brute = {(beta, lower) for beta, lower, _ in found}
        moves = covering._label_moves(diagram, labs, -1)
        classified = {(step.root.coeffs, across) for step, across, _ in moves}
        if brute != classified:
            records.append(("cocovers", (brute, classified)))
        lookup = cover_root_lookup(diagram)
        records += [
            ("difference", f"{list(beta)} is not a candidate root")
            for beta, _, _ in found
            if beta not in lookup
        ]
        delta_brute = any(beta == diagram.marks for beta, _, _ in found)
        if covering.is_delta_cocover(weight) != delta_brute:
            records.append(("delta", f"classified {not delta_brute}, brute {delta_brute}"))
        records = tuple(records)
        if records or drawn:
            memo[labs] = records
    for check, detail in records or ():
        if check == "cocovers":
            brute, classified = (_drop_keys(weight, pairs) for pairs in detail)
            detail = f"brute {brute} vs classified {classified}"
        _mismatch(mismatches, check, detail, weight)


def _check_pair(weight, partner, bounds, mismatches):
    """Compare the meet and join of a weight and a partner, a state over it,
    with the brute bounds, all three from one gap and as states over the
    weight.  A gap the solver cannot give, or one the bounds search refuses,
    is a bounds record; only a record builds a weight or a shift."""
    try:
        gap = _state_gap(weight, partner)
    except ValueError as exc:
        _mismatch(mismatches, "bounds", str(exc), weight, partner)
        return
    for _ in range(5):
        try:
            glb, lub = _gap_bounds(weight, partner, gap, bounds)
            break
        except WindowExhaustedError:
            bounds = tuple(2 * b for b in bounds)
        except (BoxTooLargeError, RuntimeError) as exc:
            _mismatch(mismatches, "bounds", str(exc), weight, partner)
            return
    else:
        _mismatch(mismatches, "bounds", "window exhausted", weight, partner)
        return
    if glb != _gap_meet(weight, gap):
        _mismatch(mismatches, "meet", f"brute {_weight_key(_at(weight, glb))}", weight, partner)
    if lub != _gap_join(weight, gap):
        _mismatch(mismatches, "join", f"brute {_weight_key(_at(weight, lub))}", weight, partner)


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
    tuple is checked once per call, in one pass: a census tuple's records
    are kept only if there are any, and a sample outside the census is
    checked on its first draw.  Only the search plans are kept between
    calls.  A budget, in seconds from the start of the call, stops the
    sweep once the elapsed time exceeds it; with no budget, a census past
    50 000 weights raises ``CensusTooLargeError``.  A diagram of more than
    512 vertices, which the search cannot recurse through, raises
    ``BoxTooLargeError``, budget or not.  Both counts are read off the type
    id before the diagram is built.  A level seeds its own generator, so a
    repeated level raises ``ValueError``.
    """
    levels = _ints("levels", levels)
    seen = set()
    for lvl in levels:
        if lvl < 1:
            raise ValueError(f"levels must be at least 1, got {lvl}")
        if lvl in seen:  # its generator would draw the same samples again
            raise ValueError(f"level {lvl} is given twice")
        seen.add(lvl)
    if type(samples_per_level) is not int:
        raise TypeError(f"samples_per_level must be an int, got {samples_per_level!r}")
    if samples_per_level < 0:
        raise ValueError(f"samples_per_level must be nonnegative, got {samples_per_level}")
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    if samples_per_level * sum(levels) > _MAX_SAMPLE_LEVELS:
        raise TooManySamplesError(
            f"samples_per_level times the sum of the levels must be at most "
            f"{_MAX_SAMPLE_LEVELS}, got {samples_per_level} x {sum(levels)}"
        )
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, numbers.Real)):
        raise TypeError(f"budget must be a number of seconds, got {budget!r}")
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")
    tid = type_id.type_id if isinstance(type_id, AffineDiagram) else parse_type_id(type_id)
    # the census, the multisets of 1 to _CENSUS_SUM of the n + 1 vertices,
    # and the search depth are both counted before the diagram is built
    vertices = _vertex_count(tid)
    census = math.comb(vertices + _CENSUS_SUM, _CENSUS_SUM) - 1
    if budget is None and census > _MAX_CENSUS:
        raise CensusTooLargeError(
            f"{tid} has {census} census weights, more than the "
            f"{_MAX_CENSUS} a sweep checks with no budget"
        )
    _check_vertices(tid, vertices)
    diagram = build_affine(tid)
    bounds = _bounds(diagram, window)  # a window of the wrong rank fails at once
    start = time.monotonic()
    # elapsed time against the budget itself: start + budget can overflow a float
    spent = None if budget is None else lambda: time.monotonic() - start > budget
    memo: dict = {}
    mismatches: list = []
    tested = 0
    exceeded = False
    for weight, partner in _sweep(diagram, _draws(diagram, levels, samples_per_level, seed)):
        if spent is not None and spent():
            exceeded = True
            break
        _check_one(weight, bounds, mismatches, memo, partner is not None)
        if partner is not None:
            _check_pair(weight, partner, bounds, mismatches)
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

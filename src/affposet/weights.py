"""Exact weights for an affine diagram and the lattice operations on them.

A weight is stored as its labels, the integer values on the simple coroots,
plus its delta shift, an exact fraction.  That pair pins the weight down
uniquely.  The level and the coefficients on the simple roots are derived:
the level is the comark-weighted label sum, and the root coefficients are
solved in O(n) integer steps along the leaf-first elimination that
``cartan`` keeps for each diagram, needed only where dominance compares two
weights.  Only this module solves for root coefficients: ``difference`` and
``_require_component`` take two weights to the root vector between them,
and ``_state_gap`` a weight and a state over it.  Only this module moves a
weight across a root vector too: a move from a base weight a is an integer
state, (labels, c0) with c0 the vertex-0 coefficient of the root vector
from a.
``_add_columns`` moves the labels, ``_corner`` gives the state, ``_shift_at``
its shift, a's plus c0 / mark0, and ``_at`` its one weight; ``_repaired``
repairs a move up to a dominant state.  Meet and join run on such states,
and two states over one base are equal just when their weights are.
A weight so computed is built by ``_weight``, which skips the checks that
``Weight`` makes of labels and shifts from outside the library.

Two dominant weights are comparable only when they share a level and differ
by an integer root vector; within such a component the componentwise minimum
of the coefficients is again dominant and is the meet, while the join is the
componentwise maximum repaired upward until dominant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import _LAZY
from .cartan import (
    _ZERO,
    AffineDiagram,
    _as_fraction,
    _check_vertex,
    _ints,
    _parse_int,
    _set,
    _Value,
    build_affine,
    format_shift,
)
from .roots import RootVector

__all__ = [name for name, home in _LAZY.items() if home == "weights"]


class ComponentMismatchError(ValueError):
    """Raised when weights do not live in one lattice component."""


class Weight(_Value):
    """Integer labels on the simple coroots plus the delta shift."""

    __slots__ = _fields = ("diagram", "labels", "shift")

    def __init__(self, diagram: AffineDiagram, labels, shift=_ZERO) -> None:
        labs = tuple(labels)
        if len(labs) != diagram.n + 1:
            raise ValueError(f"expected {diagram.n + 1} labels, got {len(labs)}")
        _set(self, "labels", _ints("labels", labs))
        _set(self, "diagram", diagram)
        _set(self, "shift", _as_fraction(shift))

    def _key(self) -> tuple:
        # ints, not the Fraction: Fraction.__hash__ is slow.  Twice the
        # numerator: hash(-1) == hash(-2), but no two even ints of this size
        # share a hash, so shifts -1 and -2 hash apart
        shift = self.shift
        return (self.labels, 2 * shift.numerator, shift.denominator, self.diagram)

    @property
    def m(self) -> int:
        """The level: the pairing with the canonical central element."""
        return _level(self.diagram, self.labels)

    @property
    def coeffs(self) -> tuple:
        """Simple root coefficients of the weight less m times the
        fundamental weight of vertex 0."""
        shift = self.shift
        nums, den = _scaled_coeffs(self.diagram, self.labels, shift.numerator, shift.denominator)
        return tuple(Fraction(v, den) for v in nums)

    def __str__(self) -> str:
        labs = ",".join(map(str, self.labels))
        return f"[{labs} @ {format_shift(self.shift)}]"


def _level(diagram: AffineDiagram, labs) -> int:
    """The level of the labels: their comark-weighted sum."""
    return sum(map(mul, diagram.comarks, labs))


def _weight(diagram: AffineDiagram, labs: tuple, shift: Fraction) -> Weight:
    """A weight the library computed, from a tuple of n + 1 ints and a
    Fraction, built without ``Weight``'s checks of its input."""
    weight = object.__new__(Weight)
    _set(weight, "diagram", diagram)
    _set(weight, "labels", labs)
    _set(weight, "shift", shift)
    return weight


def _scaled_coeffs(diagram: AffineDiagram, labs, p: int, q: int) -> tuple:
    """Root coefficients times a common denominator, and that denominator,
    for the delta shift p/q (q > 0, not necessarily in lowest terms).

    The labels on vertices 1..n are swept up the elimination of the Cartan
    block (``cartan._eliminate``) and the coefficients substituted back
    down it, det * q times each; every division is exact.  Vertex 0 takes
    only the shift's multiple of delta.
    """
    forward, backward, det = diagram._elimination
    acc = [0] * len(labs)
    for v, parent, prod, push in forward:
        r = acc[v] + labs[v] * prod
        acc[v] = r
        acc[parent] -= push * r
    scale = det * q
    nums = [0] * len(labs)
    for v, parent, pull, pivot in backward:
        nums[v] = (acc[v] * scale - pull * nums[parent]) // pivot
    if p:
        shift = p * det
        nums = [x + shift * mark for x, mark in zip(nums, diagram.marks)]
    return nums, scale


def labels(weight: Weight) -> tuple:
    return weight.labels


def delta_shift(weight: Weight) -> Fraction:
    return weight.shift


def weight_from_labels(diagram: AffineDiagram, labs, shift=0) -> Weight:
    """The unique weight with the given coroot values and delta shift."""
    return Weight(diagram, tuple(labs), shift)


def fundamental_weight(diagram: AffineDiagram, i: int) -> Weight:
    _check_vertex(diagram, i)
    return Weight(diagram, tuple(int(j == i) for j in diagram.vertices))


def is_dominant(weight: Weight) -> bool:
    """Dominant: every coroot value nonnegative."""
    return min(weight.labels) >= 0


def _shift_gap(a: Weight, b: Weight) -> tuple:
    """The delta shift of a - b as integers p, q with q > 0; raises unless
    a and b lie on one diagram."""
    if a.diagram is not b.diagram and a.diagram != b.diagram:
        raise ComponentMismatchError(
            f"weights on different diagrams: {a.diagram} and {b.diagram}"
        )
    s, t = a.shift, b.shift
    return s.numerator * t.denominator - t.numerator * s.denominator, s.denominator * t.denominator


def _solved_gap(a: Weight, labs, p: int, q: int):
    """The scaled coefficients of a - b, b the weight with these labels
    whose shift is a's less p/q; None when the levels differ, read off the
    comarks on the label difference."""
    diagram = a.diagram
    diff = [x - y for x, y in zip(a.labels, labs)]
    if _level(diagram, diff):
        return None
    return _scaled_coeffs(diagram, diff, p, q)


def difference(a: Weight, b: Weight) -> tuple:
    """Coefficientwise difference a - b, defined only at equal level."""
    gap = _solved_gap(a, b.labels, *_shift_gap(a, b))
    if gap is None:
        raise ComponentMismatchError(f"levels differ: {a.m} and {b.m}")
    nums, den = gap
    return tuple(Fraction(v, den) for v in nums)


def _dominance_gap(lower: Weight, upper: Weight):
    """The root vector upper - lower if it is nonnegative and integral, else None.

    Its vertex-0 coefficient is mark_0 times the shift difference, so a
    negative or fractional one answers before any solve.
    """
    p, q = _shift_gap(lower, upper)
    k0 = p * lower.diagram.marks[0]  # -q times that coefficient
    if k0 > 0 or k0 % q:
        return None
    gap = _solved_gap(lower, upper.labels, p, q)
    if gap is not None:
        nums, den = gap
        if all(v <= 0 and v % den == 0 for v in nums):
            return tuple(-v // den for v in nums)
    return None


def dominance_leq(lower: Weight, upper: Weight) -> bool:
    """Whether upper - lower is a nonnegative integer root vector."""
    return _dominance_gap(lower, upper) is not None


def add_root(weight: Weight, root: RootVector) -> Weight:
    """The weight plus the root."""
    if weight.diagram != root.diagram:
        raise ComponentMismatchError("weight and root on different diagrams")
    return _at(weight, _corner(weight, root.coeffs))


def _plus_delta(shift: Fraction, k: int, mark0: int) -> Fraction:
    """The delta shift after adding k times the simple root of vertex 0:
    one Fraction built from an integer numerator and denominator, none when
    k is 0, and an integral one from its integer, which needs no gcd."""
    if not k:
        return shift
    den = shift.denominator
    num, den = shift.numerator * mark0 + k * den, den * mark0
    if num % den:
        return Fraction(num, den)
    return Fraction(num // den)


def _add_columns(diagram: AffineDiagram, labs, coeffs) -> list:
    """The labels plus the Cartan matrix times the integer coefficients:
    each nonzero coefficient adds its multiple of one of the diagram's
    columns, which touch only a vertex and its neighbours."""
    columns = diagram.columns
    out = list(labs)
    for v, b in enumerate(coeffs):
        if b:
            for w, x in columns[v]:
                out[w] += b * x
    return out


def _require_component(a: Weight, b: Weight) -> tuple:
    """The integer root vector a - b; raises unless a and b share a component
    and are both dominant."""
    return _integer_gap(a, b.labels, *_shift_gap(a, b))


def _state_gap(a: Weight, state) -> tuple:
    """The integer root vector a - b for b the state (labels, c0) over a,
    checked as ``_require_component`` checks it: the shift of a - b is
    -c0 / mark0, so no shift is built."""
    labs, c0 = state
    return _integer_gap(a, labs, -c0, a.diagram.marks[0])


def _integer_gap(a: Weight, labs, p: int, q: int) -> tuple:
    """The integer root vector a - b, b the weight with these labels whose
    shift is a's less p/q; raises unless the levels agree, every
    coefficient is an integer and both label tuples are dominant.  One pass
    over the scaled coefficients tests each for integrality and divides it."""
    gap = _solved_gap(a, labs, p, q)
    if gap is None:
        raise ComponentMismatchError(f"levels differ: {a.m} and {_level(a.diagram, labs)}")
    nums, den = gap
    coeffs = []
    for v in nums:
        if v % den:
            raise ComponentMismatchError(
                f"coefficient {len(coeffs)} differs by the non-integer {Fraction(v, den)}"
            )
        coeffs.append(v // den)
    if min(a.labels) < 0 or min(labs) < 0:
        raise ValueError("meet and join are defined for dominant weights")
    return tuple(coeffs)


def meet(a: Weight, b: Weight) -> Weight:
    """Greatest lower bound: the componentwise coefficient minimum.

    At each vertex the minimum agrees with one argument while the other
    coefficients only drop, and off-diagonal Cartan entries are nonpositive,
    so every coroot value of the minimum dominates that argument's value.
    """
    return _at(a, _gap_meet(a, _require_component(a, b)))


def _at(a: Weight, state) -> Weight:
    """The weight of a state (labels, c0) over a."""
    return _weight(a.diagram, state[0], _shift_at(a, state[1]))


def _shift_at(a: Weight, c0: int) -> Fraction:
    """The shift of a state over a with vertex-0 coefficient c0: a's plus c0 / mark0."""
    return _plus_delta(a.shift, c0, a.diagram.marks[0])


def _corner(a: Weight, coeffs) -> tuple:
    """The state over a of a plus the root vector with these integer coefficients."""
    return tuple(_add_columns(a.diagram, a.labels, coeffs)), coeffs[0]


def _gap_meet(a: Weight, gap) -> tuple:
    """The meet of a and a - gap, for the integer root vector gap, as a state over a."""
    return _corner(a, [-max(0, g) for g in gap])


def join(a: Weight, b: Weight) -> Weight:
    """Least upper bound: componentwise maximum, repaired upward.

    While some coroot value e of the candidate is negative, any dominant
    upper bound exceeds the candidate at that vertex by at least
    ceil(-e / 2), so raising by exactly that amount keeps the candidate
    below every upper bound and terminates at the least one.
    """
    return _at(a, _gap_join(a, _require_component(a, b)))


def _gap_join(a: Weight, gap) -> tuple:
    """The join of a and a - gap, for the integer root vector gap, as a
    state over a: the coefficient maximum, repaired."""
    return _repaired(a, [max(0, -g) for g in gap])


def _repaired(weight: Weight, coeffs) -> tuple:
    """The least dominant weight at or above the weight plus the root vector
    with these integer coefficients, as a state over the weight.

    The labels are repaired in place.  Raising vertex j leaves its label at
    0 or 1 and lowers only its neighbours', so a worklist of the vertices
    that went negative holds every negative label; a sum with none needs
    no list.  The raises of vertex 0 are counted into c0.
    """
    columns = weight.diagram.columns
    labs = _add_columns(weight.diagram, weight.labels, coeffs)
    k0 = coeffs[0]
    if min(labs) >= 0:
        return tuple(labs), k0
    todo = [j for j, e in enumerate(labs) if e < 0]
    while todo:
        j = todo.pop()
        if labs[j] >= 0:
            continue
        step = (1 - labs[j]) // 2
        for i, x in columns[j]:
            labs[i] += step * x
            if labs[i] < 0:
                todo.append(i)
        if j == 0:
            k0 += step
    return tuple(labs), k0


def sort_key(weight: Weight) -> tuple:
    return (weight.m, weight.labels, weight.shift)


def parse_shift(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(
            f"malformed shift {text!r}, expected 'p/q' with q > 0"
        )
    try:
        num, den = _parse_int(parts[0]), _parse_int(parts[1])
    except ValueError:
        raise ValueError(f"malformed shift {text!r}") from None
    if den <= 0:
        raise ValueError(f"shift denominator must be positive in {text!r}")
    if math.gcd(num, den) != 1:
        raise ValueError(f"shift {text!r} is not in lowest terms")
    return Fraction(num, den)


def weight_to_json(weight: Weight) -> dict:
    return {
        "type": str(weight.diagram.type_id),
        "labels": list(weight.labels),
        "delta_shift": format_shift(weight.shift),
    }


def _json_object(data, *keys) -> tuple:
    """The values at keys of a JSON object; ValueError when data is not an
    object or lacks one of them."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"JSON object lacks {', '.join(missing)}")
    return tuple(map(data.__getitem__, keys))


def _json_string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _json_ints(value, key: str) -> tuple:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


def weight_from_json(data: dict) -> Weight:
    type_text, labs, shift = _json_object(data, "type", "labels", "delta_shift")
    labs = _json_ints(labs, "labels")
    return Weight(
        build_affine(_json_string(type_text, "type")),
        labs,
        parse_shift(_json_string(shift, "delta_shift")),
    )

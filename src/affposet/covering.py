"""Covering relations in the dominance order on dominant integral weights.

For a dominant integral weight of positive level, every weight it covers is
obtained by subtracting one vector from the candidate set of the diagram,
and each candidate kind comes with a sharp dominance-pattern test on the
lower weight.  The tests are labelled with short case tags:

  a  simple root drop, always a cover once the result is dominant
  b  locally short dominant drop with all coroot values zero on its support
  c  locally short dominant drop on a B-type support, value one exactly at
     the unique short vertex of the support
  d  sum over the triple bond pair (triply laced diagrams only)
  e  sum of all three simple roots (G2-1 only)
  f  delta drop, labels concentrated at a special vertex
  g  delta drop, labels concentrated at the unique short vertex of a
     diagram with no triple bond
  h  delta drop on the two-short-ends twisted D series, label one at both
     end vertices
  i  delta drop on A1-1 with both labels one
  j  sum over the quadruple bond pair (A2-2 only)
"""

from __future__ import annotations

import functools
from itertools import compress
from operator import attrgetter
from typing import NamedTuple

from .cartan import AffineDiagram, _set, _Value, classify_finite
from .roots import (
    CoverCandidate,
    CoverKind,
    RootVector,
    cover_root_set,
    highest_short_root,
)
from .weights import (
    Weight,
    _add_columns,
    _dominance_gap,
    _json_object,
    _json_string,
    _plus_delta,
    is_dominant,
    weight_from_json,
    weight_to_json,
)

__all__ = [
    "NonPositiveLevelError",
    "CoverEdge",
    "special_vertices",
    "is_delta_cocover",
    "cocovers",
    "covers",
    "edge_to_json",
    "edge_from_json",
]


class NonPositiveLevelError(ValueError):
    """The covering theory applies to positive level only."""


class CoverEdge(_Value):
    """One covering pair: upper covers lower, dropping by root."""

    __slots__ = _fields = ("upper", "lower", "kind", "root", "case")

    def __init__(self, upper: Weight, lower: Weight, kind: CoverKind, root: RootVector, case: str):
        _set(self, "upper", upper)
        _set(self, "lower", lower)
        _set(self, "kind", kind)
        _set(self, "root", root)
        _set(self, "case", case)


@functools.lru_cache(maxsize=None)
def special_vertices(diagram: AffineDiagram) -> tuple:
    """Vertices i with mark one whose removal leaves a connected diagram on
    which delta minus the i-th simple root is the highest short root."""
    out = []
    for i in diagram.vertices:
        if diagram.marks[i] != 1:
            continue
        rest = tuple(v for v in diagram.vertices if v != i)
        if not diagram.is_connected(rest):
            continue
        target = tuple(
            a - (1 if j == i else 0) for j, a in enumerate(diagram.marks)
        )
        if highest_short_root(diagram, rest).coeffs == target:
            out.append(i)
    shortest = min(diagram.root_length_sq)
    if any(diagram.root_length_sq[i] != shortest for i in out):
        raise AssertionError(f"{diagram}: a special vertex in {out} is not shortest")
    return tuple(out)


def _require_dominant_positive(weight: Weight) -> tuple:
    if not is_dominant(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    if weight.m <= 0:
        raise NonPositiveLevelError(
            f"covering relations need positive level, got {weight.m}"
        )
    return weight.labels


def _unique_short_vertex(diagram: AffineDiagram, vertices):
    """The only vertex of the sequence with the shortest root, or None."""
    lens = list(map(diagram._half_lengths.__getitem__, vertices))
    shortest = min(lens)
    return vertices[lens.index(shortest)] if lens.count(shortest) == 1 else None


@functools.lru_cache(maxsize=None)
def _bond_pair(diagram: AffineDiagram, k: int):
    """The (short, long) ends of the first bond whose Cartan entry is -k, or
    None.  An entry a[i][j] = -k < -1 means vertex i is the short end."""
    a = diagram.cartan
    bonds = ((i, j) for i in diagram.vertices for j in diagram.vertices if a[i][j] == -k)
    return next(bonds, None)


def _delta_case(diagram: AffineDiagram, labs: tuple):
    ones = [i for i, v in enumerate(labs) if v != 0]
    if len(ones) == 1 and labs[ones[0]] == 1:
        i = ones[0]
        if i in special_vertices(diagram):
            return "f"
        if _bond_pair(diagram, 3) is None and i == _unique_short_vertex(
            diagram, diagram.vertices
        ):
            return "g"
    tid = diagram.type_id
    if tid.family == "D" and tid.twist == 2:
        n = diagram.n
        if labs == tuple(1 if j in (0, n) else 0 for j in range(n + 1)):
            return "h"
    if str(tid) == "A1-1" and labs == (1, 1):
        return "i"
    return None


def is_delta_cocover(weight: Weight) -> bool:
    """Whether the weight covers its translate by minus delta."""
    labs = _require_dominant_positive(weight)
    return _delta_case(weight.diagram, labs) is not None


def _case_rules(diagram: AffineDiagram, kind: CoverKind, supp: tuple) -> tuple:
    """The case tests of a finite candidate on its sorted support.

    A rule (tag, zeros, pins) applies when the lower weight has label zero
    at each vertex of zeros and an allowed label at each pinned vertex
    (vertex, allowed); the first rule that applies gives the case.
    """
    if kind is CoverKind.SIMPLE:
        return (("a", (), ()),)
    if kind is CoverKind.SHORT:
        rules = [("b", supp, ())]
        # a support of type B has exactly one short vertex; testing that
        # first spares classifying every other support
        short = _unique_short_vertex(diagram, supp)
        if short is not None and classify_finite(diagram, supp).family == "B":
            rules.append(("c", tuple(j for j in supp if j != short), ((short, (1,)),)))
        return tuple(rules)
    quad = _bond_pair(diagram, 4)
    short, long_ = quad or _bond_pair(diagram, 3)
    if quad:
        # the pairing against the short coroot is -4 here, one stronger
        # than at a triple bond, so the dominance window sits at {2, 3}
        tag, window = "j", (2, 3)
    else:
        # the triple bond pair, or all three simple roots of G2-1
        tag, window = ("d" if set(supp) == {short, long_} else "e"), (1, 2)
    return ((tag, tuple(j for j in supp if j != short), ((short, window),)),)


def _finite_case(lower_labs: tuple, rules: tuple):
    """Case tag if upper = lower + the candidate is a cover, given both dominant."""
    for tag, zeros, pins in rules:
        if not any(map(lower_labs.__getitem__, zeros)) and all(
            lower_labs[v] in allowed for v, allowed in pins
        ):
            return tag
    return None


class _Step(NamedTuple):
    """One cover candidate with what a query reads of it."""

    order: int  # position in cover_root_set
    cand: CoverCandidate
    root: tuple  # (vertex, coefficient) over the support of the root
    change: tuple  # (vertex, value) over the nonzero entries of A times the root
    rules: tuple  # case tests; None for delta, whose case reads the upper labels


@functools.lru_cache(maxsize=None)
def _cover_steps(diagram: AffineDiagram) -> tuple:
    """Each cover candidate with its sparse change of labels."""
    vertices = diagram.vertices
    steps = []
    for order, cand in enumerate(cover_root_set(diagram)):
        coeffs = cand.root.coeffs
        supp = tuple(compress(vertices, coeffs))
        change = _add_columns(diagram, [0] * len(vertices), coeffs)
        moved = tuple(compress(vertices, change))
        if cand.kind is CoverKind.DELTA:
            rules = None
        else:
            rules = _case_rules(diagram, cand.kind, supp)
        steps.append(_Step(
            order,
            cand,
            tuple(zip(supp, map(coeffs.__getitem__, supp))),
            tuple(zip(moved, map(change.__getitem__, moved))),
            rules,
        ))
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _cover_index(diagram: AffineDiagram, sign: int) -> tuple:
    """The steps of one direction grouped by their first need, and the rest.

    Across a step the label at v changes by sign times its change at v, so
    the weight across is dominant only if the label at each vertex where that
    is negative (a need) is at least its size.  A step with a need is listed
    under its lowest need vertex; a step with none (delta) is free.
    """
    by_need = [[] for _ in diagram.vertices]
    free = []
    for step in _cover_steps(diagram):
        needs = tuple((v, -sign * x) for v, x in step.change if sign * x < 0)
        (by_need[needs[0][0]] if needs else free).append((step, needs))
    return tuple(map(tuple, by_need)), tuple(free)


def _label_moves(diagram: AffineDiagram, labs: tuple, sign: int) -> list:
    """Cover steps below (sign -1) or above (sign +1) dominant labels of
    positive level.

    Returns (step, labels across it, case) in ``cover_root_set`` order.  Only
    the steps listed under a vertex with a positive label, and the free
    ones, can have their needs met.  The case test then reads the labels of
    the lower end, which for delta equal the upper's.  A weight and its
    delta translates share their labels, and so their moves.
    """
    by_need, free = _cover_index(diagram, sign)
    met = [
        step
        for group in [free] + [by_need[v] for v, x in enumerate(labs) if x]
        for step, needs in group
        if all(labs[v] >= need for v, need in needs)
    ]
    met.sort(key=attrgetter("order"))
    moves = []
    for step in met:
        across = list(labs)
        for v, x in step.change:
            across[v] += sign * x
        across = tuple(across)
        if step.rules is None:
            case = _delta_case(diagram, labs)
        else:
            case = _finite_case(across if sign < 0 else labs, step.rules)
        if case is not None:
            moves.append((step, across, case))
    return moves


def _edges(weight: Weight, sign: int) -> tuple:
    diagram, mark0 = weight.diagram, weight.diagram.marks[0]
    edges = []
    for step, labs, case in _label_moves(diagram, _require_dominant_positive(weight), sign):
        cand = step.cand
        near = Weight(diagram, labs, _plus_delta(weight.shift, sign * cand.root.coeffs[0], mark0))
        upper, lower = (weight, near) if sign < 0 else (near, weight)
        edges.append(CoverEdge(upper, lower, cand.kind, cand.root, case))
    return tuple(edges)


def cocovers(weight: Weight) -> tuple:
    """All weights covered by the given dominant integral weight."""
    return _edges(weight, -1)


def covers(weight: Weight) -> tuple:
    """All weights covering the given dominant integral weight."""
    return _edges(weight, 1)


def _edge_fields(edge: CoverEdge) -> dict:
    """The JSON fields of an edge besides its two ends."""
    return {"kind": edge.kind.value, "root": list(edge.root.coeffs), "case": edge.case}


def edge_to_json(edge: CoverEdge) -> dict:
    return {
        "upper": weight_to_json(edge.upper),
        "lower": weight_to_json(edge.lower),
        **_edge_fields(edge),
    }


def _edge_from_record(upper: Weight, lower: Weight, data) -> CoverEdge:
    """An edge between two read weights; its root must be a list of ints equal
    to upper - lower, and its case a string."""
    kind, root, case = _json_object(data, "kind", "root", "case")
    if not isinstance(root, list) or any(type(v) is not int for v in root):
        raise ValueError(f"root must be a list of integers, got {root!r}")
    if _dominance_gap(lower, upper) != tuple(root):
        raise ValueError(f"root {root} is not upper - lower")
    return CoverEdge(
        upper,
        lower,
        CoverKind(kind),
        RootVector(upper.diagram, tuple(root)),
        _json_string(case, "case"),
    )


def edge_from_json(data) -> CoverEdge:
    upper, lower = _json_object(data, "upper", "lower")
    return _edge_from_record(weight_from_json(upper), weight_from_json(lower), data)

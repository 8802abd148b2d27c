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
from itertools import chain, compress
from operator import itemgetter

from . import _LAZY
from .cartan import AffineDiagram, _component, _Value, classify_finite, special_vertices
from .roots import CoverKind, RootVector, _connected_proper_subsets, _fixed_roots, _support_root
from .weights import (
    Weight,
    _add_columns,
    _at,
    _dominance_gap,
    _json_ints,
    _json_object,
    _json_string,
    _level,
    weight_from_json,
    weight_to_json,
)

__all__ = [name for name, home in _LAZY.items() if home == "covering"]


class NonPositiveLevelError(ValueError):
    """The covering theory applies to positive level only."""


class CoverEdge(_Value):
    """One covering pair: upper covers lower, dropping by root."""

    __slots__ = _fields = ("upper", "lower", "kind", "root", "case")


def _require_dominant_positive(weight: Weight) -> tuple:
    """The labels of a dominant weight of positive level, read once; raises
    ``ValueError`` for a weight that is not dominant and
    ``NonPositiveLevelError`` for one of level at most zero."""
    labs = weight.labels
    if min(labs) < 0:
        raise ValueError(f"weight {weight} is not dominant integral")
    level = _level(weight.diagram, labs)
    if level <= 0:
        raise NonPositiveLevelError(f"covering relations need positive level, got {level}")
    return labs


def _unique_short_vertex(diagram: AffineDiagram, vertices):
    """The only vertex of the sequence with the shortest root, or None."""
    lens = list(map(diagram._half_lengths.__getitem__, vertices))
    shortest = min(lens)
    return vertices[lens.index(shortest)] if lens.count(shortest) == 1 else None


def _bond_pair(diagram: AffineDiagram, k: int):
    """The (short, long) ends of the first bond whose Cartan entry is -k, or
    None.  An entry a[i][j] = -k < -1 means vertex i is the short end."""
    bonds = ((i, j) for j, column in enumerate(diagram.columns) for i, x in column if x == -k)
    return next(bonds, None)


def _pattern(labs: tuple, vertices) -> tuple:
    """The nonzero labels at the sorted vertices, as (vertex, label) pairs."""
    return tuple(filter(itemgetter(1), zip(vertices, map(labs.__getitem__, vertices))))


@functools.lru_cache(maxsize=None)
def _delta_cases(diagram: AffineDiagram) -> dict:
    """The nonzero labels, as (vertex, label) pairs by vertex, of each weight
    that covers its translate by minus delta, mapped to its case tag."""
    cases = {((i, 1),): "f" for i in special_vertices(diagram)}
    short = _unique_short_vertex(diagram, diagram.vertices)
    if short is not None and _bond_pair(diagram, 3) is None:
        cases[((short, 1),)] = "g"
    tid = diagram.type_id
    if tid.family == "D" and tid.twist == 2:
        cases[((0, 1), (diagram.n, 1))] = "h"
    if str(tid) == "A1-1":
        cases[((0, 1), (1, 1))] = "i"
    return cases


def is_delta_cocover(weight: Weight) -> bool:
    """Whether the weight covers its translate by minus delta: its nonzero
    labels, as (vertex, label) pairs by vertex, are one of delta's
    patterns."""
    labs = _require_dominant_positive(weight)
    return tuple(filter(itemgetter(1), enumerate(labs))) in _delta_cases(weight.diagram)


def _case_rules(diagram: AffineDiagram, kind: CoverKind, supp: tuple) -> dict | None:
    """The case test of a cover candidate on its sorted support, or None for
    a simple root, whose drop is a cover whenever the result is dominant.

    The test maps each accepted pattern of the lower weight, its nonzero
    labels on the support as (vertex, label) pairs by vertex, to the case.
    """
    if kind is CoverKind.SIMPLE:
        return None
    if kind is CoverKind.DELTA:
        # delta changes no label, so the lower patterns are the upper ones
        return _delta_cases(diagram)
    if kind is CoverKind.SHORT:
        rules = {(): "b"}
        # a support of type B has exactly one short vertex; testing that
        # first spares classifying every other support
        short = _unique_short_vertex(diagram, supp)
        if short is not None and classify_finite(diagram, supp).family == "B":
            rules[((short, 1),)] = "c"
        return rules
    quad = _bond_pair(diagram, 4)
    short, long_ = quad or _bond_pair(diagram, 3)
    if quad:
        # the pairing against the short coroot is -4 here, one stronger
        # than at a triple bond, so the dominance window sits at {2, 3}
        tag, window = "j", (2, 3)
    else:
        # the triple bond pair, or all three simple roots of G2-1
        tag, window = ("d" if set(supp) == {short, long_} else "e"), (1, 2)
    return {((short, x),): tag for x in window}


class CoverPatternError(RuntimeError):
    """A cover step besides a simple root has no case test, or a pattern it
    accepts gives other than one or two nonzero upper labels on its root's
    support, so no cocover lookup reads it."""


class _Step(_Value):
    """One cover root with what a query reads of it: ``order``, (height,
    coefficients), the ``cover_root_set`` order; the ``root`` and its
    ``kind``; the sorted support ``supp``; ``change``, (vertex, value) over
    the nonzero entries of A times the root; and ``rules``, the case test of
    ``_case_rules``, None for a simple root."""

    __slots__ = _fields = ("order", "root", "kind", "supp", "change", "rules")


def _step(diagram: AffineDiagram, supp: tuple, root: RootVector, kind: CoverKind) -> _Step:
    """The step of a cover root of the given kind on its sorted support, kept
    as given: its label change is A times the root, ``weights._add_columns``
    of zero labels, and its case test is that of its kind on the support."""
    coeffs = root.coeffs
    change = _add_columns(diagram, [0] * (diagram.n + 1), coeffs)
    change = tuple((w, x) for w, x in enumerate(change) if x)
    return _Step((sum(coeffs), coeffs), root, kind, supp, change, _case_rules(diagram, kind, supp))


@functools.lru_cache(maxsize=None)
def _support_step(diagram: AffineDiagram, supp: tuple) -> _Step:
    """The step of the cover root ``roots._support_root`` gives on a sorted
    proper connected set."""
    return _step(diagram, supp, *_support_root(diagram, supp))


@functools.lru_cache(maxsize=None)
def _fixed_steps(diagram: AffineDiagram) -> tuple:
    """The steps of ``roots._fixed_roots``: delta and the diagram's
    exceptional roots."""
    return tuple(
        _step(diagram, tuple(compress(diagram.vertices, root.coeffs)), root, kind)
        for root, kind in _fixed_roots(diagram)
    )


@functools.lru_cache(maxsize=None)
def _cocover_table(diagram: AffineDiagram) -> dict:
    """The cocover steps of the diagram filed by the upper labels they fix.

    A case test fixes the lower labels on the root's support, so each
    accepted pattern fixes the upper ones there too: the pattern plus A
    times the root.  Its key holds the nonzero ones as one or two (vertex,
    label) pairs by vertex.  The table files each entry (last, step, rest,
    case) under the key's first pair, with ``last`` the key's last pair,
    the first itself for a one-pair key.  The entry is a cocover of every
    dominant weight with the key's labels and label zero on rest, the rest
    of the support: outside it the lower labels are the upper ones less a
    nonpositive change.  Simple roots, which have no test, are left out.
    """
    short = (_support_step(diagram, s) for s in _connected_proper_subsets(diagram) if len(s) > 1)
    table = {}
    for step in chain(short, _fixed_steps(diagram)):
        root, supp = step.root, step.supp
        if step.rules is None:
            raise CoverPatternError(f"{diagram}: {root} has no case test")
        inside = [(v, x) for v, x in step.change if root.coeffs[v]]
        for pattern, tag in step.rules.items():
            upper = dict(inside)
            for v, x in pattern:
                upper[v] = upper.get(v, 0) + x
            key = tuple(sorted((v, x) for v, x in upper.items() if x))
            if not 0 < len(key) <= 2:
                raise CoverPatternError(f"{diagram}: case {tag} of {root} keys {key}")
            rest = list(supp)
            for v, _ in key:
                rest.remove(v)
            table.setdefault(key[0], []).append((key[-1], step, tuple(rest), tag))
    return table


def _cocover_cases(diagram: AffineDiagram, labs: tuple) -> list:
    """(step, case) for each cocover of dominant labels, in no fixed order.

    A simple root drops where the label is at least two, and every other
    root, delta too, where the table holds an entry under a positive
    vertex's (vertex, label) pair whose last pair and zero rest the labels
    match.  The pairs come from ``enumerate``, so a query builds no key.
    """
    table, found = _cocover_table(diagram), []
    for pair in enumerate(labs):
        v, x = pair
        if not x:
            continue
        if x >= 2:
            found.append((_support_step(diagram, (v,)), "a"))
        for (w, y), step, rest, case in table.get(pair, ()):
            if labs[w] == y and not any(map(labs.__getitem__, rest)):
                found.append((step, case))
    return found


def _cover_cases(diagram: AffineDiagram, labs: tuple) -> list:
    """(step, case) for each cover of dominant labels, in step ``order``.

    A cover's root is a simple root, delta, an exceptional root, or the
    highest short root of one of two kinds of support: a component of the
    zero set of the labels (case b), or the component of the zero set plus
    one vertex of label one that holds that vertex (case c), each grown by
    ``cartan._component``.  A simple root whose Cartan column takes a label
    negative is dropped before its step.
    """
    columns, done = diagram.columns, set()
    zeros = {v for v, x in enumerate(labs) if not x}
    supports = [(v,) for v in diagram.vertices if all(labs[w] + x >= 0 for w, x in columns[v])]
    for s, x in enumerate(labs):
        if x > 1 or s in done:
            continue
        part = _component(diagram.adjacency, s, zeros)
        if not x:
            done |= part
        # one vertex is a simple root, and all of them no proper support
        if 1 < len(part) <= diagram.n:
            supports.append(tuple(sorted(part)))
    found = []
    for step in [_support_step(diagram, supp) for supp in supports] + list(_fixed_steps(diagram)):
        if all(labs[v] + x >= 0 for v, x in step.change):
            tag = "a" if step.rules is None else step.rules.get(_pattern(labs, step.supp))
            if tag is not None:
                found.append((step, tag))
    return sorted(found, key=lambda pair: pair[0].order)


@functools.lru_cache(maxsize=1 << 10)  # bounded, so a long sweep holds flat memory
def _cocover_steps(diagram: AffineDiagram, labs: tuple) -> tuple:
    """``_cocover_cases`` in step ``order``, shared by a weight's delta
    translates; an entry holds the cached steps and no labels but its key."""
    return tuple(sorted(_cocover_cases(diagram, labs), key=lambda pair: pair[0].order))


def _across(labs: tuple, step: _Step, sign: int) -> tuple:
    """The labels across a step below (sign -1) or above (sign +1) them."""
    across = list(labs)
    for v, x in step.change:
        across[v] += sign * x
    return tuple(across)


def _label_moves(diagram: AffineDiagram, labs: tuple, sign: int) -> list:
    """Cover steps below (sign -1) or above (sign +1) dominant labels of
    positive level, as (step, labels across it, case) in ``cover_root_set``
    order.  The steps below come from the memo; those above, which
    ``covers`` asks for once per weight, are found each call."""
    found = _cocover_steps(diagram, labs) if sign < 0 else _cover_cases(diagram, labs)
    return [(step, _across(labs, step, sign), case) for step, case in found]


def _edges(weight: Weight, sign: int) -> tuple:
    edges = []
    for step, labs, case in _label_moves(weight.diagram, _require_dominant_positive(weight), sign):
        near = _at(weight, (labs, sign * step.root.coeffs[0]))
        upper, lower = (weight, near) if sign < 0 else (near, weight)
        edges.append(CoverEdge(upper, lower, step.kind, step.root, case))
    return tuple(edges)


def cocovers(weight: Weight) -> tuple:
    """All weights covered by the given dominant integral weight."""
    return _edges(weight, -1)


def covers(weight: Weight) -> tuple:
    """All weights covering the given dominant integral weight."""
    return _edges(weight, 1)


def edge_to_json(edge: CoverEdge) -> dict:
    return {
        "upper": weight_to_json(edge.upper),
        "lower": weight_to_json(edge.lower),
        "kind": edge.kind.value,
        "root": list(edge.root.coeffs),
        "case": edge.case,
    }


def _edge_from_record(upper: Weight, lower: Weight, data, listed) -> CoverEdge:
    """An edge between two read weights; its root must be a list of ints equal
    to upper - lower, its case a string, and the edge one of those that
    ``listed`` gives for the upper weight."""
    kind, root, case = _json_object(data, "kind", "root", "case")
    coeffs = _json_ints(root, "root")
    if _dominance_gap(lower, upper) != coeffs:
        raise ValueError(f"root {root} is not upper - lower")
    edge = CoverEdge(
        upper,
        lower,
        CoverKind(kind),
        RootVector(upper.diagram, coeffs),
        _json_string(case, "case"),
    )
    if edge not in listed(upper):
        raise ValueError(
            f"{upper} -> {lower} with kind {kind!r}, root {root} and case {case!r} is not a cover"
        )
    return edge


def edge_from_json(data) -> CoverEdge:
    upper, lower = _json_object(data, "upper", "lower")
    # cocovers is looked up per call, so a replaced or wrapped classifier is the one read
    return _edge_from_record(weight_from_json(upper), weight_from_json(lower), data, cocovers)

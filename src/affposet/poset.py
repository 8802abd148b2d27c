"""Intervals in the dominance order and the basic cells of untwisted type A.

An interval is computed by walking cocovers downward from the top; since the
interval is order convex, covers taken inside it are covers of the full
poset.  ``basic_cell`` predicts the interval under a weight ``lam`` and the
meet of two of its cocovers as a family of vertex sets S: the nodes are the
weights ``lam - e_S``, with ``e_S`` the sum of the simple roots of S, and the
edges are the covers of inclusion among the sets.  The family is the
diamond, pentagon, or double pentagon that the supports of the two cover
roots select, or every dominant ``lam - e_S`` down to the delta shift when
the two supports cover the cycle; each S is a bit mask of vertices.  The
prediction is then checked against the actual interval, and
``CellMismatchError`` is raised when they disagree instead of papering over
the difference.  A cell finds its two cocovers among the top's label moves,
and builds weights only to name the nodes of a failed prediction.

Every graph holds its record, as plain data: the diagram, the labels, shift
and shift text of each node, and the ends, kind, root and case of each edge,
from the walk that built it, the document ``graph_from_json`` read, or the
nodes and edges given to ``PosetGraph``, which refuses mixed diagrams, a
repeated node and a missing endpoint.  A graph the library returns builds
its weights and edges only when a caller reads them, and ``export_graph``
writes from the record alone, without building or hashing a weight.
"""

from __future__ import annotations

import enum
import functools
import json

from . import _LAZY
from .cartan import _set, _Value, build_affine, format_shift
from .covering import (
    CoverEdge,
    _across,
    _cocover_steps,
    _edge_from_record,
    _label_moves,
    _require_dominant_positive,
    cocovers,
)
from .roots import CoverKind
from .weights import (
    Weight,
    _corner,
    _dominance_gap,
    _json_object,
    _json_string,
    _level,
    _shift_at,
    _weight,
    weight_from_json,
)

__all__ = [name for name, home in _LAZY.items() if home == "poset"]


class IncomparableError(ValueError):
    """The requested endpoints are not comparable in the dominance order."""


class CellMismatchError(ValueError):
    """The predicted cell differs from the actual interval."""


class IntervalTooLargeError(ValueError):
    """The interval holds more nodes than the search may visit."""


class CellShape(enum.Enum):
    DIAMOND = "diamond"
    PENTAGON = "pentagon"
    DOUBLE_PENTAGON = "double_pentagon"
    DELTA_INTERVAL = "delta_interval"


class PosetGraph(_Value):
    """Nodes and cover edges of a finite piece of the dominance order.

    Every graph holds its record, which ``export_graph`` writes from: the
    diagram, each node's labels, shift and shift text, and each edge's ends
    as node indices with its kind, root and case.  A graph the library
    returns builds ``nodes`` and ``edges`` from it on first read; one built
    by hand keeps those it was given, and is refused if they mix diagrams,
    repeat a node, miss an edge's endpoint or repeat an edge.  Like
    ``_hash``, the record is no field: equality, hashing and repr read the
    nodes and edges.
    """

    _fields = ("nodes", "edges")

    def __init__(self, nodes, edges) -> None:
        nodes, edges = tuple(nodes), tuple(edges)
        if any(node.diagram != nodes[0].diagram for node in nodes):
            raise ValueError("graph mixes diagrams")
        index = {node: k for k, node in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("graph repeats a node")
        arcs = [
            (index.get(edge.upper), index.get(edge.lower), edge.kind, edge.root, edge.case)
            for edge in edges
        ]
        if any(upper is None or lower is None for upper, lower, *_ in arcs):
            raise ValueError("edge endpoint missing from the node list")
        super().__init__(nodes, edges)
        _set(self, "_record", _make_record(nodes, arcs))

    @functools.cached_property
    def nodes(self) -> tuple:
        diagram, entries, _ = self._record
        return tuple(_weight(diagram, labs, shift) for labs, shift, _ in entries)

    @functools.cached_property
    def edges(self) -> tuple:
        nodes = self.nodes
        return tuple(
            CoverEdge(nodes[upper], nodes[lower], kind, root, case)
            for upper, lower, kind, root, case in self._record[2]
        )

    def __reduce__(self):
        return _recorded, (self._record,)


def _recorded(record: tuple) -> PosetGraph:
    """A graph that holds only its record."""
    graph = object.__new__(PosetGraph)
    _set(graph, "_record", record)
    return graph


class Cell(_Value):
    __slots__ = _fields = ("shape", "case", "graph")


_MAX_NODES = 100000


def interval(top: Weight, bottom: Weight) -> PosetGraph:
    """Hasse diagram of every dominant weight between bottom and top."""
    start = _dominance_gap(bottom, top)
    if start is None:
        raise IncomparableError(f"{bottom} does not lie below {top}")
    return _graph(top, *_walk(top, start))


def _walk(top: Weight, start: tuple) -> tuple:
    """The labels of each node of the interval from top - start to top, and
    its arcs (upper, lower, step, case), on integer state.

    Each node is its gap to the top, the root vector top - node, and a
    cocover stays inside while its gap is at most start.  Each node reads
    its steps from the memo ``covering._cocover_steps``, and a new node's
    labels are built from the step's change.
    """
    diagram = top.diagram
    zero = (0,) * len(start)
    labels = {zero: _require_dominant_positive(top)}
    frontier = [zero]
    arcs = []
    while frontier:
        nxt = []
        for gap in frontier:
            labs = labels[gap]
            for step, case in _cocover_steps(diagram, labs):
                below = list(gap)
                coeffs = step.root.coeffs
                for v in step.supp:
                    below[v] += coeffs[v]
                    if below[v] > start[v]:
                        break
                else:
                    below = tuple(below)
                    if below not in labels:
                        labels[below] = _across(labs, step, -1)
                        nxt.append(below)
                        if len(labels) > _MAX_NODES:
                            raise IntervalTooLargeError(f"interval exceeds {_MAX_NODES} nodes")
                    arcs.append((gap, below, step, case))
        frontier = nxt
    return labels, arcs


def _graph(top: Weight, labels: dict, arcs: list) -> PosetGraph:
    """The graph of a walk from the top, as its record.  The level is
    constant and the shift falls as the gap at vertex 0 rises, so (labels,
    -gap[0]) sorts like ``sort_key``."""
    order = sorted(labels, key=lambda gap: (labels[gap], -gap[0]))
    rank = {gap: r for r, gap in enumerate(order)}
    shifts = {g0: _shift_at(top, -g0) for g0 in {gap[0] for gap in order}}
    texts = {g0: format_shift(shift) for g0, shift in shifts.items()}
    entries = [(labels[gap], shifts[gap[0]], texts[gap[0]]) for gap in order]
    # no two arcs join the same pair of nodes, so the ranks alone sort them
    ranked = sorted(
        (rank[upper], rank[lower], step.kind, step.root, case) for upper, lower, step, case in arcs
    )
    return _recorded((top.diagram, entries, ranked))


def _subset_graph(diagram, family):
    """Node set and edge pair set of the weights ``lam - e_S`` for S in the
    family, each S a bit mask of vertices and each node given by its gap to
    ``lam``, the 0/1 vector of S.

    ``e_S`` is the sum of the simple roots of S, so the order among these
    weights is inclusion of S, and the edges are the covers of inclusion
    within the family.
    """
    order = sorted(family, key=int.bit_count)
    nodes = {s: tuple(s >> j & 1 for j in diagram.vertices) for s in order}
    pairs = set()
    for k, s in enumerate(order):
        below = []
        # sets run by size, so a superset of s comes after it, and is a
        # cover unless it contains one already kept
        for t in order[k + 1:]:
            if t & s == s and not any(t & c == c for c in below):
                below.append(t)
        pairs.update((nodes[s], nodes[t]) for t in below)
    return set(nodes.values()), pairs


@functools.lru_cache(maxsize=None)
def _settled(diagram) -> tuple:
    # label j is settled by the last vertex k of column j, whose rows ascend
    last = [col[-1][0] for col in diagram.columns]
    return tuple(tuple(j for j in diagram.vertices if last[j] == k) for k in diagram.vertices)


def _delta_interval(lam):
    """Node set and edge pair set of the interval from ``lam`` - delta to ``lam``.

    Every mark of A(n,1) is 1, so delta is the all-ones root vector and the
    interval holds exactly the dominant weights ``lam - e_S`` for subsets S
    of the vertices, ordered by inclusion of S.  The subsets, bit masks of
    vertices, are grown one vertex at a time, carrying their labels: taking
    vertex k subtracts Cartan column k, which is nonzero at k and its
    neighbours only.  A branch is cut as soon as a label that vertex k
    settles, one no later vertex changes, is negative.
    """
    diagram = lam.diagram
    columns, settled = diagram.columns, _settled(diagram)
    found = []
    stack = [(0, 0, lam.labels)]
    while stack:
        k, mask, labs = stack.pop()
        if k > diagram.n:
            found.append(mask)
            continue
        taken = list(labs)
        for w, x in columns[k]:
            taken[w] -= x
        for chosen, now in ((mask, labs), (mask | 1 << k, taken)):
            for j in settled[k]:
                if now[j] < 0:
                    break
            else:
                stack.append((k + 1, chosen, now))
    return _subset_graph(diagram, found)


def _predict(lam, ka, kb):
    """Node set and edge pair set, as gaps to ``lam``, shape, and case tag
    for the cell whose two cover roots have the vertex sets ka and kb as
    supports.

    When the two supports cover the cycle the meet is ``lam`` - delta, and
    the case's diagram holds only if it is the whole delta interval.
    """
    family, shape, case = _case_shape(lam.diagram, ka, kb)
    nodes, pairs = _subset_graph(lam.diagram, family)
    if len(ka | kb) > lam.diagram.n:
        delta_nodes, delta_pairs = _delta_interval(lam)
        if (delta_nodes, delta_pairs) != (nodes, pairs):
            return delta_nodes, delta_pairs, CellShape.DELTA_INTERVAL, case
    return nodes, pairs, shape, case


def _case_shape(diagram, ka, kb):
    """Vertex sets S of the nodes ``lam - e_S``, as bit masks, shape, and
    case tag that the supports ka and kb of the two cover roots predict.

    The family holds the empty set, ka, kb and their union; when the two
    are disjoint and i in ka is next to i2 in kb, so both end their paths,
    the least such pair also adds {i, i2}, ka + i2 and kb + i.
    """
    a, b = sum(1 << v for v in ka), sum(1 << v for v in kb)
    family = {0, a, b, a | b}
    # on the cycle, u in ka next to v in kb has a neighbour outside ka: u ends ka, v ends kb
    ends = [] if ka & kb else [(u, v) for u in ka for v in diagram.adjacency[u] if v in kb]
    if ends:
        i, i2 = min(ends)
        family |= {1 << i | 1 << i2, a | 1 << i2, b | 1 << i}
    if len(ka) == 1 and len(kb) == 1:
        case = "1a"
    elif ka & kb:
        case = "1c"
    elif not ends:
        case = "1b"  # disjoint with no adjacent ends
    else:
        case = "2" if len(ka) == 1 or len(kb) == 1 else "3"
    shape = {4: CellShape.DIAMOND, 5: CellShape.PENTAGON, 7: CellShape.DOUBLE_PENTAGON}
    return family, shape[len(family)], case


def _node_tag(labels: tuple, shift: str) -> str:
    """A node's DOT name: its labels and its formatted shift."""
    return f"{','.join(map(str, labels))}|{shift}"


def _finite_steps(lam: Weight) -> dict:
    """The finite cover steps below a top of A(n,1), the only type whose
    cells are classified, keyed by the labels below them; the kernel of A
    is spanned by delta, so no two share a key."""
    tid = lam.diagram.type_id
    if tid.family != "A" or tid.twist != 1:
        raise ValueError(f"basic cells are classified for A(n,1) only, not {tid}")
    moves = _label_moves(lam.diagram, _require_dominant_positive(lam), -1)
    return {labs: step for step, labs, _ in moves if step.kind is not CoverKind.DELTA}


def basic_cell(lam: Weight, mu: Weight, mu2: Weight) -> Cell:
    """Interval between a weight and the meet of two of its cocovers.

    Only untwisted type A is classified.  Both lower arguments must be
    distinct cocovers of the top weight along finite cover roots; the delta
    edge never bounds a cell.  When the two root supports cover the cycle
    the cell is the whole interval down to the top minus delta, with shape
    ``DELTA_INTERVAL`` unless it is the diagram the support case predicts.

    Each lower argument is one lookup by its labels in ``_finite_steps``,
    which the ``cell`` command also reads, then a check of its diagram and
    the step's shift; the two steps give the prediction its supports and
    the walk its bound.
    """
    finite = _finite_steps(lam)
    if mu == mu2:
        raise ValueError("the two cocovers must be distinct")
    step_a, step_b = finite.get(mu.labels), finite.get(mu2.labels)
    for step, lower in ((step_a, mu), (step_b, mu2)):
        if (
            step is None
            or lower.diagram != lam.diagram
            or lower.shift != _shift_at(lam, -step.root.coeffs[0])
        ):
            raise ValueError("both weights must be cocovers of the top along finite roots")
    nodes, pairs, shape, case = _predict(lam, frozenset(step_a.supp), frozenset(step_b.supp))
    # lam minus the meet is the larger of the two roots at each vertex
    start = tuple(map(max, step_a.root.coeffs, step_b.root.coeffs))
    labels, arcs = _walk(lam, start)
    actual_pairs = {(upper, lower) for upper, lower, _, _ in arcs}
    if nodes != labels.keys() or pairs != actual_pairs:

        def tags(gaps):
            below = [_corner(lam, [-g for g in gap]) for gap in gaps]
            return sorted(_node_tag(labs, format_shift(_shift_at(lam, c0))) for labs, c0 in below)

        raise CellMismatchError(
            f"case {case} predicts nodes {tags(nodes)} "
            f"({len(pairs)} edges) but the interval has {tags(labels)} "
            f"({len(actual_pairs)} edges)"
        )
    return Cell(shape, case, _graph(lam, labels, arcs))


def _make_record(nodes: tuple, arcs: list) -> tuple:
    """The record of nodes and of edges whose ends are node indices, no two with the same ends."""
    if len({arc[:2] for arc in arcs}) != len(arcs):
        raise ValueError("graph repeats an edge")
    entries = [(node.labels, node.shift, format_shift(node.shift)) for node in nodes]
    return nodes[0].diagram if nodes else None, entries, arcs


def export_graph(graph: PosetGraph, fmt: str = "json"):
    """Render a graph as a JSON-ready dict or as DOT text."""
    if fmt not in ("json", "dot"):
        raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'dot'")
    diagram, entries, arcs = graph._record
    # an enum's .value is a property; _value_ is the member's own attribute
    if fmt == "dot":
        tag = [_node_tag(labs, text) for labs, _, text in entries]
        # sort_key order, read off the entries
        order = sorted(
            range(len(entries)),
            key=lambda k: (_level(diagram, entries[k][0]), *entries[k][:2]),
        )
        rank = dict(zip(order, range(len(order))))
        lines = ["digraph poset {", "  rankdir=TB;"]
        lines += (f'  "{tag[k]}";' for k in order)
        for upper, lower, kind, _, case in sorted(arcs, key=lambda a: (rank[a[0]], rank[a[1]])):
            lines.append(
                f'  "{tag[upper]}" -> "{tag[lower]}" [label="{case}", kind="{kind._value_}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    return {
        "type": None if diagram is None else str(diagram.type_id),
        "nodes": [{"labels": list(labs), "delta_shift": text} for labs, _, text in entries],
        "edges": [
            {
                "upper": upper,
                "lower": lower,
                "kind": kind._value_,
                "root": list(root.coeffs),
                "case": case,
            }
            for upper, lower, kind, root, case in arcs
        ],
    }


def graph_from_json(data) -> PosetGraph:
    """Inverse of the JSON export; every node takes the graph's type, and a
    malformed document raises ValueError."""
    if isinstance(data, str):
        data = json.loads(data)
    type_text, entries, records = _json_object(data, "type", "nodes", "edges")
    if not isinstance(entries, list) or not isinstance(records, list):
        raise ValueError("nodes and edges must be lists")
    if type_text is None:
        if entries or records:
            raise ValueError("nonempty graph without a type")
        return _recorded(_make_record((), []))
    build_affine(_json_string(type_text, "type"))  # the type must be valid even with no nodes

    def node(entry):
        _json_object(entry)  # a node must be an object
        if entry.get("type", type_text) != type_text:
            raise ValueError(f"node of type {entry['type']!r} in a graph of type {type_text}")
        weight = weight_from_json({**entry, "type": type_text})
        _require_dominant_positive(weight)
        return weight

    nodes = tuple(map(node, entries))
    if len(set(nodes)) != len(nodes):
        raise ValueError("graph repeats a node")

    def node_at(index):
        if type(index) is not int or not 0 <= index < len(nodes):
            raise ValueError(f"edge endpoint {index!r} is not a node index")
        return nodes[index]

    listed = functools.lru_cache(maxsize=None)(cocovers)  # once per upper node
    arcs = []
    for entry in records:
        upper, lower = _json_object(entry, "upper", "lower")
        edge = _edge_from_record(node_at(upper), node_at(lower), entry, listed)
        arcs.append((upper, lower, edge.kind, edge.root, edge.case))
    return _recorded(_make_record(nodes, arcs))

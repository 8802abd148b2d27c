"""Intervals in the dominance order and the basic cells of untwisted type A.

An interval is computed by walking cocovers downward from the top; since the
interval is order convex, covers taken inside it are covers of the full
poset.  ``basic_cell`` predicts the interval under a weight ``lam`` and the
meet of two of its cocovers as a family of vertex sets S: the nodes are the
weights ``lam - e_S``, with ``e_S`` the sum of the simple roots of S, and the
edges are the covers of inclusion among the sets.  The family is the
diamond, pentagon, or double pentagon that the supports of the two cover
roots select, or every dominant ``lam - e_S`` down to the delta shift when
the two supports cover the cycle.  The prediction is then checked against
the actual interval, and ``CellMismatchError`` is raised when they disagree
instead of papering over the difference.
"""

from __future__ import annotations

import enum
import functools
import json

from . import _LAZY
from .cartan import _set, _Value, build_affine, format_shift
from .covering import (
    CoverEdge,
    _edge_fields,
    _edge_from_record,
    _label_moves,
    _require_dominant_positive,
    cocovers,
)
from .roots import CoverKind
from .weights import (
    Weight,
    _dominance_gap,
    _json_object,
    _json_string,
    _moved,
    _plus_delta,
    sort_key,
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
    """Nodes and cover edges of a finite piece of the dominance order."""

    __slots__ = _fields = ("nodes", "edges")

    def __init__(self, nodes, edges) -> None:
        _set(self, "nodes", tuple(nodes))
        _set(self, "edges", tuple(edges))


class Cell(_Value):
    __slots__ = _fields = ("shape", "case", "graph")

    def __init__(self, shape: CellShape, case: str, graph: PosetGraph) -> None:
        _set(self, "shape", shape)
        _set(self, "case", case)
        _set(self, "graph", graph)


_MAX_NODES = 100000


def interval(top: Weight, bottom: Weight) -> PosetGraph:
    """Hasse diagram of every dominant weight between bottom and top."""
    start = _dominance_gap(bottom, top)
    if start is None:
        raise IncomparableError(f"{bottom} does not lie below {top}")
    return _graph(top, *_walk(top, start))


def _walk(top: Weight, start: tuple) -> tuple:
    """The labels of each node of the interval from top - start to top, and
    its arcs (upper, lower, candidate, case), on integer state.

    Each node is its gap to the top, the root vector top - node, and a
    cocover stays inside while its gap is at most start.  Nodes that differ
    by a multiple of delta share their labels, so the moves of each label
    tuple are found once.
    """
    diagram = top.diagram
    zero = (0,) * len(start)
    labels = {zero: _require_dominant_positive(top)}
    moves = {}
    frontier = [zero]
    arcs = []
    while frontier:
        nxt = []
        for gap in frontier:
            labs = labels[gap]
            found = moves.get(labs)
            if found is None:
                found = moves[labs] = _label_moves(diagram, labs, -1)
            for step, across, case in found:
                below = list(gap)
                coeffs = step.cand.root.coeffs
                for v in step.supp:
                    below[v] += coeffs[v]
                    if below[v] > start[v]:
                        break
                else:
                    below = tuple(below)
                    if below not in labels:
                        labels[below] = across
                        nxt.append(below)
                        if len(labels) > _MAX_NODES:
                            raise IntervalTooLargeError(f"interval exceeds {_MAX_NODES} nodes")
                    arcs.append((gap, below, step.cand, case))
        frontier = nxt
    return labels, arcs


def _graph(top: Weight, labels: dict, arcs: list) -> PosetGraph:
    """The weights and edges of a walk from the top.  The level is constant
    and the shift falls as the gap at vertex 0 rises, so (labels, -gap[0])
    sorts like ``sort_key``."""
    order = sorted(labels, key=lambda gap: (labels[gap], -gap[0]))
    rank = {gap: r for r, gap in enumerate(order)}
    diagram = top.diagram
    mark0 = diagram.marks[0]
    shifts = {g0: _plus_delta(top.shift, -g0, mark0) for g0 in {gap[0] for gap in order}}
    nodes = {gap: Weight(diagram, labels[gap], shifts[gap[0]]) for gap in order}
    arcs.sort(key=lambda arc: (rank[arc[0]], rank[arc[1]]))
    return PosetGraph(
        nodes.values(),
        (
            CoverEdge(nodes[upper], nodes[lower], cand.kind, cand.root, case)
            for upper, lower, cand, case in arcs
        ),
    )


def _path_ends(diagram, subset):
    # ends of a connected path inside the type A cycle
    return sorted(v for v in subset if len(subset.intersection(diagram.adjacency[v])) <= 1)


def _subset_graph(diagram, family):
    """Node set and edge pair set of the weights ``lam - e_S`` for S in the
    family, each node given by its gap to ``lam``, the 0/1 vector of S.

    ``e_S`` is the sum of the simple roots of S, so the order among these
    weights is inclusion of S, and the edges are the covers of inclusion
    within the family.
    """
    order = sorted(family, key=len)
    nodes = {s: tuple(int(j in s) for j in diagram.vertices) for s in order}
    pairs = set()
    for s in order:
        below = []
        # sets run by size, so a superset of s is a cover unless it contains
        # one already kept
        for t in order:
            if s < t and not any(c <= t for c in below):
                below.append(t)
        pairs.update((nodes[s], nodes[t]) for t in below)
    return set(nodes.values()), pairs


def _delta_interval(lam):
    """Node set and edge pair set of the interval from ``lam`` - delta to ``lam``.

    Every mark of A(n,1) is 1, so delta is the all-ones root vector and the
    interval holds exactly the dominant weights ``lam - e_S`` for subsets S
    of the vertices, ordered by inclusion of S.  The subsets are grown one
    vertex at a time, carrying their labels: taking vertex k subtracts
    Cartan column k, which is nonzero at k and its neighbours only.  A
    branch is cut as soon as the label of a vertex whose neighbours are all
    decided is negative.
    """
    diagram = lam.diagram
    columns = diagram.columns
    # label j is settled by the last vertex k of column j, whose rows ascend
    settled = [[j for j, col in enumerate(columns) if col[-1][0] == k] for k in diagram.vertices]
    found = []
    stack = [(0, frozenset(), lam.labels)]
    while stack:
        k, subset, labs = stack.pop()
        if k > diagram.n:
            found.append(subset)
            continue
        taken = list(labs)
        for w, x in columns[k]:
            taken[w] -= x
        for chosen, now in ((subset, labs), (subset | {k}, taken)):
            if all(now[j] >= 0 for j in settled[k]):
                stack.append((k + 1, chosen, now))
    return _subset_graph(diagram, found)


def _predict(lam, edge_a, edge_b):
    """Node set and edge pair set, as gaps to ``lam``, shape, and case tag
    for the predicted cell.

    When the two supports cover the cycle the meet is ``lam`` - delta, and
    the case's diagram holds only if it is the whole delta interval.
    """
    family, shape, case = _case_shape(lam.diagram, edge_a, edge_b)
    nodes, pairs = _subset_graph(lam.diagram, family)
    if edge_a.root.support() | edge_b.root.support() == set(lam.diagram.vertices):
        delta_nodes, delta_pairs = _delta_interval(lam)
        if (delta_nodes, delta_pairs) != (nodes, pairs):
            return delta_nodes, delta_pairs, CellShape.DELTA_INTERVAL, case
    return nodes, pairs, shape, case


def _case_shape(diagram, edge_a, edge_b):
    """Vertex sets S of the nodes ``lam - e_S``, shape, and case tag that
    the supports K_a and K_b of the two cover roots predict.

    The family holds the empty set, K_a, K_b and their union; when the two
    are disjoint and an end i of one path is next to an end i2 of the
    other, the least such pair also adds {i, i2}, K_a + i2 and K_b + i.
    """
    ka = edge_a.root.support()
    kb = edge_b.root.support()
    family = {frozenset(), ka, kb, ka | kb}
    ends = [] if ka & kb else [
        (u, v)
        for u in _path_ends(diagram, ka)
        for v in _path_ends(diagram, kb)
        if v in diagram.adjacency[u]
    ]
    if ends:
        i, i2 = min(ends)
        family |= {frozenset({i, i2}), ka | {i2}, kb | {i}}
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


def _node_tag(weight: Weight) -> str:
    labs = ",".join(map(str, weight.labels))
    return f"{labs}|{format_shift(weight.shift)}"


def basic_cell(lam: Weight, mu: Weight, mu2: Weight) -> Cell:
    """Interval between a weight and the meet of two of its cocovers.

    Only untwisted type A is classified.  Both lower arguments must be
    distinct cocovers of the top weight along finite cover roots; the delta
    edge never bounds a cell.  When the two root supports cover the cycle
    the cell is the whole interval down to the top minus delta, with shape
    ``DELTA_INTERVAL`` unless it is the diagram the support case predicts.
    """
    tid = lam.diagram.type_id
    if tid.family != "A" or tid.twist != 1:
        raise ValueError(f"basic cells are classified for A(n,1) only, not {tid}")
    if mu == mu2:
        raise ValueError("the two cocovers must be distinct")
    by_lower = {}
    for edge in cocovers(lam):
        if edge.kind is not CoverKind.DELTA:
            by_lower[edge.lower] = edge
    if mu not in by_lower or mu2 not in by_lower:
        raise ValueError(
            "both weights must be cocovers of the top along finite roots"
        )
    edge_a, edge_b = by_lower[mu], by_lower[mu2]
    nodes, pairs, shape, case = _predict(lam, edge_a, edge_b)
    # lam minus the meet is the larger of the two roots at each vertex
    labels, arcs = _walk(lam, tuple(map(max, edge_a.root.coeffs, edge_b.root.coeffs)))
    actual_pairs = {(upper, lower) for upper, lower, _, _ in arcs}
    if nodes != labels.keys() or pairs != actual_pairs:

        def tags(gaps):
            return sorted(_node_tag(_moved(lam, [-g for g in gap])) for gap in gaps)

        raise CellMismatchError(
            f"case {case} predicts nodes {tags(nodes)} "
            f"({len(pairs)} edges) but the interval has {tags(labels)} "
            f"({len(actual_pairs)} edges)"
        )
    return Cell(shape, case, _graph(lam, labels, arcs))


def export_graph(graph: PosetGraph, fmt: str = "json"):
    """Render a graph as a JSON-ready dict or as DOT text."""
    if graph.nodes:
        diagram = graph.nodes[0].diagram
        for node in graph.nodes:
            if node.diagram != diagram:
                raise ValueError("graph mixes diagrams")
    else:
        diagram = None
    index = {node: k for k, node in enumerate(graph.nodes)}
    if len(index) != len(graph.nodes):
        raise ValueError("graph repeats a node")
    ends = [(index.get(edge.upper), index.get(edge.lower)) for edge in graph.edges]
    if any(None in pair for pair in ends):
        raise ValueError("edge endpoint missing from the node list")
    if fmt == "json":
        nodes = [
            {"labels": list(node.labels), "delta_shift": format_shift(node.shift)}
            for node in graph.nodes
        ]
        edges = [
            {"upper": upper, "lower": lower, **_edge_fields(edge)}
            for (upper, lower), edge in zip(ends, graph.edges)
        ]
        return {
            "type": str(diagram.type_id) if diagram is not None else None,
            "nodes": nodes,
            "edges": edges,
        }
    if fmt == "dot":
        lines = ["digraph poset {", "  rankdir=TB;"]
        for node in sorted(graph.nodes, key=sort_key):
            lines.append(f'  "{_node_tag(node)}";')
        for edge in sorted(
            graph.edges, key=lambda e: (sort_key(e.upper), sort_key(e.lower))
        ):
            lines.append(
                f'  "{_node_tag(edge.upper)}" -> "{_node_tag(edge.lower)}"'
                f' [label="{edge.case}", kind="{edge.kind.value}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'dot'")


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
        return PosetGraph((), ())
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
    edges = []
    for entry in records:
        upper, lower = _json_object(entry, "upper", "lower")
        edges.append(_edge_from_record(node_at(upper), node_at(lower), entry, listed))
    if len(set(edges)) != len(edges):
        raise ValueError("graph repeats an edge")
    return PosetGraph(nodes, tuple(edges))

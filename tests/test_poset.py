import collections
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

import affposet.poset as poset
import affposet.weights as weights
from affposet.cartan import build_affine, catalog_types, format_shift, parse_type_id
from affposet.covering import CoverEdge, CoverKind, cocovers, edge_from_json
from affposet.poset import (
    Cell,
    CellMismatchError,
    CellShape,
    IncomparableError,
    IntervalTooLargeError,
    PosetGraph,
    basic_cell,
    export_graph,
    graph_from_json,
    interval,
)
from affposet.weights import (
    Weight,
    _dominance_gap,
    add_root,
    delta_shift,
    dominance_leq,
    fundamental_weight,
    labels,
    sort_key,
    weight_from_json,
    weight_from_labels,
)
from affposet.roots import RootVector, delta_root, simple_root


def D(name):
    return build_affine(parse_type_id(name))


def W(name, labs, shift=0):
    return weight_from_labels(D(name), labs, shift)


def int_labels(w):
    return tuple(int(v) for v in labels(w))


def node_digest(graph):
    return sorted((int_labels(w), delta_shift(w)) for w in graph.nodes)


def edge_digest(graph):
    out = []
    for e in graph.edges:
        out.append((int_labels(e.upper), int_labels(e.lower), e.case))
    return sorted(out)


def _less(weight, *roots):
    """The weight minus the sum of the root vectors."""
    for root in roots:
        weight = add_root(weight, RootVector(root.diagram, tuple(-c for c in root.coeffs)))
    return weight


def test_interval_is_a_delta_chain():
    top = fundamental_weight(D("A1-1"), 0)
    d = delta_root(D("A1-1"))
    bottom = _less(top, d, d)
    g = interval(top, bottom)
    assert len(g.nodes) == 3
    assert sorted(delta_shift(w) for w in g.nodes) == [-2, -1, 0]
    assert len(g.edges) == 2
    assert all(e.case == "f" for e in g.edges)
    assert all(e.kind is CoverKind.DELTA for e in g.edges)


def test_interval_pentagon_frozen():
    g = interval(W("A3-1", (0, 2, 1, 1)), W("A3-1", (2, 1, 1, 0)))
    assert node_digest(g) == [
        ((0, 2, 1, 1), 0),
        ((1, 0, 2, 1), 0),
        ((1, 1, 0, 2), 0),
        ((1, 3, 0, 0), 0),
        ((2, 1, 1, 0), 0),
    ]
    assert edge_digest(g) == [
        ((0, 2, 1, 1), (1, 0, 2, 1), "a"),
        ((0, 2, 1, 1), (1, 3, 0, 0), "b"),
        ((1, 0, 2, 1), (1, 1, 0, 2), "a"),
        ((1, 1, 0, 2), (2, 1, 1, 0), "a"),
        ((1, 3, 0, 0), (2, 1, 1, 0), "a"),
    ]


def test_interval_trivial_and_errors():
    top = W("A2-1", (0, 2, 2))
    g = interval(top, top)
    assert len(g.nodes) == 1 and len(g.edges) == 0
    with pytest.raises(IncomparableError):
        interval(W("A2-1", (1, 3, 0), -1), W("A2-1", (1, 0, 3)))
    with pytest.raises(IncomparableError):
        interval(W("A2-1", (2, 1, 1)), top)


@pytest.mark.parametrize("labs", [(-1, 0, 0), (0, 0, 0)])
def test_interval_of_one_weight_checks_it(labs):
    # a weight that is not dominant, or of level zero, is refused as a top
    # whether the bottom is the weight itself or lies below it
    w = W("A2-1", labs)
    errors = []
    for bottom in (W("A2-1", labs, -1), w):
        with pytest.raises(ValueError) as caught:
            interval(w, bottom)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


def test_interval_too_large_is_a_named_error(monkeypatch):
    top, bottom = W("A3-1", (0, 2, 1, 1)), W("A3-1", (2, 1, 1, 0))
    monkeypatch.setattr(poset, "_MAX_NODES", 3)
    with pytest.raises(IntervalTooLargeError, match="exceeds 3 nodes"):
        interval(top, bottom)
    monkeypatch.setattr(poset, "_MAX_NODES", 5)
    assert len(interval(top, bottom).nodes) == 5
    # the bound is the module's, not the caller's
    with pytest.raises(TypeError):
        interval(top, bottom, max_nodes=5)


def _edge_tested_interval(top, bottom):
    """Reference: the breadth-first walk that tests every cocover against
    the bottom with dominance_leq."""
    seen, frontier, edges = {top}, [top], []
    while frontier:
        nxt = []
        for node in frontier:
            for edge in cocovers(node):
                if not dominance_leq(bottom, edge.lower):
                    continue
                edges.append(edge)
                if edge.lower not in seen:
                    seen.add(edge.lower)
                    nxt.append(edge.lower)
        frontier = nxt
    return PosetGraph(
        sorted(seen, key=sort_key),
        sorted(edges, key=lambda e: (sort_key(e.upper), sort_key(e.lower))),
    )


@pytest.mark.parametrize(
    "name", [str(t) for t in catalog_types() if build_affine(t).n <= 6]
)
def test_interval_matches_edge_tested_walk(name):
    d = D(name)
    rng = random.Random(name)
    for _ in range(6):
        labs = tuple(rng.choice((0, 0, 1, 2)) for _ in d.vertices)
        if not any(labs):
            continue
        top = weight_from_labels(d, labs, rng.randint(-2, 2))
        for k in (1, 2):
            bottom = weight_from_labels(d, labs, top.shift - k)
            assert interval(top, bottom) == _edge_tested_interval(top, bottom), (top, k)


def test_interval_respects_order_direction():
    with pytest.raises(IncomparableError):
        interval(W("A3-1", (2, 1, 1, 0)), W("A3-1", (0, 2, 1, 1)))


def test_cell_diamond_shared_vertex():
    lam = W("A2-1", (0, 2, 2))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lowers[(1, 0, 3)], lowers[(1, 3, 0)])
    assert cell.shape is CellShape.DIAMOND
    assert cell.case == "1a"
    assert node_digest(cell.graph) == [
        ((0, 2, 2), 0),
        ((1, 0, 3), 0),
        ((1, 3, 0), 0),
        ((2, 1, 1), 0),
    ]


def test_cell_diamond_disjoint_supports():
    lam = W("A4-1", (1, 1, 1, 1, 2))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lowers[(2, 0, 0, 2, 2)], lowers[(2, 1, 1, 2, 0)])
    assert cell.shape is CellShape.DIAMOND
    assert cell.case == "1b"
    assert node_digest(cell.graph) == [
        ((1, 1, 1, 1, 2), 0),
        ((2, 0, 0, 2, 2), 0),
        ((2, 1, 1, 2, 0), 0),
        ((3, 0, 0, 3, 0), 0),
    ]


def test_cell_diamond_overlapping_supports():
    lam = W("A4-1", (1, 1, 1, 1, 0))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lowers[(2, 0, 0, 2, 0)], lowers[(0, 0, 2, 1, 1)])
    assert cell.shape is CellShape.DIAMOND
    assert cell.case == "1c"
    assert node_digest(cell.graph) == [
        ((0, 0, 2, 1, 1), -1),
        ((0, 1, 0, 2, 1), -1),
        ((1, 1, 1, 1, 0), 0),
        ((2, 0, 0, 2, 0), 0),
    ]


def test_cell_pentagon_frozen():
    lam = W("A3-1", (0, 2, 1, 1))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lowers[(1, 0, 2, 1)], lowers[(1, 3, 0, 0)])
    assert cell.shape is CellShape.PENTAGON
    assert cell.case == "2"
    assert node_digest(cell.graph) == [
        ((0, 2, 1, 1), 0),
        ((1, 0, 2, 1), 0),
        ((1, 1, 0, 2), 0),
        ((1, 3, 0, 0), 0),
        ((2, 1, 1, 0), 0),
    ]


def test_cell_double_pentagon_frozen():
    lam = W("A4-1", (1, 1, 1, 1, 0))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lowers[(0, 0, 2, 1, 1)], lowers[(1, 2, 0, 0, 1)])
    assert cell.shape is CellShape.DOUBLE_PENTAGON
    assert cell.case == "3"
    assert node_digest(cell.graph) == [
        ((0, 0, 2, 1, 1), -1),
        ((0, 1, 0, 2, 1), -1),
        ((0, 1, 1, 0, 2), -1),
        ((1, 1, 1, 1, 0), 0),
        ((1, 2, 0, 0, 1), 0),
        ((2, 0, 0, 2, 0), 0),
        ((2, 0, 1, 0, 1), 0),
    ]
    assert len(cell.graph.edges) == 9


def test_cell_argument_order_does_not_matter():
    lam = W("A4-1", (1, 1, 1, 1, 0))
    lowers = [e.lower for e in cocovers(lam) if e.kind is not CoverKind.DELTA]
    a = basic_cell(lam, lowers[0], lowers[1])
    b = basic_cell(lam, lowers[1], lowers[0])
    assert node_digest(a.graph) == node_digest(b.graph)
    assert a.shape is b.shape and a.case == b.case


def test_cell_refusals():
    # other families and twisted diagrams are out of classified range
    with pytest.raises(ValueError):
        basic_cell(W("G2-1", (0, 1, 1)), W("G2-1", (1, 0, 0)), W("G2-1", (0, 0, 1)))
    with pytest.raises(ValueError):
        basic_cell(
            W("A5-2", (2, 0, 0, 0)), W("A5-2", (0, 1, 0, 0)), W("A5-2", (0, 0, 0, 1))
        )
    lam = W("A2-1", (0, 2, 2))
    lows = [e.lower for e in cocovers(lam) if e.kind is not CoverKind.DELTA]
    with pytest.raises(ValueError):
        basic_cell(lam, lows[0], lows[0])
    # a delta drop is not a finite cocover
    with pytest.raises(ValueError):
        basic_cell(lam, lows[0], _less(lam, delta_root(D("A2-1"))))
    # near misses of a finite cocover: its labels at a shift one off, and
    # its labels on another diagram of four vertices
    lam = W("A3-1", (0, 2, 1, 1))
    mu, mu2 = W("A3-1", (1, 0, 2, 1)), W("A3-1", (1, 3, 0, 0))
    assert basic_cell(lam, mu, mu2).shape is CellShape.PENTAGON
    for miss in (W("A3-1", mu.labels, -1), W("A3-1", mu.labels, 1), W("C3-1", mu.labels)):
        for pair in ((miss, mu2), (mu2, miss)):
            with pytest.raises(ValueError, match="cocovers of the top along finite roots"):
                basic_cell(lam, *pair)


@pytest.mark.parametrize("name, labs, lower_a, lower_b", [
    ("A4-1", (1, 1, 1, 1, 0), (2, 0, 0, 2, 0), (0, 0, 2, 1, 1)),
    ("A3-1", (0, 2, 1, 1), (1, 0, 2, 1), (1, 3, 0, 0)),
    ("A4-1", (1, 1, 1, 1, 0), (0, 0, 2, 1, 1), (1, 2, 0, 0, 1)),
    ("A2-1", (1, 1, 1), (3, 0, 0), (0, 3, 0)),
])
def test_cell_builds_only_the_weights_and_edges_it_returns(
    monkeypatch, name, labs, lower_a, lower_b
):
    lam = W(name, labs)
    lows = {int_labels(e.lower): e.lower for e in cocovers(lam)
            if e.kind is not CoverKind.DELTA}
    mu, mu2 = lows[lower_a], lows[lower_b]
    built = {Weight: 0, CoverEdge: 0}
    for cls in built:
        real = cls.__init__

        def counted(self, *args, _cls=cls, _real=real):
            built[_cls] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    # the weights the library computes skip __init__ through one constructor
    computed = weights._weight

    def counted_computed(*args):
        built[Weight] += 1
        return computed(*args)

    for module in (weights, poset):
        monkeypatch.setattr(module, "_weight", counted_computed)
    cell = basic_cell(lam, mu, mu2)
    assert built == {Weight: len(cell.graph.nodes), CoverEdge: len(cell.graph.edges)}


def test_cell_mismatch_on_wrap_around_pairs(monkeypatch):
    # supports that cover the whole cycle meet at lam - delta, and the cell
    # is the whole delta interval, with elements beyond the case's diagram
    lam = W("A2-1", (1, 1, 1))
    lows = {int_labels(e.lower): e.lower for e in cocovers(lam)
            if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam, lows[(3, 0, 0)], lows[(0, 3, 0)])
    assert cell.shape is CellShape.DELTA_INTERVAL
    assert cell.case == "1c"
    assert len(cell.graph.edges) == 6
    assert node_digest(cell.graph) == [
        ((0, 0, 3), -1),
        ((0, 3, 0), -1),
        ((1, 1, 1), -1),
        ((1, 1, 1), 0),
        ((3, 0, 0), 0),
    ]
    lam2 = W("A2-1", (2, 1, 1))
    lows2 = {int_labels(e.lower): e.lower for e in cocovers(lam2)
             if e.kind is not CoverKind.DELTA}
    cell = basic_cell(lam2, lows2[(0, 2, 2)], lows2[(4, 0, 0)])
    assert cell.shape is CellShape.DELTA_INTERVAL
    assert cell.case == "2"
    assert len(cell.graph.edges) == 7
    assert node_digest(cell.graph) == [
        ((0, 2, 2), -1),
        ((1, 0, 3), -1),
        ((1, 3, 0), -1),
        ((2, 1, 1), -1),
        ((2, 1, 1), 0),
        ((4, 0, 0), 0),
    ]
    # a prediction that disagrees with the interval is still reported; the
    # prediction holds each node as its gap to the top, zero at the top
    predict = poset._predict

    def drop_top(top, ka, kb):
        nodes, pairs, shape, case = predict(top, ka, kb)
        return nodes - {(0,) * len(top.labels)}, pairs, shape, case

    monkeypatch.setattr(poset, "_predict", drop_top)
    with pytest.raises(CellMismatchError) as error:
        basic_cell(lam, lows[(3, 0, 0)], lows[(0, 3, 0)])
    assert str(error.value) == (
        "case 1c predicts nodes ['0,0,3|-1/1', '0,3,0|-1/1', '1,1,1|-1/1', '3,0,0|0/1'] "
        "(6 edges) but the interval has ['0,0,3|-1/1', '0,3,0|-1/1', '1,1,1|-1/1', "
        "'1,1,1|0/1', '3,0,0|0/1'] (6 edges)"
    )
    with pytest.raises(CellMismatchError):
        basic_cell(lam2, lows2[(0, 2, 2)], lows2[(4, 0, 0)])


def _mask_search_delta_interval(lam):
    """Reference: the mask search that sums Cartan rows over each chosen
    subset for every settled vertex, then builds each node with add_root."""
    diagram = lam.diagram
    a = diagram.cartan
    top = lam.labels
    last = [max(k for k in diagram.vertices if a[j][k]) for j in diagram.vertices]
    settled = [[j for j in diagram.vertices if last[j] == k] for k in diagram.vertices]
    masks = []
    stack = [(0, 0)]
    while stack:
        k, mask = stack.pop()
        if k > diagram.n:
            masks.append(mask)
            continue
        for chosen in (mask, mask | 1 << k):
            if all(
                top[j] >= sum(a[j][i] for i in diagram.vertices if chosen >> i & 1)
                for j in settled[k]
            ):
                stack.append((k + 1, chosen))
    masks.sort(key=lambda m: bin(m).count("1"))
    weights = {
        m: _less(lam, RootVector(diagram, [m >> j & 1 for j in diagram.vertices]))
        for m in masks
    }
    pairs = set()
    for m in masks:
        below = []
        for t in masks:
            if t != m and t & m == m and not any(t & c == c for c in below):
                below.append(t)
        pairs.update((weights[m], weights[t]) for t in below)
    return set(weights.values()), pairs


def test_delta_interval_matches_mask_search():
    rng = random.Random("delta_interval")
    for n in range(1, 9):
        d = D(f"A{n}-1")
        for level in (1, 2, 3, 4):
            for _ in range(4):
                labs = [0] * (n + 1)
                for _ in range(level):
                    labs[rng.randrange(n + 1)] += 1
                shift = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                lam = weight_from_labels(d, labs, shift)
                want = _as_gaps(lam, *_mask_search_delta_interval(lam))
                assert poset._delta_interval(lam) == want, lam


def _as_gaps(lam, nodes, pairs):
    """Nodes and edge pairs of weights below lam as their gaps lam - node."""

    def gap(w):
        return _dominance_gap(w, lam)

    return set(map(gap, nodes)), {(gap(upper), gap(lower)) for upper, lower in pairs}


def _ref_path_ends(diagram, subset):
    return sorted(v for v in subset if len(subset.intersection(diagram.adjacency[v])) <= 1)


def _ref_predict(lam, edge_a, edge_b):
    """Reference: the hand-built cells, each node made with add_root and each
    edge listed, with the library's delta interval for supports that cover
    the cycle; nodes are given by their gaps to lam."""
    nodes, pairs, shape, case = _ref_case_shape(lam, edge_a, edge_b)
    nodes, pairs = _as_gaps(lam, nodes, pairs)
    if edge_a.root.support() | edge_b.root.support() == set(lam.diagram.vertices):
        delta_nodes, delta_pairs = poset._delta_interval(lam)
        if (delta_nodes, delta_pairs) != (nodes, pairs):
            return delta_nodes, delta_pairs, CellShape.DELTA_INTERVAL, case
    return nodes, pairs, shape, case


def _ref_case_shape(lam, edge_a, edge_b):
    diagram = lam.diagram
    ka = set(edge_a.root.support())
    kb = set(edge_b.root.support())
    mu_a, mu_b = edge_a.lower, edge_b.lower
    union = ka | kb
    bottom = _less(lam, RootVector(diagram, [1 if j in union else 0 for j in diagram.vertices]))

    if len(ka) == 1 and len(kb) == 1:
        case = "1a"
    elif ka & kb:
        case = "1c"
    elif not diagram.is_connected(sorted(union)):
        case = "1b"
    elif len(ka) == 1 or len(kb) == 1:
        case = "2"
    else:
        case = "3"

    if case in ("1a", "1b", "1c"):
        nodes = {lam, mu_a, mu_b, bottom}
        pairs = {(lam, mu_a), (lam, mu_b), (mu_a, bottom), (mu_b, bottom)}
        return nodes, pairs, CellShape.DIAMOND, case

    if case == "2":
        if len(ka) == 1:
            i = next(iter(ka))
            mu_s, mu_p, path, gamma_p = mu_a, mu_b, kb, edge_b.root
        else:
            i = next(iter(kb))
            mu_s, mu_p, path, gamma_p = mu_b, mu_a, ka, edge_a.root
        ends = [v for v in _ref_path_ends(diagram, path) if i in diagram.adjacency[v]]
        i1 = min(ends)
        x = _less(lam, simple_root(diagram, i), simple_root(diagram, i1))
        nodes = {lam, mu_s, mu_p, x, bottom}
        pairs = {(lam, mu_s), (lam, mu_p), (mu_s, x), (x, bottom), (mu_p, bottom)}
        return nodes, pairs, CellShape.PENTAGON, case

    contacts = [
        (u, v)
        for u in _ref_path_ends(diagram, ka)
        for v in _ref_path_ends(diagram, kb)
        if v in diagram.adjacency[u]
    ]
    i, i2 = min(contacts)
    e_i, e_i2 = simple_root(diagram, i), simple_root(diagram, i2)
    y = _less(lam, e_i, e_i2)
    p = _less(lam, edge_a.root if i in ka else edge_b.root, e_i2)
    q = _less(lam, edge_b.root if i in ka else edge_a.root, e_i)
    mu, mu2 = (mu_a, mu_b) if i in ka else (mu_b, mu_a)
    nodes = {lam, mu, y, mu2, p, q, bottom}
    pairs = {
        (lam, mu),
        (lam, y),
        (lam, mu2),
        (mu, p),
        (y, p),
        (y, q),
        (mu2, q),
        (p, bottom),
        (q, bottom),
    }
    return nodes, pairs, CellShape.DOUBLE_PENTAGON, case


def test_predict_matches_hand_built_cells():
    # every pair of finite-root cocovers of every label tuple on A1-1 to
    # A8-1, at levels up to 5 through A5-1 and up to 3 above it
    count = 0
    for n in range(1, 9):
        d = D(f"A{n}-1")
        top = 5 if n <= 5 else 3
        for labs in itertools.product(range(top + 1), repeat=n + 1):
            if not 0 < sum(labs) <= top:
                continue
            lam = weight_from_labels(d, labs)
            edges = [e for e in cocovers(lam) if e.kind is not CoverKind.DELTA]
            for edge_a, edge_b in itertools.combinations(edges, 2):
                want = _ref_predict(lam, edge_a, edge_b)
                ka, kb = edge_a.root.support(), edge_b.root.support()
                assert poset._predict(lam, ka, kb) == want, (lam, edge_a, edge_b)
                count += 1
    assert count == 1575


def test_export_graph_dot_frozen():
    g = interval(W("A3-1", (2, 0, 2, 0)), W("A3-1", (0, 2, 0, 2), -1))
    expected = "\n".join([
        "digraph poset {",
        "  rankdir=TB;",
        '  "0,1,2,1|-1/1";',
        '  "0,2,0,2|-1/1";',
        '  "2,0,2,0|0/1";',
        '  "2,1,0,1|0/1";',
        '  "0,1,2,1|-1/1" -> "0,2,0,2|-1/1" [label="a", kind="simple"];',
        '  "2,0,2,0|0/1" -> "0,1,2,1|-1/1" [label="a", kind="simple"];',
        '  "2,0,2,0|0/1" -> "2,1,0,1|0/1" [label="a", kind="simple"];',
        '  "2,1,0,1|0/1" -> "0,2,0,2|-1/1" [label="a", kind="simple"];',
        "}",
    ]) + "\n"
    assert export_graph(g, "dot") == expected


def test_export_graph_json_round_trip():
    rng = random.Random(11)
    diagrams = ["A2-1", "A3-1", "C2-1", "G2-1", "A2-2", "D3-2"]
    for name in diagrams:
        d = D(name)
        for _ in range(4):
            labs = tuple(rng.randint(0, 2) for _ in d.vertices)
            if not any(labs):
                labs = tuple(1 for _ in d.vertices)
            top = weight_from_labels(d, labs)
            bottom = top
            for _ in range(rng.randint(1, 3)):
                edges = cocovers(bottom)
                if not edges:
                    break
                bottom = rng.choice(edges).lower
            g = interval(top, bottom)
            data = export_graph(g, "json")
            assert graph_from_json(data) == g
            assert graph_from_json(json.dumps(data)) == g
            # edges that hold equal copies of the nodes export the same
            copied = PosetGraph(g.nodes, [
                CoverEdge(Weight(d, e.upper.labels, e.upper.shift),
                          Weight(d, e.lower.labels, e.lower.shift), e.kind, e.root, e.case)
                for e in g.edges
            ])
            for fmt in ("json", "dot"):
                assert export_graph(copied, fmt) == export_graph(g, fmt)


def _rebuilt(g):
    # equal weights built afresh, in a graph that carries no export record
    def fresh(w):
        return Weight(w.diagram, w.labels, w.shift)

    edges = [CoverEdge(fresh(e.upper), fresh(e.lower), e.kind, e.root, e.case) for e in g.edges]
    return PosetGraph(map(fresh, g.nodes), edges)


def _shuffled(data, rng):
    # the same graph as a document whose nodes and edges come in another order
    order = rng.sample(range(len(data["nodes"])), len(data["nodes"]))
    moved = {old: new for new, old in enumerate(order)}
    edges = [{**e, "upper": moved[e["upper"]], "lower": moved[e["lower"]]} for e in data["edges"]]
    nodes = [data["nodes"][old] for old in order]
    return {**data, "nodes": nodes, "edges": rng.sample(edges, len(edges))}


def test_cells_and_read_graphs_export_as_their_rebuilt_copies():
    rng = random.Random(38)
    built = []
    for name in ("A3-1", "A4-1", "A5-1"):
        d = D(name)
        for _ in range(5):
            labs = tuple(rng.randint(0, 2) for _ in d.vertices)
            if not any(labs):
                continue
            lam = weight_from_labels(d, labs)
            finite = [e.lower for e in cocovers(lam) if e.kind is not CoverKind.DELTA]
            for mu, mu2 in itertools.combinations(finite, 2):
                try:
                    built.append(basic_cell(lam, mu, mu2).graph)
                except CellMismatchError:
                    pass
    read = [graph_from_json(_shuffled(export_graph(g, "json"), rng)) for g in built]
    assert len(built) >= 30
    assert sum(r.nodes != g.nodes for r, g in zip(read, built)) >= 20
    # DOT sorts nodes and edges, so a document's order does not show
    for g, back in zip(built, read):
        assert export_graph(back, "dot") == export_graph(g, "dot")
    for g in built + read:
        copy = _rebuilt(g)
        assert copy == g
        assert getattr(g, "_record", None) is not None
        assert copy._record == g._record
        for fmt in ("json", "dot"):
            assert export_graph(g, fmt) == export_graph(copy, fmt)


def test_the_export_record_is_not_a_field():
    g = interval(W("A3-1", (2, 0, 2, 0)), W("A3-1", (0, 2, 0, 2), -1))
    bare = PosetGraph(g.nodes, g.edges)
    assert PosetGraph._fields == ("nodes", "edges")
    assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
    for graph in (g, bare):
        with pytest.raises(AttributeError):
            graph._record = None
    assert export_graph(g, "json") == export_graph(bare, "json")


def test_walk_built_graphs_build_weights_and_edges_only_when_read(monkeypatch):
    lam = W("A4-1", (1, 1, 1, 1, 2))
    lowers = {int_labels(e.lower): e.lower for e in cocovers(lam)
              if e.kind is not CoverKind.DELTA}
    top, bottom = W("A3-1", (2, 0, 2, 0)), W("A3-1", (0, 2, 0, 2), -1)
    read = graph_from_json(export_graph(interval(top, bottom), "json"))
    built = collections.Counter()

    def counted(kind, make):
        def build(*args):
            built[kind] += 1
            return make(*args)
        return build

    # every weight and edge poset makes goes through these names
    monkeypatch.setattr(poset, "CoverEdge", counted("edge", poset.CoverEdge))
    monkeypatch.setattr(poset, "Weight", counted("weight", poset.Weight))
    monkeypatch.setattr(poset, "_weight", counted("weight", poset._weight))
    graphs = [
        interval(top, bottom),
        interval(W("G2-1", (1, 1, 1)), W("G2-1", (1, 1, 1), -1)),
        basic_cell(lam, lowers[(2, 0, 0, 2, 2)], lowers[(2, 1, 1, 2, 0)]).graph,
        read,
    ]
    for g in graphs:
        for fmt in ("json", "dot"):
            export_graph(g, fmt)
    assert not built
    for g in graphs:
        before = built.copy()
        edges = g.edges
        # the first read builds both, and later reads build nothing
        assert g.nodes is g.nodes and g.edges is edges
        assert built - before == {"weight": len(g.nodes), "edge": len(edges)}
        bare = PosetGraph(g.nodes, g.edges)
        assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
        ids = {id(node) for node in g.nodes}
        assert all(id(e.upper) in ids and id(e.lower) in ids for e in edges)
        for fmt in ("json", "dot"):
            assert export_graph(g, fmt) == export_graph(bare, fmt)


def test_graph_from_json_rejects_malformed_nodes_and_edges():
    g = interval(W("A3-1", (0, 2, 1, 1)), W("A3-1", (2, 1, 1, 0)))
    data = export_graph(g, "json")
    for bad in (1.5, True, "1"):
        broken = json.loads(json.dumps(data))
        broken["nodes"][0]["labels"][1] = bad
        with pytest.raises(ValueError):
            graph_from_json(broken)
    for key in ("upper", "lower"):
        for bad in (-1, len(data["nodes"]), True, "0", 1.0):
            broken = json.loads(json.dumps(data))
            broken["edges"][0][key] = bad
            with pytest.raises(ValueError):
                graph_from_json(broken)
    # [3, 0, 0, 0] is well formed but not upper - lower
    for key, bad in (
        ("root", [0, 1.9, 0, 0]), ("root", [0, True, 0, 0]), ("root", [3, 0, 0, 0]), ("case", 7)
    ):
        broken = json.loads(json.dumps(data))
        broken["edges"][0][key] = bad
        with pytest.raises(ValueError):
            graph_from_json(broken)


def test_graph_from_json_refuses_an_edge_that_is_not_a_cover(monkeypatch):
    # nodes (0,4,0), (1,2,1), (2,0,2); the top does not cover the bottom
    g = interval(W("A2-1", (0, 4, 0)), W("A2-1", (2, 0, 2)))
    data = export_graph(g, "json")
    calls = []

    def counted(weight):
        calls.append(weight)
        return cocovers(weight)

    monkeypatch.setattr(poset, "cocovers", counted)
    assert graph_from_json(data) == g
    assert calls == [g.nodes[0], g.nodes[1]]  # once per distinct upper node
    skip = {"upper": 0, "lower": 2, "kind": "short", "root": [0, 2, 0], "case": "b"}
    for bad in (skip, {**data["edges"][0], "kind": "delta"}, {**data["edges"][0], "case": "b"}):
        broken = json.loads(json.dumps(data))
        broken["edges"].append(bad)
        with pytest.raises(ValueError, match="is not a cover"):
            graph_from_json(broken)


def test_graph_from_json_builds_every_node_with_the_graph_type():
    g = interval(W("A2-1", (0, 2, 2)), W("A2-1", (2, 1, 1)))
    data = export_graph(g, "json")
    named = json.loads(json.dumps(data))
    for entry in named["nodes"]:
        entry["type"] = "A2-1"
    assert graph_from_json(named) == g
    # a node of another type is refused, not read as a weight of that type
    for other in ("B3-1", "A2-2", 5):
        broken = json.loads(json.dumps(data))
        broken["nodes"][0] = {"type": other, "labels": [1, 0, 0, 0], "delta_shift": "0/1"}
        with pytest.raises(ValueError, match="in a graph of type A2-1"):
            graph_from_json(broken)


_WEIGHT = {"type": "A2-1", "labels": [1, 0, 0], "delta_shift": "0/1"}
_EDGE = {
    "upper": {"type": "A2-1", "labels": [0, 2, 0], "delta_shift": "0/1"},
    "lower": {"type": "A2-1", "labels": [1, 0, 1], "delta_shift": "0/1"},
    "kind": "simple",
    "root": [0, 1, 0],
    "case": "a",
}
_GRAPH = {
    "type": "A2-1",
    "nodes": [_EDGE["upper"], _EDGE["lower"]],
    "edges": [{"upper": 0, "lower": 1, "kind": "simple", "root": [0, 1, 0], "case": "a"}],
}


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _with(data, key, value):
    return {**data, key: value}


@pytest.mark.parametrize(
    "reader, data",
    [
        (weight_from_json, []),
        (weight_from_json, "A2-1"),
        (weight_from_json, _without(_WEIGHT, "type")),
        (weight_from_json, _without(_WEIGHT, "labels")),
        (weight_from_json, _without(_WEIGHT, "delta_shift")),
        (weight_from_json, _with(_WEIGHT, "type", 5)),
        (weight_from_json, _with(_WEIGHT, "type", None)),
        (weight_from_json, _with(_WEIGHT, "delta_shift", 0)),
        (weight_from_json, _with(_WEIGHT, "delta_shift", ["0/1"])),
        (edge_from_json, []),
        (edge_from_json, _without(_EDGE, "case")),
        (edge_from_json, _without(_EDGE, "kind")),
        (edge_from_json, _without(_EDGE, "root")),
        (edge_from_json, _without(_EDGE, "upper")),
        (edge_from_json, _with(_EDGE, "lower", [1, 0, 1])),
        (edge_from_json, _with(_EDGE, "kind", "sideways")),
        (graph_from_json, []),
        (graph_from_json, "[]"),
        (graph_from_json, "{"),
        (graph_from_json, _without(_GRAPH, "edges")),
        (graph_from_json, _without(_GRAPH, "nodes")),
        (graph_from_json, _without(_GRAPH, "type")),
        (graph_from_json, _with(_GRAPH, "type", 5)),
        (graph_from_json, _with(_GRAPH, "nodes", 3)),
        (graph_from_json, _with(_GRAPH, "nodes", [[0, 2, 0], [1, 0, 1]])),
        (graph_from_json, _with(_GRAPH, "nodes", [_without(_EDGE["upper"], "delta_shift")])),
        (graph_from_json, _with(_GRAPH, "edges", [3])),
        (graph_from_json, _with(_GRAPH, "edges", [_without(_GRAPH["edges"][0], "case")])),
        (graph_from_json, _with(_GRAPH, "edges", [_without(_GRAPH["edges"][0], "upper")])),
        (graph_from_json, {"type": None, "nodes": [], "edges": [_GRAPH["edges"][0]]}),
        (graph_from_json, _with(_GRAPH, "nodes", _GRAPH["nodes"] + [_EDGE["upper"]])),
        (graph_from_json, _with(_GRAPH, "edges", _GRAPH["edges"] * 2)),
        (graph_from_json, _with(_GRAPH, "nodes", [_with(_EDGE["upper"], "labels", [-1, 3, 1])])),
        (graph_from_json, _with(_GRAPH, "nodes", [_with(_EDGE["upper"], "labels", [0, 0, 0])])),
        (weight_from_json, _with(_WEIGHT, "type", "A2-1\n")),
        (graph_from_json, {"type": "A2-1\n", "nodes": [], "edges": []}),
    ],
)
def test_json_readers_raise_value_error_on_malformed_documents(reader, data):
    with pytest.raises(ValueError):
        reader(data)


def test_json_reader_fixtures_are_well_formed():
    assert weight_from_json(_WEIGHT) == W("A2-1", (1, 0, 0))
    edge = cocovers(W("A2-1", (0, 2, 0)))[0]
    assert edge_from_json(_EDGE) == edge
    assert graph_from_json(_GRAPH) == PosetGraph((edge.upper, edge.lower), (edge,))


def test_export_graph_rejects_unknown_format():
    g = interval(W("A2-1", (0, 2, 2)), W("A2-1", (0, 2, 2)))
    with pytest.raises(ValueError):
        export_graph(g, "svg")


def test_export_graph_rejects_a_repeated_node():
    edge = cocovers(W("A2-1", (0, 2, 0)))[0]
    for fmt in ("json", "dot"):
        with pytest.raises(ValueError, match="repeats a node"):
            g = PosetGraph((edge.upper, edge.lower, edge.upper), (edge,))
            export_graph(g, fmt)


def test_export_graph_rejects_mixed_diagrams_and_missing_endpoints():
    edge = cocovers(W("A2-1", (0, 2, 0)))[0]
    for fmt in ("json", "dot"):
        with pytest.raises(ValueError, match="mixes diagrams"):
            mixed = PosetGraph((edge.upper, edge.lower, W("A1-1", (1, 0))), (edge,))
            export_graph(mixed, fmt)
    for fmt in ("json", "dot"):
        with pytest.raises(ValueError, match="endpoint missing"):
            export_graph(PosetGraph((edge.upper,), (edge,)), fmt)


def test_a_hand_built_graph_is_checked_and_recorded_where_it_is_made():
    edge = cocovers(W("A2-1", (0, 2, 0)))[0]
    other = W("A1-1", (1, 0))
    # the checks run in this order, each before any export
    malformed = [
        ((edge.upper, edge.upper, other), "mixes diagrams"),
        ((edge.upper, edge.lower, other), "mixes diagrams"),
        ((edge.upper, edge.upper), "repeats a node"),
        ((edge.upper, edge.lower, edge.upper), "repeats a node"),
        ((edge.upper,), "endpoint missing"),
        ((edge.lower,), "endpoint missing"),
    ]
    for nodes, message in malformed:
        with pytest.raises(ValueError, match=message):
            PosetGraph(nodes, (edge,))
    g = PosetGraph([edge.lower, edge.upper], [edge])
    assert g.nodes == (edge.lower, edge.upper) and g.edges[0] is edge
    diagram, entries, arcs = g._record
    assert diagram is edge.upper.diagram
    assert entries == [(n.labels, n.shift, format_shift(n.shift)) for n in g.nodes]
    assert arcs == [(1, 0, edge.kind, edge.root, edge.case)]
    # a copy comes back as its record alone, its weights built on first read
    back = pickle.loads(pickle.dumps(g))
    assert "nodes" not in vars(back) and back._record == g._record and back == g


def test_empty_graph_round_trip():
    g = PosetGraph(nodes=(), edges=())
    data = export_graph(g, "json")
    assert data["type"] is None
    assert graph_from_json(data) == g

import functools
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from operator import add, le, mul, sub

import pytest

import affposet.cartan as cartan
import affposet.covering as covering
import affposet.oracle as oracle
import affposet.poset as poset
import affposet.roots as roots
from affposet.cartan import (
    AffineTypeId,
    _rank_is_valid,
    build_affine,
    catalog_types,
    classify_finite,
    parse_type_id,
    special_vertices,
)
from affposet.covering import (
    CoverEdge,
    NonPositiveLevelError,
    cocovers,
    covers,
    edge_from_json,
    edge_to_json,
    is_delta_cocover,
)
from affposet.oracle import brute_bounds, brute_cocovers, verify_covering
from affposet.poset import basic_cell, interval
from affposet.roots import (
    CoverCandidate,
    CoverKind,
    RootVector,
    cover_root_set,
    highest_short_root,
    is_real_root,
    simple_root,
    sym_length_sq,
)
from affposet.weights import (
    Weight,
    _at,
    _repaired,
    add_root,
    delta_shift,
    dominance_leq,
    fundamental_weight,
    join,
    labels,
    meet,
    weight_from_labels,
)

ALL_TYPES = [str(t) for t in catalog_types()]


def D(name):
    return build_affine(parse_type_id(name))


def W(name, labs, shift=0):
    return weight_from_labels(D(name), labs, shift)


def edge_digest(edge):
    return (
        edge.case,
        edge.kind.value,
        edge.root.coeffs,
        tuple(int(v) for v in labels(edge.lower)),
        delta_shift(edge.lower) - delta_shift(edge.upper),
    )


SPECIALS = {
    "A1-1": (0, 1),
    "A2-1": (0, 1, 2),
    "A3-1": (0, 1, 2, 3),
    "A4-1": (0, 1, 2, 3, 4),
    "B3-1": (),
    "C2-1": (),
    "C3-1": (),
    "D4-1": (0, 1, 3, 4),
    "F4-1": (),
    "G2-1": (),
    "A2-2": (),
    "A4-2": (),
    "A5-2": (0, 1),
    "D3-2": (0, 2),
    "D4-2": (0, 3),
    "E6-2": (0,),
    "D4-3": (0,),
}


def test_special_vertices_frozen():
    for name, expected in SPECIALS.items():
        assert special_vertices(D(name)) == expected, name


def test_special_vertices_are_short():
    for name in ALL_TYPES:
        d = D(name)
        if not special_vertices(d):
            continue
        shortest = min(sym_length_sq(simple_root(d, j)) for j in d.vertices)
        for i in special_vertices(d):
            assert sym_length_sq(simple_root(d, i)) == shortest


def test_cocovers_simple_and_short():
    edges = cocovers(W("A3-1", (0, 2, 1, 1)))
    assert [edge_digest(e) for e in edges] == [
        ("a", "simple", (0, 1, 0, 0), (1, 0, 2, 1), 0),
        ("b", "short", (0, 0, 1, 1), (1, 3, 0, 0), 0),
    ]


def test_cocovers_four_in_a4():
    # the wrap around vertex 4 contributes a fourth locally short drop
    edges = cocovers(W("A4-1", (1, 1, 1, 1, 0)))
    assert [edge_digest(e) for e in edges] == [
        ("b", "short", (0, 0, 1, 1, 0), (1, 2, 0, 0, 1), 0),
        ("b", "short", (0, 1, 1, 0, 0), (2, 0, 0, 2, 0), 0),
        ("b", "short", (1, 1, 0, 0, 0), (0, 0, 2, 1, 1), -1),
        ("b", "short", (1, 0, 0, 1, 1), (0, 2, 2, 0, 0), -1),
    ]


def test_cocovers_exceptional_cases():
    assert [edge_digest(e) for e in cocovers(W("G2-1", (0, 0, 1)))] == [
        ("b", "short", (0, 1, 2), (1, 0, 0), 0),
    ]
    assert [edge_digest(e) for e in cocovers(W("G2-1", (1, 0, 0)))] == [
        ("e", "exceptional", (1, 1, 1), (0, 0, 1), -1),
    ]
    assert [edge_digest(e) for e in cocovers(W("G2-1", (0, 1, 0)))] == [
        ("d", "exceptional", (0, 1, 1), (1, 0, 1), 0),
    ]
    # value 3 at the short vertex admits an intermediate, no cover
    assert [edge_digest(e) for e in cocovers(W("G2-1", (0, 1, 2)))] == [
        ("a", "simple", (0, 0, 1), (0, 2, 0), 0),
    ]


def test_cocovers_quadruple_bond_pair():
    assert [edge_digest(e) for e in cocovers(W("A2-2", (0, 1)))] == [
        ("j", "exceptional", (1, 1), (2, 0), -0.5),
    ]
    assert [edge_digest(e) for e in cocovers(W("A2-2", (1, 1)))] == [
        ("j", "exceptional", (1, 1), (3, 0), -0.5),
    ]
    # value 4 at the short vertex admits an intermediate
    got = {edge_digest(e)[3] for e in cocovers(W("A2-2", (2, 1)))}
    assert (4, 0) not in got


def test_cocovers_simple_pair():
    edges = cocovers(W("A2-1", (0, 2, 2)))
    assert [edge_digest(e) for e in edges] == [
        ("a", "simple", (0, 0, 1), (1, 3, 0), 0),
        ("a", "simple", (0, 1, 0), (1, 0, 3), 0),
    ]


def test_delta_cocover_cases():
    assert [edge_digest(e) for e in cocovers(W("A1-1", (1, 0)))] == [
        ("f", "delta", (1, 1), (1, 0), -1),
    ]
    assert [edge_digest(e) for e in cocovers(W("A1-1", (1, 1)))] == [
        ("i", "delta", (1, 1), (1, 1), -1),
    ]
    assert [edge_digest(e) for e in cocovers(W("D3-2", (1, 0, 1)))] == [
        ("h", "delta", (1, 1, 1), (1, 0, 1), -1),
    ]


def test_is_delta_cocover_frozen():
    expected = [
        ("A1-1", (1, 0), True),   # special vertex
        ("A1-1", (1, 1), True),   # both labels one
        ("A2-1", (1, 0, 0), True),
        ("A3-1", (0, 0, 1, 0), True),
        ("G2-1", (0, 0, 1), False),
        ("G2-1", (1, 0, 0), False),
        ("B3-1", (0, 0, 0, 1), True),   # unique short vertex
        ("B3-1", (1, 0, 0, 0), False),
        ("C2-1", (0, 1, 0), True),
        ("C3-1", (0, 1, 0, 0), False),  # two short vertices tie
        ("A2-2", (1, 0), True),
        ("A4-2", (1, 0, 0), True),
        ("A5-2", (1, 0, 0, 0), True),   # special vertex
        ("D3-2", (1, 0, 1), True),
        ("D3-2", (1, 0, 0), True),
        ("D4-2", (1, 0, 0, 1), True),
        ("D4-3", (1, 0, 0), True),
        ("D4-3", (0, 0, 1), False),
    ]
    for name, labs, want in expected:
        assert is_delta_cocover(W(name, labs)) is want, (name, labs)
    # the delta test ignores the shift
    assert is_delta_cocover(W("A1-1", (1, 0), -3)) is True


def test_cover_cocover_duality():
    for name, labs in [
        ("A3-1", (0, 2, 1, 1)),
        ("G2-1", (0, 1, 0)),
        ("A2-2", (0, 1)),
        ("A4-1", (1, 1, 1, 1, 0)),
        ("D4-3", (0, 1, 0)),
    ]:
        w = W(name, labs)
        for e in cocovers(w):
            ups = covers(e.lower)
            assert any(u.upper == w and u.root == e.root for u in ups)
        for e in covers(w):
            downs = cocovers(e.upper)
            assert any(x.lower == w and x.root == e.root for x in downs)


def test_multiple_cocovers_never_include_delta():
    # observed on the simply laced catalog types
    import itertools

    for name in ("A1-1", "A2-1", "A3-1", "A4-1", "D4-1"):
        d = D(name)
        vecs = itertools.product(range(3), repeat=d.n + 1)
        for labs in vecs:
            if sum(labs) == 0 or sum(labs) > 3:
                continue
            w = weight_from_labels(d, labs)
            if w.m <= 0:
                continue
            edges = cocovers(w)
            if len(edges) >= 2:
                assert all(e.kind is not CoverKind.DELTA for e in edges), (
                    name,
                    labs,
                )


def test_nonpositive_level_raises():
    w = W("A2-1", (0, 0, 0))
    with pytest.raises(NonPositiveLevelError):
        cocovers(w)
    with pytest.raises(NonPositiveLevelError):
        covers(w)


def test_non_dominant_raises():
    d = D("A2-1")
    w = add_root(weight_from_labels(d, (1, 0, 0)), RootVector(d, (0, -1, 0)))
    with pytest.raises(ValueError):
        cocovers(w)


def test_cover_queries_raise_exact_errors():
    # dominance is checked first, so a weight that fails both names the weight
    d = D("A2-1")
    non_dominant = add_root(weight_from_labels(d, (1, 0, 0)), RootVector(d, (0, -1, 0)))
    cases = [
        (non_dominant, ValueError, "weight [2,-2,1 @ 0/1] is not dominant integral"),
        (Weight(d, (-1, 0, 1)), ValueError, "weight [-1,0,1 @ 0/1] is not dominant integral"),
        (W("A2-1", (0, 0, 0)), NonPositiveLevelError,
         "covering relations need positive level, got 0"),
    ]
    for query in (cocovers, covers, is_delta_cocover):
        for weight, error, message in cases:
            with pytest.raises(ValueError) as caught:
                query(weight)
            assert type(caught.value) is error, (query, weight)
            assert str(caught.value) == message, (query, weight)


def test_edge_json_round_trip():
    for name, labs in [("A3-1", (0, 2, 1, 1)), ("A2-2", (0, 1))]:
        for edge in cocovers(W(name, labs)):
            data = edge_to_json(edge)
            text = json.dumps(data, sort_keys=True)
            back = edge_from_json(json.loads(text))
            assert back == edge


def test_edge_from_json_rejects_non_integer_roots_and_non_string_cases():
    edge = cocovers(W("A3-1", (0, 2, 1, 1)))[0]
    for root in ([0, 1.9, 0, 0], [0, True, 0.5, 0], [0, "1", 0, 0], (0, 1, 0, 0)):
        data = edge_to_json(edge)
        data["root"] = root
        with pytest.raises(ValueError):
            edge_from_json(data)
    for case in (7, None, ["a"]):
        data = edge_to_json(edge)
        data["case"] = case
        with pytest.raises(ValueError):
            edge_from_json(data)


def test_edge_from_json_rejects_a_root_other_than_upper_minus_lower():
    # A2-1: Lambda_0 - Lambda_1 is not even in the root lattice
    data = {
        "upper": {"type": "A2-1", "labels": [1, 0, 0], "delta_shift": "0/1"},
        "lower": {"type": "A2-1", "labels": [0, 1, 0], "delta_shift": "0/1"},
        "kind": "delta",
        "root": [5, 5, 5],
        "case": "zz",
    }
    with pytest.raises(ValueError, match="is not upper - lower"):
        edge_from_json(data)
    # a real edge whose root names another simple root, or the root twice
    edge = cocovers(W("A3-1", (0, 2, 1, 1)))[0]
    assert edge.root.coeffs == (0, 1, 0, 0)
    for root in ([1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 0]):
        data = edge_to_json(edge)
        data["root"] = root
        with pytest.raises(ValueError, match="is not upper - lower"):
            edge_from_json(data)


def _a2_record(upper, lower, kind, root, case):
    return {
        "upper": {"type": "A2-1", "labels": list(upper), "delta_shift": "0/1"},
        "lower": {"type": "A2-1", "labels": list(lower), "delta_shift": "0/1"},
        "kind": kind,
        "root": list(root),
        "case": case,
    }


def test_edge_from_json_refuses_an_edge_that_is_not_a_cover():
    # the dominant (1,2,1) = (0,4,0) - alpha_1 lies strictly between these ends
    with pytest.raises(ValueError, match="is not a cover"):
        edge_from_json(_a2_record((0, 4, 0), (2, 0, 2), "short", (0, 2, 0), "b"))
    # a simple-root cover, read back only with its own kind and case
    real = _a2_record((0, 2, 0), (1, 0, 1), "simple", (0, 1, 0), "a")
    assert edge_from_json(real) == cocovers(W("A2-1", (0, 2, 0)))[0]
    for kind, case in (("delta", "zz"), ("delta", "a"), ("short", "a"), ("simple", "b")):
        with pytest.raises(ValueError, match="is not a cover"):
            edge_from_json({**real, "kind": kind, "case": case})


def test_edge_from_json_reads_the_classifier_at_call_time(monkeypatch):
    # a classifier bound when the module loaded would still accept the edge
    real = _a2_record((0, 2, 0), (1, 0, 1), "simple", (0, 1, 0), "a")
    monkeypatch.setattr(covering, "cocovers", lambda weight: ())
    with pytest.raises(ValueError, match="is not a cover"):
        edge_from_json(real)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_edge_from_json_refuses_a_real_edge_with_another_kind_or_case(name):
    d = D(name)
    rng = random.Random(f"edge_json:{name}")
    for level in (1, 2, 3):
        for edge in cocovers(weight_from_labels(d, _sample_labels(d, level, rng))):
            data = edge_to_json(edge)
            assert edge_from_json(data) == edge
            for kind in CoverKind:
                if kind is not edge.kind:
                    with pytest.raises(ValueError, match="is not a cover"):
                        edge_from_json({**data, "kind": kind.value})
            for case in "abcdefghij":
                if case != edge.case:
                    with pytest.raises(ValueError, match="is not a cover"):
                        edge_from_json({**data, "case": case})


# Reference: the dense scan that enumerated covers before candidates were
# indexed by their needs.  Every candidate gets a full A times root row
# product and a full label tuple, and the case tests sort the support,
# compare Fraction lengths and classify the support on every call.


@functools.lru_cache(maxsize=None)
def _dense_steps(diagram):
    return tuple(
        (cand, tuple(sum(map(mul, row, cand.root.coeffs)) for row in diagram.cartan))
        for cand in cover_root_set(diagram)
    )


def _dense_finite_case(diagram, lower_labs, cand):
    if cand.kind is CoverKind.SIMPLE:
        return "a"
    a = diagram.cartan
    if cand.kind is CoverKind.SHORT:
        supp = sorted(cand.root.support())
        zero = [j for j in supp if lower_labs[j] == 0]
        if len(zero) == len(supp):
            return "b"
        if len(zero) == len(supp) - 1:
            lens = diagram.root_length_sq
            shortest = min(lens[j] for j in supp)
            short_verts = [j for j in supp if lens[j] == shortest]
            if len(short_verts) != 1:
                return None
            i = short_verts[0]
            if lower_labs[i] != 1 or i in zero:
                return None
            if classify_finite(diagram, supp).family == "B":
                return "c"
        return None
    bonds = {
        -a[i][j]: (i, j) for i in diagram.vertices for j in diagram.vertices if a[i][j] < -2
    }
    if 4 in bonds:
        short, long_ = bonds[4]
        if lower_labs[long_] == 0 and lower_labs[short] in (2, 3):
            return "j"
        return None
    short, long_ = bonds[3]
    if cand.root.coeffs == tuple(int(j in (short, long_)) for j in diagram.vertices):
        if lower_labs[long_] == 0 and lower_labs[short] in (1, 2):
            return "d"
        return None
    if lower_labs[0] == 0 and lower_labs[1] == 0 and lower_labs[2] in (1, 2):
        return "e"
    return None


def _dense_delta_case(diagram, labs):
    a, lens = diagram.cartan, diagram.root_length_sq
    ones = [i for i, v in enumerate(labs) if v != 0]
    if len(ones) == 1 and labs[ones[0]] == 1:
        i = ones[0]
        if i in special_vertices(diagram):
            return "f"
        shorts = [j for j in diagram.vertices if lens[j] == min(lens)]
        triple = any(-3 in row for row in a)
        if not triple and len(shorts) == 1 and i == shorts[0]:
            return "g"
    tid = diagram.type_id
    if (tid.family, tid.twist) == ("D", 2) and labs == tuple(
        int(j in (0, diagram.n)) for j in diagram.vertices
    ):
        return "h"
    if str(tid) == "A1-1" and labs == (1, 1):
        return "i"
    return None


def _dense_edges(weight, sign):
    diagram, labs = weight.diagram, weight.labels
    edges = []
    for cand, step in _dense_steps(diagram):
        other = tuple(map(add if sign > 0 else sub, labs, step))
        if min(other) < 0:
            continue
        if cand.kind is CoverKind.DELTA:
            case = _dense_delta_case(diagram, labs)
        else:
            case = _dense_finite_case(diagram, other if sign < 0 else labs, cand)
        if case is None:
            continue
        shift = weight.shift + sign * Fraction(cand.root.coeffs[0], diagram.marks[0])
        near = Weight(diagram, other, shift)
        upper, lower = (weight, near) if sign < 0 else (near, weight)
        edges.append(CoverEdge(upper, lower, cand.kind, cand.root, case))
    return tuple(edges)


def _sample_labels(diagram, level, rng):
    labs = [0] * (diagram.n + 1)
    while level > 0:
        j = rng.choice([j for j, c in enumerate(diagram.comarks) if c <= level])
        labs[j] += 1
        level -= diagram.comarks[j]
    return tuple(labs)


DENSE_SCAN_TYPES = ALL_TYPES + ["A20-1", "A60-1", "E8-1", "D12-1", "B8-1"]


def _dense_delta_table(diagram):
    # every delta pattern has one or two labels one and the rest zero
    table = {}
    for ones in itertools.chain(
        itertools.combinations(diagram.vertices, 1), itertools.combinations(diagram.vertices, 2)
    ):
        labs = tuple(int(j in ones) for j in diagram.vertices)
        case = _dense_delta_case(diagram, labs)
        if case is not None:
            table[labs] = case
    return table


def _cocover_table_items(diagram):
    # the cocover table's (key, entries) pairs: the table files each entry
    # under its key's first pair, with the key's last pair in front
    keyed = {}
    for first, filed in covering._cocover_table(diagram).items():
        for last, step, rest, case in filed:
            assert last == first or last[0] > first[0], (first, last)
            key = (first,) if last == first else (first, last)
            keyed.setdefault(key, []).append((step, rest, case))
    return keyed.items()


@pytest.mark.parametrize("name", DENSE_SCAN_TYPES)
def test_indexed_covers_match_dense_scan(name):
    d = D(name)
    dense_delta = _dense_delta_table(d)
    assert covering._delta_cases(d) == {
        tuple((v, x) for v, x in enumerate(labs) if x): case for labs, case in dense_delta.items()
    }
    # every table entry is a dense step, and the weight with the entry's
    # labels on the support and zero elsewhere drops along it with its case
    dense = dict(_dense_steps(d))
    keyed = set()
    for key, entries in _cocover_table_items(d):
        for step, rest, case in entries:
            cand = CoverCandidate(step.root, step.kind)
            column = dense[cand]
            assert step.order == (sum(cand.root.coeffs), cand.root.coeffs)
            assert step.change == tuple((v, x) for v, x in enumerate(column) if x)
            assert step.supp == tuple(sorted(cand.root.support()))
            assert sorted(dict(key).keys() | set(rest)) == sorted(cand.root.support())
            upper = [dict(key).get(v, 0) for v in d.vertices]
            lower = tuple(map(sub, upper, column))
            if cand.kind is CoverKind.DELTA:
                assert _dense_delta_case(d, tuple(upper)) == case, (key, cand)
            else:
                assert _dense_finite_case(d, lower, cand) == case, (key, cand)
            assert min(lower) >= 0, (key, cand)
            keyed.add(cand)
    # delta is keyed wherever it has a pattern; C3-1, F4-1 and G2-1 have none
    assert keyed == {
        cand
        for cand in dense
        if cand.kind is not CoverKind.SIMPLE
        and (cand.kind is not CoverKind.DELTA or dense_delta)
    }
    rng = random.Random(name)
    samples = 4 if d.n > 20 else 15
    pool = [fundamental_weight(d, j) for j in d.vertices]
    pool += [weight_from_labels(d, labs) for labs in dense_delta]
    # long runs of zeros on both sides of two labels
    pool.append(weight_from_labels(d, [int(j in (0, d.n // 2)) for j in d.vertices]))
    if name == "A4-2":
        # a case-c cover by (0,1,1) pinned at vertex 1, which is shortest on
        # the support {1, 2} but not in the diagram
        pool.append(weight_from_labels(d, (2, 1, 0)))
    for level in (1, 2, 3, 4, 5, 6):
        for _ in range(samples):
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            pool.append(weight_from_labels(d, _sample_labels(d, level, rng), shift))
    for w in dict.fromkeys(pool):
        assert is_delta_cocover(w) is (_dense_delta_case(d, w.labels) is not None), (name, w)
        assert cocovers(w) == _dense_edges(w, -1), (name, w)
        assert covers(w) == _dense_edges(w, 1), (name, w)


def _type_ids(top_rank):
    return [
        AffineTypeId(family, rank, twist)
        for family in "ABCDEFG"
        for rank in range(1, top_rank + 1)
        for twist in (1, 2, 3)
        if _rank_is_valid(family, rank, twist)
    ]


def _special_by_definition(diagram):
    """Reference: the vertices i of mark one whose removal leaves a connected
    rest on which the highest short root is the marks less e_i."""
    found = []
    for i in diagram.vertices:
        rest = [v for v in diagram.vertices if v != i]
        if diagram.marks[i] != 1 or not diagram.is_connected(rest):
            continue
        target = tuple(m - (j == i) for j, m in enumerate(diagram.marks))
        if highest_short_root(diagram, rest).coeffs == target:
            found.append(i)
    return tuple(found)


def test_special_vertices_match_the_definition():
    ids = _type_ids(40) + [AffineTypeId("A", 200, 1)]
    assert len(ids) == 238
    for tid in ids:
        d = build_affine(tid)
        assert special_vertices(d) == _special_by_definition(d), str(tid)


def test_no_special_vertex_is_the_only_short_one():
    # case g needs a unique shortest vertex and case f at least two shortest
    # ones, so no delta pattern could carry both tags
    ids = _type_ids(40)
    assert len(ids) == 237
    tagged_g = 0
    for tid in ids:
        d = build_affine(tid)
        if covering._unique_short_vertex(d, d.vertices) is not None:
            assert special_vertices(d) == (), str(tid)
        tagged_g += "g" in covering._delta_cases(d).values()
    assert tagged_g == 59


# every diagram-keyed cache of the query modules; cartan's build caches are
# left alone, and the test below builds its diagram past them
_QUERY_CACHES = tuple({
    value: None
    for module in (roots, covering, oracle, poset)
    for value in vars(module).values()
    if hasattr(value, "cache_clear") and value.__module__ == module.__name__
})


def test_the_query_caches_are_found():
    assert set(_QUERY_CACHES) >= {
        roots._highest_short_root_cached, roots.cover_root_set, roots.cover_root_lookup,
        covering._delta_cases, covering._support_step, covering._fixed_steps,
        covering._cocover_table, oracle._plan,
    }


@pytest.mark.parametrize(
    "name", ["G2-1", "A2-2", "D4-3", "B5-1", "C4-1", "E6-2", "A5-2", "A3-1"]
)
def test_queries_read_cartan_rows_only_at_bonds(name):
    # a fresh diagram, equal to the cached one; the caches keyed by diagram
    # are emptied so that every query runs on it, and none of them, nor the
    # build, reads the dense rows, which are kept once built
    d = cartan._build_cached.__wrapped__(parse_type_id(name))
    assert "cartan" not in vars(d)
    for cache in _QUERY_CACHES:
        cache.cache_clear()
    try:
        special_vertices(d)
        for cand in cover_root_set(d):
            sym_length_sq(cand.root)
            assert is_real_root(cand.root) is (cand.kind is not CoverKind.DELTA)
            if len(cand.root.support()) <= d.n:
                classify_finite(d, cand.root.support())
        lam = weight_from_labels(d, [1] * (d.n + 1))
        is_delta_cocover(lam)
        assert covers(lam)
        lowers = [e.lower for e in cocovers(lam) if e.kind is not CoverKind.DELTA]
        assert lowers
        for mu, mu2 in itertools.combinations(lowers, 2):
            low, high = meet(mu, mu2), join(mu, mu2)
            assert dominance_leq(low, mu) and dominance_leq(mu2, high)
            is_delta_cocover(low)
            if d.type_id.family == "A" and d.type_id.twist == 1:
                basic_cell(lam, mu, mu2)
        graph = interval(lam, weight_from_labels(d, lam.labels, -1))
        assert len(graph.nodes) > len(lowers)
        assert "cartan" not in vars(d)
        # the oracle reads the columns too: its searches, the repair of its
        # partners, the gap check of its bounds, and a whole sweep
        brute_cocovers(lam)
        start = Weight(d, (-1,) + (2,) * d.n)
        _at(start, _repaired(start, (0,) * (d.n + 1)))
        mu, mu2 = lowers[0], lowers[-1]
        bounds = brute_bounds(mu, mu2)
        assert (bounds.glb, bounds.lub) == (meet(mu, mu2), join(mu, mu2))
        report = verify_covering(d, levels=(1,), samples_per_level=4)
        assert report.mismatches == () and report.tested > 4
        assert "cartan" not in vars(d)
    finally:
        for cache in _QUERY_CACHES:
            cache.cache_clear()


def test_cocover_keys_hold_one_or_two_labels():
    # a short root's entries key label one at the two ends of a path
    # support, or at one vertex of a support with exactly one branch vertex
    # or one multiple bond, a vertex that is a leaf of the support or next
    # to one: what a walk from each label-one vertex through zero labels
    # would rely on
    ids = _type_ids(20)
    assert len(ids) == 117
    counts = {1: 0, 2: 0}
    for tid in ids:
        d = build_affine(tid)
        table = _cocover_table_items(d)
        assert all(len(key) in (1, 2) for key, _ in table), str(tid)
        for key, entries in table:
            for step, _, _ in entries:
                if step.kind is not CoverKind.SHORT:
                    continue
                where = (str(tid), step.supp, key)
                inside = {v: [w for w in d.adjacency[v] if w in step.supp] for v in step.supp}
                assert all(x == 1 for _, x in key), where
                if len(key) == 2:
                    assert max(map(len, inside.values())) <= 2, where
                    ends = [v for v in step.supp if len(inside[v]) <= 1]
                    assert ends == [v for v, _ in key], where
                else:
                    branches = sum(len(ws) >= 3 for ws in inside.values())
                    bonds = sum(
                        d.cartan[v][w] * d.cartan[w][v] > 1 for v in inside for w in inside[v] if v < w
                    )
                    assert branches + bonds == 1, where
                    (v, _), = key
                    leaves = {u for u in step.supp if len(inside[u]) <= 1}
                    assert v in leaves or leaves.intersection(inside[v]), where
                counts[len(key)] += 1
    assert counts == {1: 1628, 2: 8851}


def test_a_rule_that_fixes_no_labels_is_refused(monkeypatch):
    refusals = [
        # a short root with no case test, as a simple root has
        (None, r"A3-1: \(1,1,0,0\) has no case test"),
        # delta's upper labels are its lower ones, so an empty pattern keys
        # no label; the short roots of A3-1 key their two ends and pass
        ({(): "b"}, r"A3-1: case b of \(1,1,1,1\) keys \(\)$"),
        # three lower labels besides a short root's two ends
        (
            {((0, 1), (1, 1), (2, 1)): "b"},
            r"A3-1: case b of \(1,1,0,0\) keys \(\(0, 2\), \(1, 2\), \(2, 1\)\)$",
        ),
    ]
    caches = (covering._support_step, covering._fixed_steps, covering._cocover_table)
    try:
        for rules, message in refusals:
            monkeypatch.setattr(covering, "_case_rules", lambda diagram, kind, supp: rules)
            for cache in caches:
                cache.cache_clear()
            with pytest.raises(covering.CoverPatternError, match=message):
                covering._cocover_table(D("A3-1"))
    finally:
        for cache in caches:
            cache.cache_clear()


def test_connected_supports_stream_one_size_at_a_time():
    # the first cocovers of rho build a step per connected support; the
    # supports come one size at a time as the sorted tuples the caches key,
    # so the build holds nothing the call does not keep (a set of every
    # support used to peak 1.38 MiB above it on A40-1)
    d = D("A40-1")
    rho = weight_from_labels(d, [1] * (d.n + 1))
    cocovers(rho)
    supports = list(roots._connected_proper_subsets(d))
    assert supports == sorted(supports, key=lambda supp: (len(supp), supp))
    assert len(supports) == 41 * 40
    assert all(type(supp) is tuple and list(supp) == sorted(supp) for supp in supports)
    for cache in (covering._cocover_table, covering._support_step, roots._highest_short_root_cached):
        cache.cache_clear()
    tracemalloc.start()
    try:
        edges = cocovers(rho)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 41
    assert peak - held < 0.1 * 2**20


def test_delta_patterns_stay_sparse_at_rank_1000():
    # every vertex of A1000-1 is special, and each delta pattern is the one
    # label one of a fundamental weight
    d = D("A1000-1")
    cases = covering._delta_cases(d)
    assert cases == {((v, 1),): "f" for v in d.vertices}
    (delta,) = [s for s in covering._fixed_steps(d) if s.kind is CoverKind.DELTA]
    assert delta.rules is cases
    lam0 = fundamental_weight(d, 0)
    # a simple root whose column takes a label negative is dropped before
    # its step is built, so none of the 1001 is
    tracemalloc.start()
    try:
        edges = covers(lam0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(e.kind, e.case, e.upper) for e in edges] == [
        (CoverKind.DELTA, "f", weight_from_labels(d, lam0.labels, 1))
    ]
    assert peak < 2 << 20
    assert is_delta_cocover(lam0)


def test_covers_build_no_candidate_set():
    d = D("A200-1")
    misses = cover_root_set.cache_info().misses
    ones = weight_from_labels(d, [1] * 201)
    sparse = weight_from_labels(d, [int(j in (0, 100)) for j in d.vertices])
    assert [e.root.coeffs for e in covers(ones)] == [
        tuple(int(j == i) for j in d.vertices) for i in reversed(d.vertices)
    ]
    # one case-b cover on each run of zeros; a run with a label one end
    # would cover the whole cycle
    assert [(e.case, e.root.height()) for e in covers(sparse)] == [("b", 99), ("b", 100)]
    assert cover_root_set.cache_info().misses == misses
    # the cocover table reads its supports without the candidate set; both
    # caches start empty so the check holds whatever ran before
    covering._cocover_table.cache_clear()
    cover_root_set.cache_clear()
    d = D("A40-1")
    edges = cocovers(weight_from_labels(d, [int(j in (0, 20)) for j in d.vertices]))
    assert [(e.case, e.root.height()) for e in edges] == [("b", 21), ("b", 22)]
    assert covering._cocover_table.cache_info().misses == 1
    assert cover_root_set.cache_info().misses == 0


def test_dense_scan_types_hold_every_delta_pattern():
    tags = {name: set(covering._delta_cases(D(name)).values()) for name in DENSE_SCAN_TYPES}
    assert all("f" in tags[name] for name in ("A1-1", "A3-1", "D3-2", "E8-1", "D12-1"))
    assert [name for name in DENSE_SCAN_TYPES if "g" in tags[name]] == [
        "B3-1", "C2-1", "A2-2", "A4-2", "B8-1"
    ]
    assert [name for name in DENSE_SCAN_TYPES if "h" in tags[name]] == ["D3-2", "D4-2"]
    assert [name for name in DENSE_SCAN_TYPES if "i" in tags[name]] == ["A1-1"]


def test_delta_is_a_cocover_exactly_when_no_finite_root_is():
    # every cover root is at most delta in each coefficient, so a finite
    # cocover lam - beta lies strictly between lam - delta and lam; and a
    # dominant weight strictly between them lies under a finite cocover
    ids = _type_ids(20)
    assert len(ids) == 117
    for tid in ids:
        d = build_affine(tid)
        rng = random.Random(f"delta_iff:{tid}")
        pool = [fundamental_weight(d, j) for j in d.vertices]
        pool += [
            weight_from_labels(d, _sample_labels(d, level, rng))
            for level in (1, 2, 3, 4)
            for _ in range(5)
        ]
        for w in pool:
            finite = any(e.kind is not CoverKind.DELTA for e in cocovers(w))
            assert is_delta_cocover(w) is not finite, (str(tid), w.labels)


DELTA_SHIFTS = (Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(3))


def _translated(weight, s):
    return weight_from_labels(weight.diagram, labels(weight), delta_shift(weight) + s)


def _check_delta_translates():
    """Each seeded weight and its translates by s delta have the same delta
    verdict, and the same cover and cocover edges moved by s delta."""
    for name in ALL_TYPES:
        d = D(name)
        rng = random.Random(f"delta_translates:{name}")
        pool = [fundamental_weight(d, j) for j in d.vertices]
        for _ in range(6):
            labs = [rng.randint(0, 2) for _ in d.vertices]
            labs[rng.randrange(len(labs))] += 1  # a positive level
            pool.append(weight_from_labels(d, labs, Fraction(rng.randint(-4, 4), 3)))
        for lam in pool:
            for s in DELTA_SHIFTS:
                up, where = _translated(lam, s), (name, lam.labels, s)
                assert covering.is_delta_cocover(up) == covering.is_delta_cocover(lam), where
                for query in (covering.cocovers, covering.covers):
                    assert query(up) == tuple(
                        CoverEdge(_translated(e.upper, s), _translated(e.lower, s), e.kind,
                                  e.root, e.case)
                        for e in query(lam)
                    ), where


def test_covers_and_the_delta_test_commute_with_delta_translation():
    # the sweep checks each label tuple once, at the first shift drawn, so
    # only this test checks that the classifier reads no shift
    _check_delta_translates()


def test_delta_translation_check_fails_on_a_shift_dependent_delta_test(monkeypatch):
    real = covering.is_delta_cocover
    monkeypatch.setattr(covering, "is_delta_cocover", lambda w: real(w) != bool(w.shift))
    with pytest.raises(AssertionError):
        _check_delta_translates()


def test_classifier_matches_the_oracle_beyond_the_catalog():
    # one seeded weight per level on every valid id of rank at most 20, each
    # with a dominant partner near it for the meet and join
    ids = _type_ids(20)
    assert len(ids) == 117
    for tid in ids:
        d = build_affine(tid)
        rng = random.Random(f"oracle_ids:{tid}")
        for level in (1, 2, 3):
            shift = Fraction(rng.randint(-4, 4), 3)
            w = weight_from_labels(d, _sample_labels(d, level, rng), shift)
            brute = brute_cocovers(w)
            where = (str(tid), w.labels)
            assert not any(brute.boundary), where
            pairs = {(e.lower, e.root) for e in cocovers(w)}
            assert pairs == set(zip(brute.cocovers, brute.differences)), where
            assert is_delta_cocover(w) is (d.marks in {r.coeffs for r in brute.differences}), where
            offsets = RootVector(d, [rng.randint(-2, 2) for _ in d.vertices])
            partner = _at(w, _repaired(w, offsets.coeffs))
            bounds = brute_bounds(w, partner)
            assert (meet(w, partner), join(w, partner)) == (bounds.glb, bounds.lub), where


def _drop_moves(d):
    # each candidate in cover_root_set order, (height, coefficients), with
    # its support as a bit mask and its label change A beta as the nonzero
    # (vertex, change) pairs
    moves = []
    for cand in cover_root_set(d):
        beta = cand.root.coeffs
        change = [0] * (d.n + 1)
        for j, c in enumerate(beta):
            for i, x in d.columns[j]:
                change[i] += c * x
        mask = sum(1 << j for j, c in enumerate(beta) if c)
        moves.append((beta, mask, [(i, c) for i, c in enumerate(change) if c]))
    return moves


def _minimal_drops(moves, labs, sign):
    # the minimal candidates beta with labs + sign * A beta >= 0.  A smaller
    # candidate comes earlier in (height, coefficients) order, and one that
    # is not minimal lies above a minimal one, so each dominant candidate is
    # tested only against the minima kept so far, by support mask first
    kept = []
    for beta, mask, change in moves:
        if all(labs[i] + sign * c >= 0 for i, c in change) and not any(
            (low_mask & ~mask) == 0 and all(map(le, low, beta)) for low, low_mask in kept
        ):
            kept.append((beta, mask))
    return [beta for beta, _ in kept]


def _minimal_drop_mismatches(ids, pairs=True):
    # the case-free reference: the cocover roots of labels L are the
    # coefficientwise-minimal candidates beta with L - A beta >= 0, and the
    # cover roots the minimal ones with L + A beta >= 0; it reads only the
    # candidate set, the Cartan columns and the labels
    mismatches, checked = [], 0
    for tid in ids:
        d = build_affine(tid)
        moves = _drop_moves(d)
        rng = random.Random(f"minimal_drops:{tid}")
        # rho, every fundamental weight, every pair of label-one vertices
        # unless pairs is false, and eight samples at each level 1 to 6
        pool = [(1,) * (d.n + 1)]
        pool += [tuple(int(i == j) for i in d.vertices) for j in d.vertices]
        pool += [
            tuple(int(i in ones) for i in d.vertices)
            for ones in itertools.combinations(d.vertices, 2)
            if pairs
        ]
        pool += [_sample_labels(d, level, rng) for level in range(1, 7) for _ in range(8)]
        for labs in dict.fromkeys(pool):
            w = weight_from_labels(d, labs)
            checked += 1
            for query, sign in ((cocovers, -1), (covers, 1)):
                if [e.root.coeffs for e in query(w)] != _minimal_drops(moves, labs, sign):
                    mismatches.append((str(tid), labs, query.__name__))
    return checked, mismatches


def test_covers_are_the_minimal_dominant_candidate_drops():
    ids = _type_ids(12)
    assert len(ids) == 69
    checked, mismatches = _minimal_drop_mismatches(ids)
    assert checked == 4155
    assert mismatches == []


@pytest.mark.slow
def test_covers_are_the_minimal_dominant_candidate_drops_to_rank_40():
    ids = _type_ids(40)
    assert len(ids) == 237
    checked, mismatches = _minimal_drop_mismatches(ids)
    assert checked == 70208
    assert mismatches == []
    # A200-1 has 40 201 candidates and 20 100 pairs of label-one vertices,
    # so its pool leaves the pairs out
    checked, mismatches = _minimal_drop_mismatches([AffineTypeId("A", 200, 1)], pairs=False)
    assert checked == 242
    assert mismatches == []


def _without_case(rules, case):
    return None if rules is None else {key: tag for key, tag in rules.items() if tag != case}


def test_the_minimal_drop_reference_catches_every_dropped_case(monkeypatch):
    # each case test dropped in turn, from the steps and from delta's
    # patterns, makes the reference disagree on the ids of rank at most 6
    ids = _type_ids(6)
    assert len(ids) == 31
    real_rules, real_delta = covering._case_rules, covering._delta_cases
    caches = (covering._support_step, covering._fixed_steps, covering._cocover_table)
    counts = {}
    try:
        for case in "bcdefghij":
            with monkeypatch.context() as patch:
                patch.setattr(
                    covering, "_case_rules",
                    lambda diagram, kind, supp, case=case: _without_case(
                        real_rules(diagram, kind, supp), case
                    ),
                )
                patch.setattr(
                    covering, "_delta_cases",
                    lambda diagram, case=case: _without_case(real_delta(diagram), case),
                )
                for cache in caches:
                    cache.cache_clear()
                counts[case] = len(_minimal_drop_mismatches(ids)[1])
    finally:
        for cache in caches:
            cache.cache_clear()
    assert all(counts.values()), counts

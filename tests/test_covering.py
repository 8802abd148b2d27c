import functools
import itertools
import json
import random
from fractions import Fraction
from operator import add, mul, sub

import pytest

import affposet.covering as covering
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
from affposet.oracle import _dominant_repair, brute_bounds, brute_cocovers
from affposet.roots import (
    CoverKind,
    RootVector,
    cover_root_set,
    highest_short_root,
    simple_root,
    sym_length_sq,
)
from affposet.weights import (
    Weight,
    add_root,
    delta_shift,
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
    w = add_root(weight_from_labels(d, (1, 0, 0)), -simple_root(d, 1))
    with pytest.raises(ValueError):
        cocovers(w)


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


@pytest.mark.parametrize("name", DENSE_SCAN_TYPES)
def test_indexed_covers_match_dense_scan(name):
    d = D(name)
    assert covering._delta_cases(d) == _dense_delta_table(d)
    # every table entry is a dense step, and the weight with the entry's
    # labels on the support and zero elsewhere drops along it with its case
    dense = dict(_dense_steps(d))
    keyed = set()
    for key, entries in covering._cocover_table(d).items():
        for step, rest, case in entries:
            cand = step.cand
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
        and (cand.kind is not CoverKind.DELTA or _dense_delta_table(d))
    }
    rng = random.Random(name)
    samples = 4 if d.n > 20 else 15
    pool = [fundamental_weight(d, j) for j in d.vertices]
    pool += [weight_from_labels(d, labs) for labs in covering._delta_cases(d)]
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


def test_cocover_keys_hold_one_or_two_labels():
    ids = _type_ids(20)
    assert len(ids) == 117
    for tid in ids:
        table = covering._cocover_table(build_affine(tid))
        assert all(len(key) in (1, 2) for key in table), str(tid)


def test_a_rule_that_fixes_no_labels_is_refused(monkeypatch):
    # a short root whose rule leaves its support free, as a simple root's does
    monkeypatch.setattr(covering, "_case_rules", lambda diagram, kind, supp: (("b", (), ()),))
    caches = (covering._support_step, covering._fixed_steps, covering._cocover_table)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(covering.CoverPatternError, match="A3-1: case b of"):
            covering._cocover_table(D("A3-1"))
    finally:
        for cache in caches:
            cache.cache_clear()


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
            partner = _dominant_repair(add_root(w, offsets))
            bounds = brute_bounds(w, partner)
            assert (meet(w, partner), join(w, partner)) == (bounds.glb, bounds.lub), where

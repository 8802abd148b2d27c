import ast
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import affposet
import affposet.cartan as cartan
import affposet.weights as weights
from affposet.cartan import (
    AffineTypeId,
    FiniteType,
    RankTooLargeError,
    build_affine,
    catalog_types,
    classify_finite,
    parse_type_id,
    special_vertices,
)
from affposet.roots import delta_root, sym_length_sq
from affposet.weights import (
    _scaled_coeffs,
    difference,
    dominance_leq,
    fundamental_weight,
    join,
    meet,
    weight_from_labels,
)

ALL_TYPES = [str(t) for t in catalog_types()]


def test_catalog_list():
    assert ALL_TYPES == [
        "A1-1", "A2-1", "A3-1", "A4-1", "B3-1", "C2-1", "C3-1", "D4-1",
        "F4-1", "G2-1", "A2-2", "A4-2", "A5-2", "D3-2", "D4-2", "E6-2",
        "D4-3",
    ]


def test_parse_type_id():
    assert parse_type_id("A5-2") == AffineTypeId("A", 5, 2)
    assert str(parse_type_id("D4-3")) == "D4-3"
    tid = parse_type_id("G2-1")
    assert parse_type_id(tid) is tid
    for bad in ("", "H3-1", "A0-1", "A2-4", "A2", "a2-1", "A2-2x", "A3-1\n"):
        with pytest.raises(ValueError):
            parse_type_id(bad)
        with pytest.raises(ValueError):
            build_affine(bad)
    # valid ids outside the catalog still parse and build
    assert build_affine(parse_type_id("E8-1")).n == 8
    with pytest.raises(ValueError):
        parse_type_id("B2-1")  # rank too small for the B series
    with pytest.raises(ValueError):
        parse_type_id("A3-2")  # twisted A needs rank 2 or >= 4
    with pytest.raises(ValueError):
        parse_type_id("D5-3")
    with pytest.raises(ValueError):
        AffineTypeId("A", 2, 4)  # no twist beyond 3
    assert repr(tid) == "AffineTypeId(family='G', rank=2, twist=1)"


def test_diagram_repr_names_the_cached_diagram():
    d = build_affine("A12-1")
    assert repr(d) == "build_affine('A12-1')"
    assert eval(repr(d), {"build_affine": build_affine}) is d
    # a weight's repr carries the diagram's name, not its tables
    assert len(repr(fundamental_weight(build_affine("A40-1"), 0))) < 250


def test_finite_type_normalizes_c2():
    assert FiniteType("C", 2) == FiniteType("B", 2)
    assert str(FiniteType("C", 2)) == "B2"


def test_finite_type_rejects_a_family_or_rank_it_cannot_name():
    for family in ("", "AB", "BC", "H", "a", "ABCDEFG"):
        with pytest.raises(ValueError):
            FiniteType(family, 2)
    for rank in (True, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError):
            FiniteType("A", rank)
    assert str(FiniteType("A", 2)) == "A2"


def test_marks_and_comarks_annihilate_cartan():
    for name in ALL_TYPES:
        d = build_affine(parse_type_id(name))
        n = d.n
        for i in range(n + 1):
            assert sum(d.cartan[i][j] * d.marks[j] for j in range(n + 1)) == 0
        for j in range(n + 1):
            assert sum(d.comarks[i] * d.cartan[i][j] for i in range(n + 1)) == 0
        assert d.comarks[0] == 1
        assert math.gcd(*d.marks) == 1
        assert math.gcd(*d.comarks) == 1


def test_symmetrized_form_consistency():
    # the invariant form b_ij = a_ij |alpha_i|^2 / 2, built here from the
    # tables; the diagram keeps its lengths only as integers
    for name in ALL_TYPES:
        d = build_affine(parse_type_id(name))
        assert not hasattr(d, "sym_form")
        scale = math.lcm(*d.marks)
        b = [[x * length / 2 for x in row] for row, length in zip(d.cartan, d.root_length_sq)]
        for i in d.vertices:
            assert b[i][i] == d.root_length_sq[i] == Fraction(2 * d._half_lengths[i], scale)
            for j in d.vertices:
                assert b[i][j] == b[j][i]
            assert sum(b[i][j] * d.marks[j] for j in d.vertices) == 0


def test_known_tables():
    g2 = build_affine(parse_type_id("G2-1"))
    assert g2.cartan == ((2, -1, 0), (-1, 2, -1), (0, -3, 2))
    assert g2.marks == (1, 2, 3)
    assert g2.comarks == (1, 2, 1)
    a22 = build_affine(parse_type_id("A2-2"))
    assert a22.marks == (2, 1)
    assert a22.comarks == (1, 2)
    assert a22.cartan == ((2, -4), (-1, 2))
    d43 = build_affine(parse_type_id("D4-3"))
    assert d43.marks == (1, 2, 1)
    a1 = build_affine(parse_type_id("A1-1"))
    assert a1.cartan == ((2, -2), (-2, 2))
    assert a1.marks == (1, 1)


def test_delta_and_central_element():
    for name in ALL_TYPES:
        d = build_affine(parse_type_id(name))
        assert delta_root(d).coeffs == d.marks
        # the level is the pairing with the canonical central element, whose
        # coroot coefficients are the comarks
        assert tuple(fundamental_weight(d, i).m for i in d.vertices) == d.comarks


def test_connectivity_helpers():
    d = build_affine(parse_type_id("A3-1"))
    assert d.is_connected([0, 1])
    assert not d.is_connected([0, 2])
    assert d.is_connected([1, 2, 3])
    assert not d.is_connected(())
    # -1 is no vertex, though adjacency[-1] is vertex 3's
    assert not d.is_connected([-1, 0])
    assert not d.is_connected([4, 5])
    assert sorted(d.adjacency[0]) == [1, 3]


def test_classify_finite_families():
    a4 = build_affine(parse_type_id("A4-1"))
    assert str(classify_finite(a4, [1, 2, 3])) == "A3"
    assert str(classify_finite(a4, [2])) == "A1"
    b3 = build_affine(parse_type_id("B3-1"))
    assert str(classify_finite(b3, [1, 2, 3])) == "B3"
    c3 = build_affine(parse_type_id("C3-1"))
    assert str(classify_finite(c3, [1, 2, 3])) == "C3"
    # the rank two B = C coincidence normalizes to B2
    c2 = build_affine(parse_type_id("C2-1"))
    assert str(classify_finite(c2, [1, 2])) == "B2"
    f4 = build_affine(parse_type_id("F4-1"))
    assert str(classify_finite(f4, [1, 2, 3, 4])) == "F4"
    g2 = build_affine(parse_type_id("G2-1"))
    assert str(classify_finite(g2, [1, 2])) == "G2"
    d4 = build_affine(parse_type_id("D4-1"))
    assert str(classify_finite(d4, [1, 2, 3, 4])) == "D4"
    e6 = build_affine(parse_type_id("E6-1"))
    assert str(classify_finite(e6, [v for v in e6.vertices if v != 0])) == "E6"
    e8 = build_affine(parse_type_id("E8-1"))
    assert str(classify_finite(e8, [v for v in e8.vertices if v != 0])) == "E8"
    d5 = build_affine(parse_type_id("D5-1"))
    assert str(classify_finite(d5, [v for v in d5.vertices if v != 0])) == "D5"


def test_classify_finite_rejects():
    d = build_affine(parse_type_id("A3-1"))
    with pytest.raises(ValueError):
        classify_finite(d, [])
    with pytest.raises(ValueError):
        classify_finite(d, [0, 1, 2, 3])  # not proper
    with pytest.raises(ValueError):
        classify_finite(d, [0, 2])  # disconnected
    with pytest.raises(ValueError):
        classify_finite(d, [7])
    a1 = build_affine(parse_type_id("A1-1"))
    with pytest.raises(ValueError):
        classify_finite(a1, [0, 1])


def _ref_classify_finite(diagram, vertices):
    # the case analysis classify_finite made before it read the type off the
    # bond data, with a raise for each pattern no finite type has
    k = sorted(vertices)
    a, adjacent = diagram.cartan, diagram.adjacency
    inside = set(k)
    degree = {v: sum(1 for w in adjacent[v] if w in inside) for v in k}
    bonds = [(i, j, a[i][j] * a[j][i]) for i in k for j in k if i < j and a[i][j] != 0]
    if any(m > 3 for _, _, m in bonds):
        raise ValueError("not finite")
    triples = [b for b in bonds if b[2] == 3]
    doubles = [b for b in bonds if b[2] == 2]
    if triples:
        if len(k) == 2 and len(bonds) == 1:
            return FiniteType("G", 2)
        raise ValueError("not finite")
    if len(doubles) > 1:
        raise ValueError("not finite")
    if doubles:
        if any(degree[v] > 2 for v in k):
            raise ValueError("not finite")
        i, j, _ = doubles[0]
        if len(k) == 2:
            return FiniteType("B", 2)
        if degree[i] == 1 or degree[j] == 1:
            end, other = (i, j) if degree[i] == 1 else (j, i)
            return FiniteType("B" if a[end][other] == -2 else "C", len(k))
        if len(k) == 4:
            return FiniteType("F", 4)
        raise ValueError("not finite")
    branch = [v for v in k if degree[v] >= 3]
    if not branch:
        return FiniteType("A", len(k))
    if len(branch) > 1 or degree[branch[0]] != 3:
        raise ValueError("not finite")
    arms = []
    for start in adjacent[branch[0]]:
        if start in inside:
            length, prev, cur = 1, branch[0], start
            while True:
                nxt = [w for w in adjacent[cur] if w in inside and w != prev]
                if not nxt:
                    break
                prev, cur, length = cur, nxt[0], length + 1
            arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return FiniteType("D", len(k))
    if arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        return FiniteType("E", len(k))
    raise ValueError("not finite")


def _connected_proper_subsets(diagram):
    # grown one neighbour at a time from each vertex
    found, layer = set(), {frozenset([v]) for v in diagram.vertices}
    while layer:
        found |= layer
        layer = {
            part | {w}
            for part in layer
            for v in part
            for w in diagram.adjacency[v]
            if w not in part and len(part) < diagram.n
        } - found
    return found


def test_classify_finite_matches_the_case_analysis():
    # every connected proper subset of the catalog and of larger types
    names = ALL_TYPES + [
        "E6-1", "E7-1", "E8-1", "B8-1", "C8-1", "D8-1", "B12-1", "C12-1",
        "D12-1", "A9-2", "A10-2", "D8-2", "A20-1",
    ]
    checked = 0
    for name in names:
        d = build_affine(name)
        for part in _connected_proper_subsets(d):
            assert classify_finite(d, part) == _ref_classify_finite(d, part), (name, part)
            checked += 1
    assert checked == 1235


def test_diagram_identity():
    d1 = build_affine(parse_type_id("A2-1"))
    d2 = build_affine(parse_type_id("A2-1"))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert d1 != build_affine(parse_type_id("A2-2"))
    assert str(d1) == "A2-1"


def test_build_affine_parses_each_argument_once(monkeypatch):
    d = build_affine("A30-1")
    assert build_affine(AffineTypeId("A", 30, 1)) is d
    for _ in range(2):
        with pytest.raises(ValueError, match="malformed type id"):
            build_affine("A30-9")
        with pytest.raises(ValueError, match="no affine diagram"):
            build_affine("E9-1")

    def refuse(text):
        raise AssertionError(f"parsed {text!r} again")

    monkeypatch.setattr(cartan, "parse_type_id", refuse)
    assert build_affine("A30-1") is d


def _interior_determinant(name) -> int:
    # from the tables, so the build cache keeps no rank the tests of bad
    # tables below serve
    return cartan._eliminate(cartan._tables(parse_type_id(name))[0])[2]


def test_interior_determinants():
    # the determinant of the finite Cartan matrix left after dropping vertex
    # 0, the product of the roots' pivots in the leaf-first elimination
    assert _interior_determinant("E8-1") == build_affine("E8-1")._elimination[2]
    for n in range(1, 201):
        assert _interior_determinant(f"A{n}-1") == n + 1
    for n in range(4, 13):
        assert _interior_determinant(f"D{n}-1") == 4
    for n, det in ((6, 3), (7, 2), (8, 1)):
        assert _interior_determinant(f"E{n}-1") == det
    for family, low in (("B", 3), ("C", 2)):
        for n in range(low, 13):
            assert _interior_determinant(f"{family}{n}-1") == 2


def _reference_adjugate(diagram) -> tuple:
    """Adjugate and determinant of the Cartan block on vertices 1..n by
    fraction-free Gauss-Jordan elimination in natural order, O(n^3); the
    adjugate is bordered by a zero row and column for vertex 0."""
    n = diagram.n
    rows = [
        [diagram.cartan[j][i] for i in range(1, n + 1)]
        + [int(i == j) for i in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    prev = 1
    for col in range(n):
        head = rows[col]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(head[col] * a - f * b) // prev for a, b in zip(rows[r], head)]
        prev = head[col]
    adj = tuple((0,) + tuple(row[n:]) for row in rows)
    return ((0,) * (n + 1),) + adj, prev


def test_scaled_coeffs_match_the_dense_adjugate():
    ids = [
        AffineTypeId(family, rank, twist)
        for family in "ABCDEFG"
        for rank in range(1, 41)
        for twist in (1, 2, 3)
        if cartan._rank_is_valid(family, rank, twist)
    ]
    assert len(ids) == 237 and {"A1-1", "A2-2"} <= set(map(str, ids))
    rng = random.Random(23)
    for tid in ids:
        d = build_affine(tid)
        adj, det = _reference_adjugate(d)
        for _ in range(20):
            labs = [rng.randint(-9, 9) for _ in d.vertices]
            p, q = rng.randint(-20, 20), rng.randint(1, 12)
            nums, den = _scaled_coeffs(d, labs, p, q)
            expected = [
                Fraction(sum(map(operator.mul, row, labs)) * q + p * mark * det, det * q)
                for row, mark in zip(adj, d.marks)
            ]
            assert [Fraction(v, den) for v in nums] == expected, (str(tid), labs, p, q)


def test_rho_against_rho_less_delta_on_a200():
    d = build_affine("A200-1")
    rho = weight_from_labels(d, [1] * 201)
    lower = weight_from_labels(d, [1] * 201, -1)
    assert dominance_leq(lower, rho) and not dominance_leq(rho, lower)
    assert meet(rho, lower) == lower and join(rho, lower) == rho
    # rho - 201 Lambda_0 solves the A200 block against all labels 1: the
    # coefficient of vertex i is i (201 - i) / 2, an integer
    base = weight_from_labels(d, [201] + [0] * 200)
    assert difference(rho, base) == tuple(i * (201 - i) // 2 for i in d.vertices)
    assert dominance_leq(base, rho) and not dominance_leq(rho, base)
    assert meet(rho, base) == base and join(base, rho) == rho


def _as_columns(rows) -> tuple:
    """The Cartan columns of dense rows, one column per row or per entry of
    the longest row, whichever is more, so a table that is not square keeps
    a row or a column too many."""
    size = max([len(rows)] + [len(row) for row in rows])
    return tuple(
        tuple((i, row[j]) for i, row in enumerate(rows) if j < len(row) and row[j])
        for j in range(size)
    )


def _columns(tables) -> tuple:
    """Dense (rows, marks, comarks) tables as ``cartan._tables`` returns them."""
    rows, marks, comarks = tables
    return _as_columns(rows), marks, comarks


# Each bad table below is written as dense rows and fails one check, every
# check before it passing.  Most are A2-1 with one entry, row, mark or comark
# changed.  _NOT_FINITE is a symmetric matrix whose mixed-sign mark vector
# passes every other check while its block on vertices 1..3, eliminated leaf
# first (vertices 2 and 3, then 1), leaves the pivot 2 - 9/2 - 1/2 = -3 at
# vertex 1.  Each is built past the diagram cache, so no diagram an earlier
# test cached hides it, and nothing bad stays there.
_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
_BAD_MARKS = (_A2, [1, 1, 2], [1, 1, 1])
_NOT_FINITE = (
    [[2, 0, -1, -3], [0, 2, -3, -1], [-1, -3, 2, 0], [-3, -1, 0, 2]],
    [1, -1, -1, 1],
    [1, -1, -1, 1],
)


# A symmetric matrix with mixed-sign marks that passes every check before
# the last, while its block on vertices 1..4 is the cycle 1-2-3-4-1.
_CYCLE = (
    [[2, 0, 0, -1, -1], [0, 2, -3, 0, -1], [0, -3, 2, -1, 0], [-1, 0, -1, 2, -2],
     [-1, -1, 0, -2, 2]],
    [1, -1, -1, 1, 1],
    [1, -1, -1, 1, 1],
)


# A 4-cycle with kernel vectors on both sides, comark 1 at vertex 0 and
# coprime marks and comarks, but comark over mark does not symmetrize it:
# a[0][1] half[0] = 360 while a[1][0] half[1] = 420.
_NOT_SYMMETRIZABLE = (
    [[2, -3, -2, 0], [-4, 2, 0, -2], [-2, 0, 2, -4], [0, -1, -4, 2]],
    [-7, -8, 5, 6],
    [1, 1, -1, -1],
)


@pytest.mark.parametrize(
    "type_id, tables, message",
    [
        ("A97-1", _BAD_MARKS, "marks annihilate the Cartan rows"),
        ("A98-1", _NOT_FINITE, "is of finite type (pivot at vertex 1 is -3)"),
        ("A96-1", _CYCLE, "is of finite type (the block has a cycle)"),
        # a fourth row, and a third row with a fourth entry
        ("A80-1", (_A2 + [[0, -1, 0]], [1, 1, 1], [1, 1, 1]), "Cartan matrix is square"),
        ("A81-1", (_A2[:2] + [[-1, -1, 2, -1]], [1, 1, 1], [1, 1, 1]), "Cartan matrix is square"),
        ("A82-1", ([[2, -1, -1], [-1, 3, -1], [-1, -1, 2]], [1, 1, 1], [1, 1, 1]),
         "diagonal entries are 2"),
        ("A83-1", ([[2, 1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1], [1, 1, 1]),
         "off-diagonal entries are nonpositive"),
        ("A84-1", ([[2, -1, -1], [0, 2, -1], [-1, -1, 2]], [1, 1, 1], [1, 1, 1]),
         "zero pattern is symmetric"),
        # two copies of A1-1
        ("A85-1", ([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]], [1] * 4, [1] * 4),
         "diagram is connected"),
        ("A86-1", (_A2, [1, 1, 1], [1, 1, 2]), "comarks annihilate the Cartan columns"),
        ("A87-1", (_A2, [2, 2, 2], [1, 1, 1]), "marks are coprime"),
        ("A88-1", (_A2, [1, 1, 1], [2, 2, 2]), "comarks are coprime"),
        ("A89-1", (_A2, [1, 1, 1], [-1, -1, -1]), "comark of vertex 0 is 1"),
        ("A90-1", _NOT_SYMMETRIZABLE, "form is symmetric"),
        ("A91-1", (_A2, [-1, -1, -1], [1, 1, 1]), "roots on vertices 1..n have positive length"),
    ],
)
def test_build_affine_rejects_bad_tables(monkeypatch, type_id, tables, message):
    monkeypatch.setattr(cartan, "_tables", lambda tid: _columns(tables))
    with pytest.raises(ValueError) as err:
        cartan._build_cached.__wrapped__(parse_type_id(type_id))
    assert f"{type_id}: check failed: " in str(err.value)
    assert message in str(err.value)


def test_finite_type_failure_names_the_block(monkeypatch):
    monkeypatch.setattr(cartan, "_tables", lambda tid: _columns(_NOT_FINITE))
    with pytest.raises(ValueError) as err:
        cartan._build_cached.__wrapped__(parse_type_id("A95-1"))
    assert str(err.value) == (
        "A95-1: check failed: Cartan block on vertices 1..3 is of finite type"
        " (pivot at vertex 1 is -3)"
    )


def _leading_minors_positive(cartan) -> bool:
    """Reference: fraction-free Gauss-Jordan elimination of the block on
    vertices 1..n in natural order, whose pivots are its leading principal
    minors; finite type exactly when each is positive."""
    n = len(cartan) - 1
    rows = [[cartan[j][i] for i in range(1, n + 1)] for j in range(1, n + 1)]
    prev = 1
    for col in range(n):
        head = rows[col]
        if head[col] <= 0:
            return False
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(head[col] * a - f * b) // prev for a, b in zip(rows[r], head)]
        prev = head[col]
    return True


VALIDATED = (
    ALL_TYPES
    + [f"A{n}-1" for n in range(1, 61)]
    + [f"{f}{n}-1" for f, low in (("B", 3), ("C", 2), ("D", 4)) for n in range(low, 13)]
    + ["E6-1", "E7-1", "E8-1", "A9-2", "A10-2", "D8-2"]
)


def test_leaf_first_elimination_matches_leading_minors():
    for name in VALIDATED:
        d = build_affine(name)
        assert not isinstance(cartan._eliminate(d.columns), str), name
        assert _leading_minors_positive(d.cartan), name
    for tables in (_NOT_FINITE, _CYCLE):
        rows = tables[0]
        assert isinstance(cartan._eliminate(_as_columns(rows)), str)
        assert not _leading_minors_positive(rows)


def test_leaf_first_elimination_matches_leading_minors_on_random_trees():
    # any tree of bonds is symmetrizable, so both tests decide finite type
    # for it; vertex 0 is left out of every bond
    rng = random.Random(7)
    bonds = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4)]
    verdicts = set()
    for _ in range(400):
        size = rng.randint(2, 9)
        rows = [[2 if i == j else 0 for j in range(size + 1)] for i in range(size + 1)]
        for v in range(2, size + 1):
            u = rng.randint(1, v - 1)
            x, y = rng.choice(bonds if rng.random() < 0.3 else bonds[:2])
            rows[u][v], rows[v][u] = -x, -y
        finite = _leading_minors_positive(rows)
        found = cartan._eliminate(_as_columns(rows))
        assert isinstance(found, str) != finite, rows
        verdicts.add(finite)
    assert verdicts == {True, False}


def test_cold_queries_build_neither_adjugate_nor_form(monkeypatch):
    # validation keeps the elimination that every gap solves along: no
    # adjugate exists, a cold query solves nothing, and a later gap
    # eliminates nothing again
    assert not hasattr(cartan, "_interior_adjugate")
    d = build_affine("A53-1")  # a rank no other test builds
    forward, backward, det = d._elimination
    assert det == 54 and len(forward) == len(backward) == 53

    def refuse(*args):
        raise AssertionError("solved or eliminated again")

    monkeypatch.setattr(weights, "_scaled_coeffs", refuse)
    special_vertices(d)
    monkeypatch.undo()
    monkeypatch.setattr(cartan, "_eliminate", refuse)
    rho = weight_from_labels(d, [1] * 54)
    assert dominance_leq(weight_from_labels(d, [1] * 54, -1), rho)
    built = set(vars(d))
    assert sym_length_sq(delta_root(d)) == 0 and set(vars(d)) == built
    with pytest.raises(AttributeError):
        d.sym_form


def test_a4097_diagram_holds_no_dense_matrix():
    # dense rows of this rank hold 4098^2, about 16.8 million, entries: over
    # 130 MB of pointers alone.  The build keeps three nonzero entries per
    # column and allocates a few MB at its peak
    tracemalloc.start()
    try:
        d = cartan._build_cached.__wrapped__(parse_type_id("A4097-1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "cartan" not in vars(d)
    assert list(map(len, d.columns)) == [3] * 4098
    assert peak < 16 * 2**20


def test_finite_type_check_survives_optimized_mode():
    script = (
        "import affposet.cartan as c\n"
        f"c._tables = lambda tid: {_columns(_NOT_FINITE)!r}\n"
        "try:\n"
        "    c.build_affine('A99-1')\n"
        "except ValueError as err:\n"
        "    print(__debug__, err)\n"
    )
    src = str(pathlib.Path(affposet.__file__).parents[1])
    paths = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("False A99-1: check failed: ")
    assert "is of finite type" in done.stdout


def test_type_id_rejects_a_rank_or_twist_that_is_not_an_int():
    for rank, twist in ((True, 1), (2, True), (2.0, 1), (2, 1.0), ("2", 1)):
        with pytest.raises(TypeError, match="rank and twist must be ints"):
            AffineTypeId("A", rank, twist)
    # a bool rank used to share A1-1's key, and so its cached tables
    assert str(build_affine("A1-1").type_id) == "A1-1"


def test_type_id_refuses_a_rank_past_the_ceiling(monkeypatch):
    # only the ids are made: no table is built at either rank
    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    top = 10**6
    assert cartan._MAX_RANK == top
    for family, twist in (("A", 1), ("B", 1), ("A", 2), ("D", 2)):
        assert AffineTypeId(family, top, twist).rank == top
        with pytest.raises(RankTooLargeError, match=f"rank {top + 1} is past the largest rank"):
            AffineTypeId(family, top + 1, twist)
    assert str(parse_type_id(f"A{top}-1")) == f"A{top}-1"
    with pytest.raises(RankTooLargeError):
        parse_type_id(f"A{top + 1}-1")
    with pytest.raises(RankTooLargeError):
        build_affine(f"A{10**8}-1")
    assert issubclass(RankTooLargeError, ValueError)
    # an id that names no diagram at any rank is refused as before
    with pytest.raises(ValueError, match="no affine diagram"):
        AffineTypeId("E", top + 1, 1)


def test_classify_finite_rejects_vertices_that_are_not_ints():
    d = build_affine("A3-1")
    for bad in ([True, 2], [1, True], [1.0, 2], ["1", 2]):
        with pytest.raises(TypeError, match="vertices must be ints"):
            classify_finite(d, bad)
    assert str(classify_finite(d, [1, 2])) == "A2"


def test_package_has_no_assert_statements():
    # python -O strips assert, so runtime invariants must raise instead
    package = pathlib.Path(affposet.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_parses_with_the_oldest_supported_grammar():
    # pyproject.toml's requires-python is >=3.10
    package = pathlib.Path(affposet.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert len(paths) > 5
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Reference: the tables as they were written out by hand, family by family,
# before each untwisted family became a bond list and the four dual twisted
# families became transposes of their untwisted partners.
def _ref_base_matrix(num: int):
    return [[2 if i == j else 0 for j in range(num)] for i in range(num)]


def _ref_join_simple(a, i: int, j: int) -> None:
    a[i][j] = -1
    a[j][i] = -1


def _ref_tables(tid: AffineTypeId):
    """Cartan rows, marks and comarks for one type id."""
    fam, r, tw = tid.family, tid.rank, tid.twist
    if tw == 1:
        if fam == "A":
            if r == 1:
                return [[2, -2], [-2, 2]], [1, 1], [1, 1]
            a = _ref_base_matrix(r + 1)
            for i in range(r):
                _ref_join_simple(a, i, i + 1)
            _ref_join_simple(a, 0, r)
            return a, [1] * (r + 1), [1] * (r + 1)
        if fam == "B":
            a = _ref_base_matrix(r + 1)
            _ref_join_simple(a, 0, 2)
            _ref_join_simple(a, 1, 2)
            for i in range(2, r):
                _ref_join_simple(a, i, i + 1)
            a[r][r - 1] = -2
            a[r - 1][r] = -1
            marks = [1, 1] + [2] * (r - 1)
            comarks = [1, 1] + [2] * (r - 2) + [1]
            return a, marks, comarks
        if fam == "C":
            a = _ref_base_matrix(r + 1)
            for i in range(r):
                _ref_join_simple(a, i, i + 1)
            a[1][0] = -2
            a[0][1] = -1
            a[r - 1][r] = -2
            a[r][r - 1] = -1
            return a, [1] + [2] * (r - 1) + [1], [1] * (r + 1)
        if fam == "D":
            a = _ref_base_matrix(r + 1)
            _ref_join_simple(a, 0, 2)
            _ref_join_simple(a, 1, 2)
            for i in range(2, r - 2):
                _ref_join_simple(a, i, i + 1)
            _ref_join_simple(a, r - 2, r - 1)
            _ref_join_simple(a, r - 2, r)
            marks = [1, 1] + [2] * (r - 3) + [1, 1]
            return a, marks, list(marks)
        if fam == "E" and r == 6:
            a = _ref_base_matrix(7)
            for i, j in ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)):
                _ref_join_simple(a, i, j)
            marks = [1, 1, 2, 3, 2, 1, 2]
            return a, marks, list(marks)
        if fam == "E" and r == 7:
            a = _ref_base_matrix(8)
            for i in range(6):
                _ref_join_simple(a, i, i + 1)
            _ref_join_simple(a, 3, 7)
            marks = [1, 2, 3, 4, 3, 2, 1, 2]
            return a, marks, list(marks)
        if fam == "E" and r == 8:
            a = _ref_base_matrix(9)
            for i in range(7):
                _ref_join_simple(a, i, i + 1)
            _ref_join_simple(a, 5, 8)
            marks = [1, 2, 3, 4, 5, 6, 4, 2, 3]
            return a, marks, list(marks)
        if fam == "F":
            a = _ref_base_matrix(5)
            for i in range(4):
                _ref_join_simple(a, i, i + 1)
            a[3][2] = -2
            a[2][3] = -1
            return a, [1, 2, 3, 4, 2], [1, 2, 3, 2, 1]
        if fam == "G":
            a = _ref_base_matrix(3)
            _ref_join_simple(a, 0, 1)
            _ref_join_simple(a, 1, 2)
            a[2][1] = -3
            return a, [1, 2, 3], [1, 2, 1]
    if tw == 2:
        if fam == "A" and r == 2:
            return [[2, -4], [-1, 2]], [2, 1], [1, 2]
        if fam == "A" and r % 2 == 0:
            l = r // 2
            a = _ref_base_matrix(l + 1)
            for i in range(l):
                _ref_join_simple(a, i, i + 1)
            a[0][1] = -2
            a[1][0] = -1
            a[l - 1][l] = -2
            a[l][l - 1] = -1
            return a, [2] * l + [1], [1] + [2] * l
        if fam == "A":
            l = (r + 1) // 2
            a = _ref_base_matrix(l + 1)
            _ref_join_simple(a, 0, 2)
            _ref_join_simple(a, 1, 2)
            for i in range(2, l):
                _ref_join_simple(a, i, i + 1)
            a[l - 1][l] = -2
            a[l][l - 1] = -1
            marks = [1, 1] + [2] * (l - 2) + [1]
            comarks = [1, 1] + [2] * (l - 2) + [2]
            return a, marks, comarks
        if fam == "D":
            l = r - 1
            a = _ref_base_matrix(l + 1)
            for i in range(l):
                _ref_join_simple(a, i, i + 1)
            a[0][1] = -2
            a[1][0] = -1
            a[l][l - 1] = -2
            a[l - 1][l] = -1
            return a, [1] * (l + 1), [1] + [2] * (l - 1) + [1]
        if fam == "E":
            a = _ref_base_matrix(5)
            for i in range(4):
                _ref_join_simple(a, i, i + 1)
            a[2][3] = -2
            a[3][2] = -1
            return a, [1, 2, 3, 2, 1], [1, 2, 3, 4, 2]
    if tw == 3:
        a = _ref_base_matrix(3)
        _ref_join_simple(a, 0, 1)
        _ref_join_simple(a, 1, 2)
        a[1][2] = -3
        return a, [1, 2, 1], [1, 2, 3]
    raise AssertionError(f"unhandled type {tid}")


def test_tables_match_the_hand_written_reference():
    ids = [
        AffineTypeId(family, rank, twist)
        for family in "ABCDEFG"
        for rank in range(1, 61)
        for twist in (1, 2, 3)
        if cartan._rank_is_valid(family, rank, twist)
    ]
    assert len(ids) == 357
    for tid in ids:
        assert cartan._tables(tid) == _columns(_ref_tables(tid)), str(tid)


def _ref_rank_is_valid(family, rank, twist):
    """The valid type ids written out family by family, independently of
    the partner map ``_tables`` reads."""
    if twist == 1:
        return {
            "A": rank >= 1,
            "B": rank >= 3,
            "C": rank >= 2,
            "D": rank >= 4,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }.get(family, False)
    if twist == 2:
        if family == "A":
            # A2-2 stands alone; the even series starts at rank 4, the odd
            # series at rank 5, so rank 3 has no twisted diagram
            return rank == 2 or rank >= 4
        return {"D": rank >= 3, "E": rank == 6}.get(family, False)
    return twist == 3 and family == "D" and rank == 4


def test_rank_is_valid_matches_the_written_out_rules():
    grid = [(f, r, t) for f in "ABCDEFGZ" for r in range(-1, 61) for t in range(5)]
    assert [cartan._rank_is_valid(*k) for k in grid] == [_ref_rank_is_valid(*k) for k in grid]
    # every valid id builds, and an invalid one names its family, rank and twist
    for f, r, t in grid:
        if _ref_rank_is_valid(f, r, t):
            assert build_affine(AffineTypeId(f, r, t)).type_id == AffineTypeId(f, r, t)
        else:
            message = f"^no affine diagram of family '{f}', rank {r}, twist {t}$"
            with pytest.raises(ValueError, match=message):
                AffineTypeId(f, r, t)
    # an id of an unhashable family is refused by name too, untwisted or not
    for twist in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=r"no affine diagram of family \['D'\]"):
            AffineTypeId(["D"], 4, twist)

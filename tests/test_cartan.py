import math

import pytest

from affposet.cartan import (
    AffineTypeId,
    FiniteType,
    build_affine,
    catalog_types,
    classify_finite,
    parse_type_id,
)
from affposet.roots import delta_root
from affposet.weights import fundamental_weight

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
    for bad in ("", "H3-1", "A0-1", "A2-4", "A2", "a2-1", "A2-2x"):
        with pytest.raises(ValueError):
            parse_type_id(bad)
    # valid ids outside the catalog still parse and build
    assert build_affine(parse_type_id("E8-1")).n == 8
    with pytest.raises(ValueError):
        parse_type_id("B2-1")  # rank too small for the B series
    with pytest.raises(ValueError):
        parse_type_id("A3-2")  # twisted A needs rank 2 or >= 4
    with pytest.raises(ValueError):
        parse_type_id("D5-3")


def test_finite_type_normalizes_c2():
    assert FiniteType("C", 2) == FiniteType("B", 2)
    assert str(FiniteType("C", 2)) == "B2"


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
    for name in ALL_TYPES:
        d = build_affine(parse_type_id(name))
        n = d.n
        for i in range(n + 1):
            assert d.sym_form[i][i] == d.root_length_sq[i]
            for j in range(n + 1):
                assert d.sym_form[i][j] == d.sym_form[j][i]
                assert d.sym_form[i][j] == d.cartan[i][j] * d.root_length_sq[i] / 2
        for i in range(n + 1):
            assert sum(d.sym_form[i][j] * d.marks[j] for j in range(n + 1)) == 0


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
    assert sorted(d.neighbors(0)) == [1, 3]


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


def test_diagram_identity():
    d1 = build_affine(parse_type_id("A2-1"))
    d2 = build_affine(parse_type_id("A2-1"))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert d1 != build_affine(parse_type_id("A2-2"))
    assert str(d1) == "A2-1"

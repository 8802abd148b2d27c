import random
from fractions import Fraction

import pytest

from affposet.cartan import build_affine, catalog_types, parse_type_id, special_vertices
from affposet.roots import (
    CoverKind,
    RootVector,
    cover_root_lookup,
    cover_root_set,
    coroot_pairing,
    delta_root,
    highest_short_root,
    is_real_root,
    simple_reflection,
    simple_root,
    sym_length_sq,
)

ALL_TYPES = [str(t) for t in catalog_types()]


def D(name):
    return build_affine(parse_type_id(name))


def test_root_vector_basics():
    d = D("A2-1")
    r = RootVector(d, (1, 0, 2))
    assert r.support() == frozenset({0, 2})
    assert r.height() == 3
    s = simple_root(d, 1)
    assert (r + s).coeffs == (1, 1, 2)
    assert (r - s).coeffs == (1, -1, 2)
    assert (-r).coeffs == (-1, 0, -2)
    with pytest.raises(ValueError):
        RootVector(d, (1, 0))
    with pytest.raises(ValueError):
        r + RootVector(D("A3-1"), (0, 0, 0, 1))


def test_root_vector_rejects_non_int_coefficients():
    d = D("A2-1")
    for bad in (1.9, Fraction(1), True):
        with pytest.raises(TypeError):
            RootVector(d, (0, bad, 0))
    assert RootVector(d, [0, 1, 0]).coeffs == (0, 1, 0)


def test_simple_root_rejects_a_vertex_that_is_not_an_int():
    d = D("A2-1")
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="vertices must be ints"):
            simple_root(d, bad)


def test_coroot_pairing_rejects_a_vertex_that_is_not_an_int():
    d = D("A2-1")
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="vertices must be ints"):
            coroot_pairing(simple_root(d, 1), bad)
    with pytest.raises(ValueError, match="no vertex -1"):
        coroot_pairing(simple_root(d, 1), -1)


def test_simple_reflection_rejects_a_vertex_that_is_not_an_int():
    d = D("A2-1")
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="vertices must be ints"):
            simple_reflection(simple_root(d, 1), bad)


def test_highest_short_root_rejects_vertices_that_are_not_ints():
    d = D("A3-1")
    for bad in ([True, 2], [1, True], [1.0, 2]):
        with pytest.raises(TypeError, match="vertices must be ints"):
            highest_short_root(d, bad)
    assert highest_short_root(d, [1, 2]).coeffs == (0, 1, 1, 0)


def test_delta_equals_marks():
    for name in ALL_TYPES:
        d = D(name)
        assert delta_root(d).coeffs == d.marks
        # delta pairs to zero against every coroot
        for j in d.vertices:
            assert coroot_pairing(delta_root(d), j) == 0


def test_simple_reflection():
    d = D("A1-1")
    a0 = simple_root(d, 0)
    # reflecting alpha_0 at vertex 1 climbs to alpha_0 + 2 alpha_1
    assert simple_reflection(a0, 1).coeffs == (1, 2)
    assert simple_reflection(simple_reflection(a0, 1), 1) == a0


def test_sym_length_sq():
    g2 = D("G2-1")
    assert sym_length_sq(simple_root(g2, 1)) == 2
    assert sym_length_sq(simple_root(g2, 2)) == Fraction(2, 3)
    assert sym_length_sq(delta_root(g2)) == 0
    a22 = D("A2-2")
    assert sym_length_sq(RootVector(a22, (1, 1))) == 1


def test_highest_short_root_frozen():
    assert highest_short_root(D("G2-1"), {1, 2}).coeffs == (0, 1, 2)
    assert highest_short_root(D("D4-3"), {1, 2}).coeffs == (0, 2, 1)
    assert highest_short_root(D("C3-1"), {1, 2, 3}).coeffs == (0, 1, 2, 1)
    assert highest_short_root(D("D4-2"), {1, 2, 3}).coeffs == (0, 1, 1, 1)
    assert highest_short_root(D("A5-2"), {1, 2, 3}).coeffs == (0, 1, 2, 1)
    assert highest_short_root(D("A3-1"), {1}).coeffs == (0, 1, 0, 0)


def test_highest_short_root_properties():
    rng = random.Random(11)
    for name in ALL_TYPES:
        d = D(name)
        subsets = [
            s for s in _proper_connected(d) if len(s) <= 4
        ]
        rng.shuffle(subsets)
        for subset in subsets[:12]:
            hsr = highest_short_root(d, subset)
            assert hsr.support() == frozenset(subset)
            assert is_real_root(hsr)
            lengths = [
                sym_length_sq(hsr),
                min(sym_length_sq(simple_root(d, j)) for j in subset),
            ]
            assert lengths[0] == lengths[1]


def _proper_connected(d):
    import itertools

    out = []
    verts = list(d.vertices)
    for size in range(1, d.n + 1):
        for sub in itertools.combinations(verts, size):
            if d.is_connected(sub):
                out.append(sub)
    return out


def test_is_real_root():
    a1 = D("A1-1")
    assert is_real_root(simple_root(a1, 0))
    assert is_real_root(RootVector(a1, (1, 2)))
    assert is_real_root(RootVector(a1, (-1, -2)))
    assert not is_real_root(delta_root(a1))
    assert not is_real_root(RootVector(a1, (0, 0)))
    assert not is_real_root(RootVector(a1, (2, 0)))
    assert not is_real_root(RootVector(a1, (1, -1)))
    a42 = D("A4-2")
    assert is_real_root(RootVector(a42, (1, 2, 1)))
    assert not is_real_root(RootVector(a42, (2, 2, 0)))
    a2 = D("A2-1")
    assert is_real_root(RootVector(a2, (1, 0, 1)) + delta_root(a2))
    assert is_real_root(RootVector(a2, (1, 1, 0)))
    assert not is_real_root(RootVector(a2, (2, 0, 1)))


def test_cover_root_set_frozen():
    a1 = {c.root.coeffs for c in cover_root_set(D("A1-1"))}
    assert a1 == {(1, 0), (0, 1), (1, 1)}
    a2 = {c.root.coeffs for c in cover_root_set(D("A2-1"))}
    assert a2 == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1),
    }
    g2 = {c.root.coeffs for c in cover_root_set(D("G2-1"))}
    assert g2 == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
        (0, 1, 2), (0, 1, 1), (1, 1, 1), (1, 2, 3),
    }
    d43 = {c.root.coeffs for c in cover_root_set(D("D4-3"))}
    assert d43 == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
        (0, 2, 1), (0, 1, 1), (1, 2, 1),
    }
    a22 = {c.root.coeffs for c in cover_root_set(D("A2-2"))}
    assert a22 == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_cover_root_kinds():
    lookup = cover_root_lookup(D("G2-1"))
    assert lookup[(1, 0, 0)].kind is CoverKind.SIMPLE
    assert lookup[(0, 1, 2)].kind is CoverKind.SHORT
    assert lookup[(0, 1, 1)].kind is CoverKind.EXCEPTIONAL
    assert lookup[(1, 1, 1)].kind is CoverKind.EXCEPTIONAL
    assert lookup[(1, 2, 3)].kind is CoverKind.DELTA
    lookup = cover_root_lookup(D("A2-2"))
    assert lookup[(1, 1)].kind is CoverKind.EXCEPTIONAL
    assert lookup[(2, 1)].kind is CoverKind.DELTA


def test_cover_roots_bounded_by_marks():
    for name in ALL_TYPES:
        d = D(name)
        for cand in cover_root_set(d):
            assert all(
                0 <= c <= m for c, m in zip(cand.root.coeffs, d.marks)
            ), (name, cand.root.coeffs)
            if cand.kind is not CoverKind.DELTA:
                assert is_real_root(cand.root), (name, cand.root.coeffs)


def test_cover_root_set_sorted_and_unique():
    for name in ALL_TYPES:
        cands = cover_root_set(D(name))
        keys = [(c.root.height(), c.root.coeffs) for c in cands]
        assert keys == sorted(keys)
        assert len({c.root.coeffs for c in cands}) == len(cands)


def _scanned_cover_roots(d):
    # reference: test every vertex subset short of the whole diagram
    out = [
        (highest_short_root(d, sub).coeffs, CoverKind.SIMPLE if len(sub) == 1 else CoverKind.SHORT)
        for sub in _proper_connected(d)
    ]
    out.append((d.marks, CoverKind.DELTA))
    return sorted(out, key=lambda entry: (sum(entry[0]), entry[0]))


@pytest.mark.parametrize(
    "name",
    [f"A{n}-1" for n in range(5, 14)]
    + ["B6-1", "C6-1", "D7-1", "E6-1", "E7-1", "E8-1", "A9-2", "D8-2"],
)
def test_cover_root_set_matches_subset_scan(name):
    d = D(name)
    grown = [(c.root.coeffs, c.kind) for c in cover_root_set(d)]
    assert grown == _scanned_cover_roots(d)


def _full_scan_climb(d, subset):
    # reference: from a shortest simple root, reflect at the first vertex of
    # the subset whose coroot value is negative, updating every value
    a = d.cartan
    seed = min(subset, key=d.root_length_sq.__getitem__)
    coeffs = [int(v == seed) for v in d.vertices]
    pairing = {v: a[v][seed] for v in subset}
    while True:
        j = next((v for v in subset if pairing[v] < 0), None)
        if j is None:
            return tuple(coeffs)
        p = pairing[j]
        coeffs[j] -= p
        for v in subset:
            pairing[v] -= p * a[v][j]


def _arcs(n):
    # the connected proper vertex sets of the (n+1)-cycle A_n^(1)
    return [tuple(sorted((s + t) % (n + 1) for t in range(size)))
            for s in range(n + 1) for size in range(1, n + 1)]


@pytest.mark.parametrize("name", ALL_TYPES + ["A20-1", "E8-1"])
def test_highest_short_root_matches_full_scan_climb(name):
    d = D(name)
    subsets = _arcs(20) if name == "A20-1" else _proper_connected(d)
    for sub in subsets:
        assert highest_short_root(d, sub).coeffs == _full_scan_climb(d, sub), sub
    # special vertices, by their definition, from the reference climb
    expected = []
    for i in d.vertices:
        rest = tuple(v for v in d.vertices if v != i)
        target = tuple(m - (j == i) for j, m in enumerate(d.marks))
        if d.marks[i] == 1 and d.is_connected(rest) and _full_scan_climb(d, rest) == target:
            expected.append(i)
    assert special_vertices(d) == tuple(expected)


def test_cover_root_set_on_a40():
    # the 40 * 41 proper arcs of the 41-cycle, plus delta
    assert len(cover_root_set(D("A40-1"))) == 1641

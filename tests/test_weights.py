import itertools
import json
import random
from fractions import Fraction

import pytest

import affposet.weights as weights
from affposet.cartan import build_affine, catalog_types, classify_finite, format_shift, parse_type_id
from affposet.covering import cocovers
from affposet.oracle import _draws, _sweep
from affposet.roots import RootVector, delta_root, highest_short_root, simple_root
from affposet.weights import (
    ComponentMismatchError,
    Weight,
    add_root,
    delta_shift,
    difference,
    dominance_leq,
    fundamental_weight,
    is_dominant,
    join,
    labels,
    meet,
    parse_shift,
    sort_key,
    weight_from_json,
    weight_from_labels,
    weight_to_json,
)

ALL_TYPES = [str(t) for t in catalog_types()]


def D(name):
    return build_affine(parse_type_id(name))


def W(name, labs, shift=0):
    return weight_from_labels(D(name), labs, shift)


def test_fundamental_weight_rejects_a_vertex_that_is_not_an_int():
    d = D("A2-1")
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="vertices must be ints"):
            fundamental_weight(d, bad)
    with pytest.raises(ValueError, match="no vertex 3"):
        fundamental_weight(d, 3)


def test_weight_construction():
    d = D("A1-1")
    w = Weight(d, (0, 1))
    assert labels(w) == (0, 1)
    assert w.m == 1
    assert w.coeffs == (0, Fraction(1, 2))
    assert delta_shift(w) == 0
    assert w == Weight(d, (0, 1), Fraction(0)) and w != Weight(d, (0, 1), 1)
    with pytest.raises(ValueError):
        Weight(d, (0,))
    with pytest.raises(TypeError):
        Weight(d, (0.5, 0))
    # bool is an int subclass, but the labels refuse it and so does the shift
    for bad in (True, False):
        with pytest.raises(TypeError, match="labels must be ints"):
            Weight(d, (bad, 0))
        with pytest.raises(TypeError, match="expected an int or Fraction, got"):
            Weight(d, (0, 1), bad)
        with pytest.raises(TypeError, match="expected an int or Fraction, got"):
            format_shift(bad)


def test_fundamental_weights_frozen():
    w = fundamental_weight(D("A1-1"), 1)
    assert w.coeffs == (0, Fraction(1, 2))
    w = fundamental_weight(D("A2-1"), 1)
    assert w.coeffs == (0, Fraction(2, 3), Fraction(1, 3))
    w = fundamental_weight(D("G2-1"), 2)
    assert w.coeffs == (0, 1, 2)
    w0 = fundamental_weight(D("G2-1"), 0)
    assert w0.coeffs == (0, 0, 0) and w0.m == 1


def test_labels_round_trip():
    rng = random.Random(5)
    for name in ALL_TYPES:
        d = D(name)
        for _ in range(25):
            labs = tuple(rng.randint(0, 4) for _ in d.vertices)
            shift = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            w = weight_from_labels(d, labs, shift)
            assert labels(w) == labs
            assert delta_shift(w) == shift
            assert w.m == sum(
                c * v for c, v in zip(d.comarks, labs)
            )
            # the derived root coefficients pair back to the labels
            assert all(
                w.m * (j == 0) + sum(a * c for a, c in zip(d.cartan[j], w.coeffs))
                == labs[j]
                for j in d.vertices
            )


def test_level_zero_and_negative_labels():
    d = D("A2-1")
    w = weight_from_labels(d, (0, 0, 0), Fraction(3, 2))
    assert w.m == 0 and delta_shift(w) == Fraction(3, 2)
    assert is_dominant(w)
    v = add_root(w, RootVector(d, (0, -1, 0)))
    assert not is_dominant(v)


def test_dominance_leq():
    d = D("A2-1")
    top = weight_from_labels(d, (0, 2, 2))
    bottom = weight_from_labels(d, (2, 1, 1))
    assert dominance_leq(bottom, top)
    assert not dominance_leq(top, bottom)
    assert dominance_leq(top, top)
    # different levels are incomparable
    assert not dominance_leq(fundamental_weight(d, 0), top)
    # non-integral coefficient gaps are incomparable
    third = add_root(top, RootVector(d, (0, -1, 0)))
    shifted = weight_from_labels(d, labels(top), Fraction(1, 3))
    assert difference(shifted, top) == (Fraction(1, 3),) * 3
    assert not dominance_leq(third, shifted)


def test_dominance_leq_reads_the_shifts_before_solving(monkeypatch):
    # the vertex-0 coefficient of upper - lower is mark_0 times the shift
    # difference; when it is negative or fractional no solve is run
    real, solved = weights._scaled_coeffs, []

    def counted(*args):
        solved.append(args)
        return real(*args)

    monkeypatch.setattr(weights, "_scaled_coeffs", counted)
    d = D("G2-1")
    top = weight_from_labels(d, (0, 1, 0))
    for shift, expected in ((Fraction(-1, 2), False), (1, False), (-1, True)):
        assert dominance_leq(weight_from_labels(d, (0, 1, 0), shift), top) == expected
    assert len(solved) == 1
    # the level differs, but the shifts answer first
    assert not dominance_leq(weight_from_labels(d, (2, 1, 0), 1), top)
    assert len(solved) == 1
    assert dominance_leq(top, top) and len(solved) == 2


def test_dominance_leq_checks_the_diagrams_before_the_shifts():
    # shifts alone would answer False here: lower sits one delta above upper
    upper = W("A2-1", (0, 2, 2))
    for lower in (W("A3-1", (0, 2, 2, 0), 1), W("A2-2", (0, 4), 1)):
        with pytest.raises(ComponentMismatchError, match="weights on different diagrams"):
            dominance_leq(lower, upper)


def test_zero_shift_is_shared():
    d = D("A3-1")
    assert weight_from_labels(d, (1, 0, 1, 0)).shift is weights._ZERO
    assert weight_from_labels(d, (1, 0, 1, 0), Fraction(0)).shift == 0
    assert weight_from_labels(d, (1, 0, 1, 0), -2).shift == -2


def test_difference_and_errors():
    d = D("A2-1")
    a = weight_from_labels(d, (0, 2, 2))
    b = weight_from_labels(d, (2, 1, 1))
    assert difference(a, b) == (0, 1, 1)
    with pytest.raises(ComponentMismatchError):
        difference(a, fundamental_weight(d, 0))
    with pytest.raises(ComponentMismatchError):
        difference(a, weight_from_labels(D("A3-1"), (0, 2, 2, 0)))


def test_meet_join_frozen():
    d = D("A2-1")
    a = weight_from_labels(d, (0, 3, 0))
    b = weight_from_labels(d, (0, 0, 3))
    m = meet(a, b)
    j = join(a, b)
    assert m.coeffs == (0, 1, 1) and labels(m) == (1, 1, 1)
    assert j.coeffs == (1, 2, 2) and labels(j) == (1, 1, 1)
    assert difference(j, m) == (1, 1, 1)


def test_meet_join_with_self_and_comparable():
    d = D("A3-1")
    top = weight_from_labels(d, (0, 2, 1, 1))
    bot = weight_from_labels(d, (2, 1, 1, 0))
    assert meet(top, top) == top and join(top, top) == top
    assert meet(top, bot) == bot and join(top, bot) == top


def _random_pair(d, rng):
    labs = tuple(rng.randint(0, 3) for _ in d.vertices)
    w = weight_from_labels(d, labs, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    offs = RootVector(d, [rng.randint(-2, 2) for _ in d.vertices])
    v = add_root(w, offs)
    # walk the partner back into the dominant cone
    while True:
        neg = [j for j in d.vertices if labels(v)[j] < 0]
        if not neg:
            return w, v
        j = neg[0]
        step = (-labels(v)[j] + 1) // 2
        v = add_root(v, RootVector(d, [step if i == j else 0 for i in d.vertices]))


def test_lattice_axioms_sampled():
    rng = random.Random(23)
    for name in ("A2-1", "C2-1", "A2-2", "G2-1", "D3-2"):
        d = D(name)
        for _ in range(40):
            a, b = _random_pair(d, rng)
            m, j = meet(a, b), join(a, b)
            assert is_dominant(m) and is_dominant(j)
            assert dominance_leq(m, a) and dominance_leq(m, b)
            assert dominance_leq(a, j) and dominance_leq(b, j)
            assert meet(b, a) == m and join(b, a) == j
            assert meet(a, m) == m and join(a, j) == j
            # absorption
            assert join(a, m) == a and meet(a, j) == a


def test_shift_codec():
    assert format_shift(Fraction(-1, 2)) == "-1/2"
    assert format_shift(Fraction(3)) == "3/1"
    assert parse_shift("3/1") == 3
    assert parse_shift("-1/2") == Fraction(-1, 2)
    for bad in ("", "1", "1/0", "2/4", "1/-2", "x/y"):
        with pytest.raises(ValueError):
            parse_shift(bad)


def test_weight_json_round_trip():
    w = W("A3-1", (0, 2, 1, 1), Fraction(-1, 3))
    data = weight_to_json(w)
    assert data == {
        "type": "A3-1",
        "labels": [0, 2, 1, 1],
        "delta_shift": "-1/3",
    }
    assert weight_from_json(data) == w
    text = json.dumps(data, sort_keys=True)
    assert weight_from_json(json.loads(text)) == w


def test_weight_from_json_rejects_non_integer_labels():
    for bad in (1.7, True, "3"):
        data = {"type": "A2-1", "labels": [0, bad, 1], "delta_shift": "0/1"}
        with pytest.raises(ValueError):
            weight_from_json(data)


def test_weight_from_json_parses_shift_integers_strictly():
    # int() would read these as 10, 1 and 1
    for bad in ("1_0", "+1", "\u0661"):
        for shift in (f"{bad}/3", f"1/{bad}"):
            data = {"type": "A2-1", "labels": [0, 1, 1], "delta_shift": shift}
            with pytest.raises(ValueError, match="malformed shift"):
                weight_from_json(data)
    data = {"type": "A2-1", "labels": [0, 1, 1], "delta_shift": " -1/3"}
    assert weight_from_json(data).shift == Fraction(-1, 3)


def test_sort_key_orders_by_level_then_labels():
    d = D("A2-1")
    ws = [
        weight_from_labels(d, (1, 1, 1), 0),
        weight_from_labels(d, (0, 0, 3), 0),
        weight_from_labels(d, (1, 1, 1), -1),
        fundamental_weight(d, 0),
    ]
    ordered = sorted(ws, key=sort_key)
    assert [w.m for w in ordered] == [1, 3, 3, 3]
    assert labels(ordered[1]) == (0, 0, 3)
    assert delta_shift(ordered[2]) == -1


def test_add_root_shifts_labels():
    d = D("A1-1")
    w = fundamental_weight(d, 0)
    up = add_root(w, delta_root(d))
    assert labels(up) == labels(w)
    assert delta_shift(up) == delta_shift(w) + 1
    with pytest.raises(ComponentMismatchError):
        add_root(w, delta_root(D("A2-1")))


def _dense_add_root(weight, root):
    # reference: the full product of the Cartan matrix with the root
    d, beta = weight.diagram, root.coeffs
    labs = tuple(
        v + sum(a * b for a, b in zip(row, beta))
        for v, row in zip(weight.labels, d.cartan)
    )
    return Weight(d, labs, weight.shift + Fraction(beta[0], d.marks[0]))


@pytest.mark.parametrize("name", ALL_TYPES + ["A20-1"])
def test_add_root_matches_dense_product(name):
    d = D(name)
    rng = random.Random(f"add_root:{name}")
    for i in range(40):
        shift = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        w = weight_from_labels(d, [rng.randint(-3, 3) for _ in d.vertices], shift)
        beta = [rng.randint(-3, 3) for _ in d.vertices]
        if i % 2:  # the root moves the delta shift
            beta[0] = rng.choice((-2, -1, 1, 2))
        root = RootVector(d, beta)
        assert add_root(w, root) == _dense_add_root(w, root), (w, root)


def test_weight_hash_reads_the_value_not_its_form():
    d = D("A2-1")
    halves = [Weight(d, (1, 0, 1), s) for s in (Fraction(1, 2), Fraction(2, 4), Fraction(-3, -6))]
    twos = [Weight(d, (1, 0, 1), s) for s in (2, Fraction(2), Fraction(8, 4))]
    for forms in (halves, twos):
        assert len({hash(w) for w in forms}) == 1
        assert len(set(forms)) == 1
        # equal values built from different Fraction forms compare equal
        assert all(w == forms[0] and not w != forms[0] for w in forms)
    # equal labels, different shifts
    assert halves[0] != twos[0] and not halves[0] == twos[0]
    assert Weight(d, (1, 0, 1), Fraction(1, 2)) != Weight(d, (1, 0, 1), Fraction(1, 3))
    assert Weight(d, (1, 0, 1), Fraction(-1, 2)) != Weight(d, (1, 0, 1), Fraction(1, 2))
    # the same labels and shift on two diagrams of one rank
    for shift in (0, Fraction(3, 2)):
        a, g = Weight(D("A2-1"), (1, 0, 0), shift), Weight(D("G2-1"), (1, 0, 0), shift)
        assert a != g and not a == g and len({a, g}) == 2
    # hash(-1) == hash(-2), yet one label tuple at nearby shifts hashes apart
    shifts = [Fraction(k) for k in range(-6, 7)] + [Fraction(k, 2) for k in (-3, -1, 1, 3)]
    assert len({hash(Weight(d, (1, 0, 1), s)) for s in shifts}) == len(shifts) == 17


def test_error_types_and_texts_are_pinned():
    x = W("A2-1", (1, 0, 0))
    other_diagram = W("A3-1", (1, 0, 0, 0))
    other_level = W("A2-1", (1, 1, 0))
    non_integral = W("A2-1", (0, 1, 0))
    half_shift = W("A2-1", (1, 0, 0), Fraction(1, 2))
    not_dominant = add_root(x, simple_root(D("A2-1"), 1))  # labels (0, 2, -1)
    for fn in (difference, dominance_leq, meet, join):
        with pytest.raises(ComponentMismatchError) as info:
            fn(x, other_diagram)
        assert str(info.value) == "weights on different diagrams: A2-1 and A3-1"
        with pytest.raises(ComponentMismatchError) as info:
            fn(other_diagram, x)
        assert str(info.value) == "weights on different diagrams: A3-1 and A2-1"
    for fn in (difference, meet, join):
        with pytest.raises(ComponentMismatchError) as info:
            fn(x, other_level)
        assert str(info.value) == "levels differ: 1 and 2"
    for fn, pair, text in [
        (meet, (x, non_integral), "coefficient 1 differs by the non-integer -2/3"),
        (join, (x, non_integral), "coefficient 1 differs by the non-integer -2/3"),
        (meet, (x, half_shift), "coefficient 0 differs by the non-integer -1/2"),
        (join, (half_shift, x), "coefficient 0 differs by the non-integer 1/2"),
    ]:
        with pytest.raises(ComponentMismatchError) as info:
            fn(*pair)
        assert str(info.value) == text
    for fn in (meet, join):
        for pair in ((x, not_dominant), (not_dominant, x)):
            with pytest.raises(ValueError) as info:
                fn(*pair)
            assert type(info.value) is ValueError
            assert str(info.value) == "meet and join are defined for dominant weights"
    assert difference(x, non_integral) == (0, Fraction(-2, 3), Fraction(-1, 3))
    assert difference(not_dominant, x) == (0, 1, 0)
    for pair in ((x, other_level), (x, non_integral), (x, half_shift)):
        assert not dominance_leq(*pair) and not dominance_leq(*reversed(pair))
    assert dominance_leq(x, not_dominant) and not dominance_leq(not_dominant, x)

    for name, vertices, text in [
        ("A2-1", [], "empty vertex set"),
        ("A2-1", [0, 5], "vertices [0, 5] out of range for A2-1"),
        ("A2-1", [2, 1, 0], "subdiagram must be proper"),
        ("A5-1", [4, 0, 2], "vertex set [0, 2, 4] is not connected in A5-1"),
    ]:
        for fn in (highest_short_root, classify_finite):
            with pytest.raises(ValueError) as info:
                fn(D(name), vertices)
            assert type(info.value) is ValueError
            assert str(info.value) == text


# The shift step and the join as they were before both ran on integers: a
# shift step adds two Fractions, and the join rebuilds a Weight at each
# repair of its first negative vertex.
def _ref_plus_delta(shift, k, mark0):
    return shift + Fraction(k, mark0) if k else shift


def _ref_moved(weight, coeffs):
    d = weight.diagram
    labs = weights._add_columns(d, weight.labels, coeffs)
    return Weight(d, labs, _ref_plus_delta(weight.shift, coeffs[0], d.marks[0]))


def _ref_join(a, b):
    bound = _ref_moved(a, [max(0, -g) for g in weights._require_component(a, b)])
    while True:
        j = next((j for j, e in enumerate(bound.labels) if e < 0), None)
        if j is None:
            return bound
        step = [0] * len(bound.labels)
        step[j] = (1 - bound.labels[j]) // 2
        bound = _ref_moved(bound, step)


def test_plus_delta_matches_the_sum_of_fractions():
    rng = random.Random("plus_delta")
    for _ in range(3000):
        shift = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        k, mark0 = rng.randint(-8, 8), rng.randint(1, 6)
        got = weights._plus_delta(shift, k, mark0)
        want = _ref_plus_delta(shift, k, mark0)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize(
    "name, levels",
    [(name, (1, 2, 3, 4, 5)) for name in ALL_TYPES + [
        "E6-1", "E7-1", "A20-1", "B12-1", "C12-1", "D12-1"
    ]] + [("A30-1", (1, 2, 3))],
)
def test_join_matches_the_reference_on_sweep_pairs(name, levels):
    # the sweep's pairs, and the pairs of cocovers of each sampled weight,
    # whose coefficient maximum often has negative labels to repair
    d = D(name)
    pairs = [(a, b) for a, b in _sweep(d, _draws(d, levels, 20, 17)) if b is not None]
    assert len(pairs) == 20 * len(levels)
    for a, _ in pairs[:]:
        lowers = [e.lower for e in cocovers(a)]
        pairs += itertools.combinations(lowers, 2)
    repaired = 0
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            gap = weights._require_component(x, y)
            got = join(x, y)
            assert got == _ref_join(x, y), (x, y)
            assert got == weights._at(x, weights._gap_join(x, gap))
            repaired += min(weights._add_columns(d, x.labels, [max(0, -g) for g in gap])) < 0
    assert repaired or d.n == 1

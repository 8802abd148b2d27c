import ast
import collections
import io
import itertools
import operator
import pathlib
import random
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import affposet
import affposet.cartan as cartan
import affposet.covering as covering
import affposet.oracle as oracle
import affposet.weights as weights
from affposet.cartan import (
    AffineTypeId,
    _rank_is_valid,
    build_affine,
    catalog_types,
    format_shift,
    parse_type_id,
)
from affposet.cli import run
from affposet.oracle import (
    BoxTooLargeError,
    BruteBounds,
    CensusTooLargeError,
    SearchWindow,
    TooManySamplesError,
    WindowExhaustedError,
    brute_bounds,
    brute_cocovers,
    default_window,
    verify_covering,
)
from affposet.roots import RootVector, cover_root_set
from affposet.weights import (
    ComponentMismatchError,
    add_root,
    delta_shift,
    difference,
    fundamental_weight,
    labels,
    meet,
    join,
    weight_from_labels,
)


def D(name):
    return build_affine(parse_type_id(name))


def W(name, labs, shift=0):
    return weight_from_labels(D(name), labs, shift)


def test_search_window_validation():
    w = SearchWindow((2, 2))
    assert w.bounds == (2, 2)
    assert w.doubled().bounds == (4, 4)
    with pytest.raises(ValueError):
        SearchWindow(())
    with pytest.raises(ValueError):
        SearchWindow((1, 0))
    assert default_window(D("G2-1")).bounds == (2, 4, 6)


def test_default_window_strictly_contains_every_cover_root():
    # every candidate cover difference is at most delta in each coefficient,
    # so twice the marks leaves room above each of them
    ids = [
        AffineTypeId(family, rank, twist)
        for family in "ABCDEFG"
        for rank in range(1, 21)
        for twist in (1, 2, 3)
        if _rank_is_valid(family, rank, twist)
    ]
    assert len(ids) == 117
    for tid in ids:
        diagram = build_affine(tid)
        for candidate in cover_root_set(diagram):
            coeffs = candidate.root.coeffs
            assert all(map(operator.le, coeffs, diagram.marks)), (str(tid), coeffs)


def test_brute_cocovers_frozen_a4():
    bc = brute_cocovers(W("A4-1", (1, 1, 1, 1, 0)))
    assert [t.coeffs for t in bc.differences] == [
        (0, 0, 1, 1, 0),
        (0, 1, 1, 0, 0),
        (1, 0, 0, 1, 1),
        (1, 1, 0, 0, 0),
    ]
    assert [tuple(int(v) for v in labels(w)) for w in bc.cocovers] == [
        (1, 2, 0, 0, 1),
        (2, 0, 0, 2, 0),
        (0, 2, 2, 0, 0),
        (0, 0, 2, 1, 1),
    ]
    assert bc.boundary == (False, False, False, False)


def test_brute_cocovers_exceptional_pair():
    bc = brute_cocovers(W("A2-2", (0, 1)))
    assert [t.coeffs for t in bc.differences] == [(1, 1)]
    assert [tuple(int(v) for v in labels(w)) for w in bc.cocovers] == [(2, 0)]


def test_brute_cocovers_tiny_window_flags_boundary():
    bc = brute_cocovers(W("A1-1", (1, 1)), SearchWindow((1, 1)))
    assert [t.coeffs for t in bc.differences] == [(1, 1)]
    assert bc.boundary == (True,)


def test_brute_cocovers_rejects_non_dominant():
    w = add_root(W("A2-1", (1, 0, 0)), RootVector(D("A2-1"), (0, -1, 0)))
    with pytest.raises(ValueError):
        brute_cocovers(w)


def test_brute_bounds_frozen():
    a = W("A2-1", (0, 3, 0))
    b = W("A2-1", (0, 0, 3))
    bb = brute_bounds(a, b)
    assert bb.glb == meet(a, b)
    assert bb.lub == join(a, b)
    assert tuple(int(v) for v in labels(bb.glb)) == (1, 1, 1)
    assert delta_shift(bb.lub) - delta_shift(bb.glb) == 1


def test_brute_bounds_of_comparable_pair():
    top = W("A3-1", (0, 2, 1, 1))
    bot = W("A3-1", (2, 1, 1, 0))
    bb = brute_bounds(top, bot)
    assert bb.glb == bot and bb.lub == top


def test_brute_bounds_component_errors():
    a = W("A2-1", (0, 3, 0))
    with pytest.raises(ComponentMismatchError):
        brute_bounds(a, fundamental_weight(D("A2-1"), 0))
    with pytest.raises(ComponentMismatchError):
        brute_bounds(a, W("A3-1", (0, 3, 0, 0)))


def test_brute_bounds_window_exhaustion():
    # the corner maximum of this pair needs a repair offset of two copies of
    # the zeroth simple root, which does not fit in a unit window
    a = W("A2-1", (0, 12, 0))
    b = W("A2-1", (0, 0, 12))
    with pytest.raises(WindowExhaustedError):
        brute_bounds(a, b, SearchWindow((1, 1, 1)))
    bb = brute_bounds(a, b, SearchWindow((4, 4, 4)))
    assert bb.lub == join(a, b)
    assert bb.glb == meet(a, b)
    assert tuple(int(v) for v in labels(bb.glb)) == (4, 4, 4)
    assert tuple(int(v) for v in labels(bb.lub)) == (0, 6, 6)
    assert delta_shift(bb.lub) == 2


def test_verify_covering_smoke():
    for name in ("A1-1", "A2-2", "G2-1"):
        report = verify_covering(name, levels=(1, 2), samples_per_level=20, seed=3)
        assert report.type == name
        assert report.mismatches == ()
        assert report.boundary_flags == 0
        assert report.tested > 0
        data = report.to_json()
        assert set(data) == {
            "type", "levels", "tested", "mismatches", "boundary_flags",
        }


def test_verify_covering_budget(monkeypatch):
    # a clock that advances 10 us per reading, once per weight: the 4 ms
    # budget stops the sweep at the same weight, the 399th, on any host
    clock = types.SimpleNamespace(monotonic=itertools.count(0, 1e-5).__next__)
    monkeypatch.setattr(oracle, "time", clock)
    report = verify_covering("F4-1", samples_per_level=200, budget=0.004)
    assert report.budget_exceeded and report.tested < 55 + 600
    assert report.tested > 55 and report.mismatches == ()
    assert "budget_exceeded" not in report.to_json()


@pytest.mark.parametrize("budget", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_verify_covering_takes_a_budget_past_the_float_range(budget):
    # the start time plus such a budget overflows a float; the elapsed time
    # is compared with the budget itself
    report = verify_covering("A1-1", levels=(1,), samples_per_level=3, budget=budget)
    assert not report.budget_exceeded
    assert report == verify_covering("A1-1", levels=(1,), samples_per_level=3)


def test_verify_accepts_diagram_instance():
    report = verify_covering(D("A1-1"), levels=(1,), samples_per_level=5)
    assert report.type == "A1-1" and not report.mismatches


@pytest.mark.parametrize("kwargs, error, name", [
    ({"levels": (-1,)}, ValueError, "levels"),
    ({"levels": (1, 0)}, ValueError, "levels"),
    ({"levels": (True,)}, TypeError, "levels"),
    ({"levels": (1.0,)}, TypeError, "levels"),
    ({"levels": ("1",)}, TypeError, "levels"),
    ({"samples_per_level": -3}, ValueError, "samples_per_level"),
    ({"samples_per_level": 2.0}, TypeError, "samples_per_level"),
    ({"samples_per_level": True}, TypeError, "samples_per_level"),
    ({"budget": True}, TypeError, "budget must be a number of seconds"),
    ({"budget": False}, TypeError, "budget must be a number of seconds"),
    ({"seed": None}, TypeError, "seed must be an int"),
    ({"seed": "x"}, TypeError, "seed must be an int"),
    ({"seed": 1.5}, TypeError, "seed must be an int"),
    ({"seed": True}, TypeError, "seed must be an int"),
    ({"budget": "5"}, TypeError, "budget must be a number of seconds"),
])
def test_verify_covering_rejects_bad_levels_and_samples(monkeypatch, kwargs, error, name):
    # the arguments are checked before the census searches a single weight
    def searched(*args):
        raise AssertionError("the census ran before the arguments were checked")

    monkeypatch.setattr(oracle, "_check_one", searched)
    with pytest.raises(error, match=name):
        verify_covering("A2-1", **kwargs)


@pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
def test_verify_covering_rejects_a_bad_budget(monkeypatch, budget):
    def searched(*args):
        raise AssertionError("the census ran before the budget was checked")

    monkeypatch.setattr(oracle, "_check_one", searched)
    with pytest.raises(ValueError, match="budget"):
        verify_covering("A2-1", budget=budget)


def test_zero_budget_sweep_draws_at_most_one_sample(monkeypatch):
    # each sample is drawn as it is checked, after the census, so a budget
    # that stops the sweep stops the draws too
    real, drawn = oracle._sample_labels, []

    def counted(*args):
        drawn.append(args[1])
        return real(*args)

    monkeypatch.setattr(oracle, "_sample_labels", counted)
    report = verify_covering(D("A80-1"), budget=0)
    assert report.budget_exceeded and report.tested == 0
    assert len(drawn) <= 1


def test_verify_covering_with_a_zero_budget_stops_at_once():
    report = verify_covering("A2-1", budget=0)
    assert report.budget_exceeded and report.tested == 0
    # the census streams: none of A80-1's 95 283 label tuples is built
    # before the budget stops the sweep
    diagram = D("A80-1")
    tracemalloc.start()
    try:
        report = verify_covering(diagram, budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.budget_exceeded and report.tested == 0
    assert peak < 1 << 20


def test_sweep_draws_each_sample_once(monkeypatch):
    # one pass: each sample's labels are drawn once, as the sweep checks it
    real, drawn = oracle._sample_labels, []

    def counted(*args):
        drawn.append(args[1])
        return real(*args)

    monkeypatch.setattr(oracle, "_sample_labels", counted)
    for name in ("A4-2", "G2-1"):
        del drawn[:]
        report = verify_covering(name, levels=(1, 2, 4), samples_per_level=30)
        assert report.tested == len(list(oracle._census_labels(D(name)))) + 90
        assert drawn == [1] * 30 + [2] * 30 + [4] * 30


def test_a_sweep_with_no_budget_refuses_a_census_past_its_bound(monkeypatch):
    # A_n^(1) has C(n + 4, 3) - 1 census weights: A60-1's 41 663 took 96 s,
    # A63-1's 47 904 is the largest A_n^(1) census run with no budget, and
    # A64-1's 50 115 is refused.  The count is read off the rank, before any census or draw.
    def censused(diagram):
        raise AssertionError(f"the census of {diagram} ran")

    def drawn(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(oracle, "_census_labels", censused)
    monkeypatch.setattr(oracle, "_sample_labels", drawn)
    for name in ("A60-1", "A63-1"):
        with pytest.raises(AssertionError, match=f"the census of {name} ran"):
            verify_covering(name)
    message = "^A64-1 has 50115 census weights, more than the 50000 a sweep checks with no budget$"
    with pytest.raises(CensusTooLargeError, match=message):
        verify_covering("A64-1")
    # a budget bounds the sweep instead
    with pytest.raises(AssertionError, match="the census of A64-1 ran"):
        verify_covering("A64-1", budget=5)
    assert issubclass(CensusTooLargeError, ValueError)
    assert affposet.CensusTooLargeError is CensusTooLargeError


@pytest.mark.parametrize(
    "name", [str(t) for t in catalog_types()] + ["A8-1", "E8-1", "D12-1", "A40-1"]
)
def test_census_labels_stream_in_sorted_order(name):
    diagram = D(name)
    expected = sorted(
        tuple(multiset.count(v) for v in diagram.vertices)
        for size in (1, 2, 3)
        for multiset in itertools.combinations_with_replacement(diagram.vertices, size)
    )
    census = oracle._census_labels(diagram)
    assert iter(census) is census
    assert list(census) == expected


def test_verify_covering_with_no_samples_runs_the_census():
    report = verify_covering("A2-1", levels=(1, 4), samples_per_level=0)
    assert report.tested == len(list(oracle._census_labels(D("A2-1"))))
    assert report.levels == (1, 4) and report.mismatches == ()


def _first_record_per_check(report):
    first = {}
    for record in report.mismatches:
        first.setdefault(record["check"], list(record.items()))  # keeps key order
    return first


def _partner_of(a, gap):
    # the state of a - gap over a: the partner whose gap with a the pair
    # check computed
    return weights._corner(a, [-g for g in gap])


def test_mismatch_records_are_frozen(monkeypatch):
    # force every kind of mismatch and pin the record each kind writes
    import affposet.covering as covering

    monkeypatch.setattr(covering, "_label_moves", lambda d, labs, sign: [])
    monkeypatch.setattr(covering, "is_delta_cocover", lambda w: True)
    monkeypatch.setattr(oracle, "cover_root_lookup", lambda d: set())
    monkeypatch.setattr(oracle, "_gap_meet", lambda a, gap: (a.labels, 0))
    monkeypatch.setattr(oracle, "_gap_join", _partner_of)
    report = verify_covering("A2-1", levels=(1,), samples_per_level=3, seed=2)
    assert (report.tested, len(report.mismatches)) == (22, 64)
    pair = [("labels", [0, 0, 1]), ("shift", "4/1"), ("partner", [0, 0, 1]),
            ("partner_shift", "3/1")]
    assert _first_record_per_check(report) == {
        "cocovers": [("labels", [0, 0, 1]), ("shift", "0/1"), ("check", "cocovers"),
                     ("detail", "brute [((0, 0, 1), '-1/1')] vs classified []")],
        "difference": [("labels", [0, 0, 1]), ("shift", "0/1"), ("check", "difference"),
                       ("detail", "[1, 1, 1] is not a candidate root")],
        "delta": [("labels", [0, 0, 2]), ("shift", "0/1"), ("check", "delta"),
                  ("detail", "classified True, brute False")],
        "meet": pair + [("check", "meet"), ("detail", "brute ((0, 0, 1), '3/1')")],
        "join": pair + [("check", "join"), ("detail", "brute ((0, 0, 1), '4/1')")],
    }
    monkeypatch.undo()

    def exhausted(*args):
        raise WindowExhaustedError("no room")

    monkeypatch.setattr(oracle, "_gap_bounds", exhausted)
    report = verify_covering("A1-1", levels=(1,), samples_per_level=3, seed=2)
    assert _first_record_per_check(report) == {
        "bounds": [("labels", [0, 1]), ("shift", "-1/1"), ("partner", [0, 1]),
                   ("partner_shift", "-1/1"), ("check", "bounds"),
                   ("detail", "window exhausted")],
    }
    monkeypatch.undo()

    report = verify_covering("A1-1", levels=(1,), samples_per_level=3, seed=2,
                             window=SearchWindow((1, 1)))
    assert report.boundary_flags == len(report.mismatches) == 12
    assert _first_record_per_check(report) == {
        "boundary": [("labels", [0, 1]), ("shift", "0/1"), ("check", "boundary"),
                     ("detail", "offset [1, 1] touches the window")],
    }


def test_brute_search_is_independent_of_the_classifier():
    # the brute module must never import the classifier at module level, nor
    # the coefficient code its gap check is there to check
    source = pathlib.Path(oracle.__file__).read_text()
    tree = ast.parse(source)
    checked = {
        "_scaled_coeffs",
        "_eliminate",
        "_elimination",
        "_shift_gap",
        "_solved_gap",
        "_dominance_gap",
    }
    # a renamed solver must not leave the guard checking nothing: each name
    # is a function of weights or cartan, or the diagram's elimination
    for name in checked:
        assert any(hasattr(home, name) for home in (weights, cartan, D("A2-1"))), name
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.module != "covering"
            assert all(alias.name != "covering" for alias in node.names)
            assert not checked & {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            assert all("covering" not in alias.name for alias in node.names)
    assert not hasattr(oracle, "covering")
    # nor reach the coefficient code by a name or an attribute
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not checked & read

    # and the brute searches must not touch it at run time either
    class Poison:
        def __getattr__(self, name):
            raise AssertionError("brute search touched the classifier")

    saved_mod = sys.modules["affposet.covering"]
    saved_attr = affposet.covering
    sys.modules["affposet.covering"] = Poison()
    affposet.covering = Poison()
    try:
        bc = brute_cocovers(W("G2-1", (0, 1, 0)))
        assert [t.coeffs for t in bc.differences] == [(0, 1, 1)]
        bb = brute_bounds(W("A2-1", (0, 3, 0)), W("A2-1", (0, 0, 3)))
        assert tuple(int(v) for v in labels(bb.glb)) == (1, 1, 1)
    finally:
        sys.modules["affposet.covering"] = saved_mod
        affposet.covering = saved_attr


def test_search_window_rejects_non_int_bounds():
    for bad in ((1.9, 2), (True, 2), (2, "2")):
        with pytest.raises(TypeError, match="window bounds must be ints"):
            SearchWindow(bad)


def test_brute_bounds_rejects_wrong_rank_window():
    a = W("A2-1", (0, 3, 0))
    b = W("A2-1", (0, 0, 3))
    for bounds in ((2, 2), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="window rank does not match the diagram"):
            brute_bounds(a, b, SearchWindow(bounds))
        with pytest.raises(ValueError, match="window rank does not match the diagram"):
            brute_cocovers(a, SearchWindow(bounds))


@pytest.mark.parametrize("window", [(2, 2, 2), [2, 2, 2]])
def test_a_window_that_is_not_a_search_window_raises_type_error(monkeypatch, window):
    def searched(*args):
        raise AssertionError("a search ran before the window was checked")

    monkeypatch.setattr(oracle, "_minimal_offsets", searched)
    monkeypatch.setattr(oracle, "_check_one", searched)
    a, b = W("A2-1", (0, 3, 0)), W("A2-1", (0, 0, 3))
    with pytest.raises(TypeError, match="window must be a SearchWindow"):
        brute_cocovers(a, window)
    with pytest.raises(TypeError, match="window must be a SearchWindow"):
        brute_bounds(a, b, window)
    with pytest.raises(TypeError, match="window must be a SearchWindow"):
        verify_covering("A2-1", window=window)


@pytest.mark.parametrize("levels, samples", [((10**9,), 1), ((1, 2, 3), 10**8), ((50001,), 2)])
def test_a_sweep_refuses_more_draws_than_it_may_make(monkeypatch, levels, samples):
    # one draw costs a generator call per unit of level: a level of 10**9
    # took some 13 minutes to draw once, and 10**8 samples a draw list of
    # some 30 GB; the refusal comes before any draw
    def drawn(*args):
        raise AssertionError("a sample was drawn before the count was checked")

    monkeypatch.setattr(oracle, "_sample_labels", drawn)
    with pytest.raises(TooManySamplesError, match="at most 100000"):
        verify_covering("A1-1", levels=levels, samples_per_level=samples)
    assert issubclass(TooManySamplesError, ValueError)
    assert affposet.TooManySamplesError is TooManySamplesError
    # the bound itself is drawn
    with pytest.raises(AssertionError, match="a sample was drawn"):
        verify_covering("A1-1", levels=(50000,), samples_per_level=2)


@pytest.mark.parametrize("levels, repeated", [((1, 1), 1), ((2, 1, 3, 1), 1), ((3, 2, 3), 3)])
def test_a_repeated_level_is_refused_before_any_draw(monkeypatch, levels, repeated):
    # a level seeds its own generator, so a repeated level would draw the
    # same samples again and count them twice
    def drawn(*args):
        raise AssertionError("a sample was drawn before the levels were checked")

    monkeypatch.setattr(oracle, "_sample_labels", drawn)
    with pytest.raises(ValueError, match=f"^level {repeated} is given twice$"):
        verify_covering("A2-1", levels=levels, samples_per_level=5, seed=3)


def test_a_huge_level_lists_no_choice_per_level():
    # the vertex choices stop at the largest comark: a level of 10**7 used
    # to build a list of 10**7 entries before drawing nothing
    diagram = D("A1-1")
    # the classifier's import and tables are built once, before the count
    verify_covering(diagram, levels=(1,), samples_per_level=0)
    tracemalloc.start()
    try:
        report = verify_covering(diagram, levels=(10**7,), samples_per_level=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mismatches == () and report.tested == 9  # the census alone
    assert peak < 1 << 20


def test_verify_covering_rejects_a_wrong_rank_window_before_any_weight(monkeypatch):
    def searched(*args):
        raise AssertionError("a weight was checked")

    monkeypatch.setattr(oracle, "_check_one", searched)
    with pytest.raises(ValueError, match="window rank does not match the diagram"):
        verify_covering("A2-1", window=SearchWindow((2, 2)), budget=0)


def test_brute_bounds_checks_the_gap_against_the_cartan_matrix(monkeypatch):
    a, b = W("A2-1", (0, 3, 0)), W("A2-1", (0, 0, 3))
    gap = oracle._require_component(a, b)
    # one more simple root breaks the labels; one more delta, only the shift
    off_at_1 = tuple(g + (i == 1) for i, g in enumerate(gap))
    off_by_delta = tuple(g + m for g, m in zip(gap, a.diagram.marks))
    for wrong in (off_at_1, off_by_delta):
        monkeypatch.setattr(oracle, "_require_component", lambda a, b: wrong)
        with pytest.raises(RuntimeError, match="does not give the label and shift"):
            brute_bounds(a, b)


def test_brute_bounds_reads_a_fractional_c0_off_the_shifts(monkeypatch):
    # A4-2 has mark0 = 2, so b = a - alpha_0 lies half a delta below a
    a, b = W("A4-2", (2, 1, 1)), W("A4-2", (0, 2, 1), Fraction(-1, 2))
    bb = brute_bounds(a, b)
    assert (str(bb.glb), str(bb.lub)) == ("[0,2,1 @ -1/2]", "[2,1,1 @ 0/1]")
    quarter = W("A4-2", (0, 2, 1), Fraction(-1, 4))
    message = "coefficient 0 differs by the non-integer 1/2"
    with pytest.raises(ComponentMismatchError, match=message):
        brute_bounds(a, quarter)
    # handed the gap of (a, b), the check compares its 1 at vertex 0 with
    # the c0 of -1/2 that the shifts give, not with the gap's own
    gap = oracle._require_component(a, b)
    monkeypatch.setattr(oracle, "_require_component", lambda a, b: gap)
    with pytest.raises(RuntimeError, match=r"gap \[1, 0, 0\] does not give the label and shift"):
        brute_bounds(a, quarter)


def test_brute_bounds_rejects_a_corner_that_is_not_dominant(monkeypatch):
    real = oracle._corner

    def lowered(weight, coeffs):
        labs, c0 = real(weight, coeffs)
        return tuple(v - 5 for v in labs), c0

    monkeypatch.setattr(oracle, "_corner", lowered)
    with pytest.raises(RuntimeError, match=r"minimum \[-4, -4, -4\] is not dominant"):
        brute_bounds(W("A2-1", (0, 3, 0)), W("A2-1", (0, 0, 3)))


def _sweep_states(name, seeds):
    # each sample with its partner's state over it, as the sweep yields them
    d = D(name)
    return [
        (weight, partner)
        for seed in seeds
        for weight, partner in oracle._sweep(d, oracle._draws(d, (1, 2, 3), 20, seed))
        if partner is not None
    ]


def _sweep_pairs(name, seeds):
    return [(weight, weights._at(weight, state)) for weight, state in _sweep_states(name, seeds)]


def test_pair_check_builds_no_weight_on_a_clean_pair(monkeypatch):
    # the bounds, meet and join of a pair are compared as integer states over
    # the weight; a weight and its shift are built only for a record
    pairs = [pair for name in ("A3-1", "A4-1", "G2-1", "A4-2", "D4-3")
             for pair in _sweep_states(name, (0, 1))]
    built = collections.Counter()
    for module, names in ((weights, ("_weight", "_plus_delta")), (oracle, ("_weight",))):
        for name in names:
            def counted(*args, _real=getattr(module, name), _name=name):
                built[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    mismatches = []
    for weight, partner in pairs:
        oracle._check_pair(weight, partner, default_window(weight.diagram).bounds, mismatches)
    assert len(pairs) == 600 and mismatches == []
    assert built == {}


@pytest.mark.parametrize("seam", ["_gap_meet", "_gap_join"])
def test_sweep_records_a_bound_one_delta_off(monkeypatch, seam):
    # the same labels, one delta lower: only the shift, c0 / mark0, tells
    # the state from the true bound
    real = getattr(oracle, seam)

    def lowered(a, gap):
        labs, c0 = real(a, gap)
        return labs, c0 - a.diagram.marks[0]

    monkeypatch.setattr(oracle, seam, lowered)
    check = seam[len("_gap_"):]
    for name in ("A2-1", "G2-1", "A4-2", "D4-3"):
        report = verify_covering(name, levels=(1, 2, 3), samples_per_level=10, seed=4)
        assert [m["check"] for m in report.mismatches] == [check] * 30, name


def test_brute_bounds_searches_a_join_that_moves_the_shift(monkeypatch):
    # pairs whose coefficient maximum is not dominant and whose searched
    # minimum raises vertex 0: the least upper bound's shift moves from the
    # corner's, and must still be the join's
    real, raised = oracle._minimal_offsets, []

    def spied(diagram, bounds, labs, sign):
        found = real(diagram, bounds, labs, sign)
        raised.append(sign == 1 and bool(found) and found[0][0][0] != 0)
        return found

    monkeypatch.setattr(oracle, "_minimal_offsets", spied)
    searched = 0
    for name in ("A2-1", "A3-1", "A4-1", "B3-1", "D4-1"):
        for a, b in _sweep_pairs(name, range(30)):
            raised.clear()
            bounds = brute_bounds(a, b)
            if any(raised):
                assert (bounds.glb, bounds.lub) == (meet(a, b), join(a, b)), (a, b)
                searched += 1
    assert searched == 40


def test_check_pair_records_a_failed_bounds_check(monkeypatch):
    detail = "upper bounds have two incomparable minima: (0, 1, 0), (1, 0, 0)"

    def broken(a, b, gap, search):
        raise RuntimeError(detail)

    monkeypatch.setattr(oracle, "_gap_bounds", broken)
    # the pair check computes the gap first, so the pair shares a component;
    # the partner is the state of [0, 0, 3 @ -3/2] over a, c0 = -2 * mark0
    a, b = W("A2-1", (0, 3, 0), Fraction(1, 2)), ((0, 0, 3), -2)
    mismatches = []
    oracle._check_pair(a, b, default_window(a.diagram).bounds, mismatches)
    assert mismatches == [{
        "labels": [0, 3, 0], "shift": "1/2", "partner": [0, 0, 3], "partner_shift": "-3/2",
        "check": "bounds", "detail": detail,
    }]


@pytest.mark.parametrize("name", ["A2-1", "G2-1", "A4-2", "D4-3", "E6-1"])
def test_sweep_computes_one_gap_per_pair(monkeypatch, name):
    # every gap, in the pair check and anywhere else, scales its coefficients
    # through _scaled_coeffs; the bounds, meet and join share one per pair
    real, scaled, pairs = weights._scaled_coeffs, [], []

    def counted(*args):
        scaled.append(args)
        return real(*args)

    check = oracle._check_pair

    def spied(weight, partner, window, mismatches):
        pairs.append((weight, partner))
        check(weight, partner, window, mismatches)

    monkeypatch.setattr(weights, "_scaled_coeffs", counted)
    monkeypatch.setattr(oracle, "_check_pair", spied)
    report = verify_covering(name, levels=(1, 2, 3), samples_per_level=10, seed=6)
    assert report.mismatches == ()
    assert len(pairs) == 30 and len(scaled) == len(pairs)


def _off_by_one_at_vertex_1(real, numerator=False):
    # the coefficients of every nonzero difference, one too high at vertex
    # 1; with numerator, one unit of the scaled numerator too high, which
    # leaves it fractional on A2-1, whose denominator is 3
    def wrong(diagram, labs, p, q):
        nums, den = real(diagram, labs, p, q)
        if any(nums):
            nums = list(nums)
            nums[1] += 1 if numerator else den
        return nums, den

    return wrong


@pytest.mark.parametrize("name", ["A2-1", "C2-1", "G2-1", "A4-2"])
def test_sweep_records_a_wrong_gap_as_bounds(monkeypatch, name):
    # meet and join read the same wrong gap, so only the Cartan check can see it
    pairs, real = [], oracle._check_pair

    def spied(weight, partner, window, mismatches):
        pairs.append((weight, weights._at(weight, partner)))
        real(weight, partner, window, mismatches)

    monkeypatch.setattr(oracle, "_check_pair", spied)
    wrong = _off_by_one_at_vertex_1(weights._scaled_coeffs)
    monkeypatch.setattr(weights, "_scaled_coeffs", wrong)
    report = verify_covering(name, levels=(1, 2), samples_per_level=20, seed=3)
    records = [m for m in report.mismatches if m["check"] == "bounds"]
    expected = [
        (list(a.labels), format_shift(a.shift), list(b.labels), format_shift(b.shift))
        for a, b in pairs if a != b
    ]
    assert len(pairs) == 40 and expected
    got = [(m["labels"], m["shift"], m["partner"], m["partner_shift"]) for m in records]
    assert got == expected
    assert all(m["detail"].endswith("does not give the label and shift differences")
               for m in records)


def test_sweep_records_a_failed_gap_solve_as_bounds(monkeypatch):
    # a solver fault that leaves a coefficient fractional is a record of
    # the pair, with its partner, and the sweep runs on to its report
    pairs, real = [], oracle._check_pair

    def spied(weight, partner, window, mismatches):
        pairs.append((weight, weights._at(weight, partner)))
        real(weight, partner, window, mismatches)

    monkeypatch.setattr(oracle, "_check_pair", spied)
    wrong = _off_by_one_at_vertex_1(weights._scaled_coeffs, numerator=True)
    monkeypatch.setattr(weights, "_scaled_coeffs", wrong)
    report = verify_covering("A2-1", levels=(1, 2), samples_per_level=5, seed=0)
    records = [m for m in report.mismatches if m["check"] == "bounds"]
    expected = [
        (list(a.labels), format_shift(a.shift), list(b.labels), format_shift(b.shift))
        for a, b in pairs if a != b
    ]
    assert len(pairs) == 10 and expected
    got = [(m["labels"], m["shift"], m["partner"], m["partner_shift"]) for m in records]
    assert got == expected
    assert all(m["detail"].startswith("coefficient 1 differs by the non-integer ")
               for m in records)
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "A2-1", "--levels", "1,2", "--samples", "5"], stdout=out, stderr=err)
    assert code == 3 and err.getvalue() == ""
    assert '"check": "bounds"' in out.getvalue()


def test_clean_sweep_builds_no_partner_weight(monkeypatch):
    # the partner stays a state over its sample through the pair check;
    # only a record would build its weight
    built, real = [], oracle._at

    def spied(a, state):
        built.append(state)
        return real(a, state)

    monkeypatch.setattr(oracle, "_at", spied)
    report = verify_covering("E6-1", levels=(1, 2, 3), samples_per_level=20)
    assert report.mismatches == () and report.tested == 119 + 60
    assert built == []


# A numpy grid search as the reference: every offset of the window as an
# array row, dominance by a scan of the whole grid, and minimal rows by
# pairwise comparison.  The depth-first search must give the same answers.
_REF_GRIDS: dict = {}


def _ref_grid(diagram, bounds):
    key = (str(diagram.type_id), bounds)
    if key not in _REF_GRIDS:
        axes = [np.arange(b + 1, dtype=np.int64) for b in bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        betas = np.stack(mesh, axis=-1).reshape(-1, len(axes))
        _REF_GRIDS[key] = (betas, betas @ np.array(diagram.cartan, dtype=np.int64).T)
    return _REF_GRIDS[key]


def _ref_minimal_rows(rows):
    count = len(rows)
    if count <= 1500:
        leq = (rows[:, None, :] <= rows[None, :, :]).all(axis=-1)
        below = leq & ~np.eye(count, dtype=bool)
        return np.flatnonzero(~below.any(axis=0))
    keep = [r for r in range(count) if int((rows <= rows[r]).all(axis=1).sum()) == 1]
    return np.array(keep, dtype=np.int64)


def _ref_touches(beta, window):
    return any(b == bound for b, bound in zip(beta, window.bounds))


def _ref_cocovers(weight, window):
    betas, change = _ref_grid(weight.diagram, window.bounds)
    labs = np.array(weight.labels, dtype=np.int64)
    ok = (labs[None, :] - change >= 0).all(axis=1) & (betas != 0).any(axis=1)
    candidates = betas[ok]
    if len(candidates) == 0:
        return []
    minimal = sorted(tuple(map(int, r)) for r in candidates[_ref_minimal_rows(candidates)])
    return [
        (_ref_less(weight, beta), beta, _ref_touches(beta, window))
        for beta in minimal
    ]


def _ref_less(weight, beta):
    # the weight minus the root vector with these coefficients
    return add_root(weight, RootVector(weight.diagram, tuple(-c for c in beta)))


def _ref_bounds(a, b, window):
    diagram = a.diagram
    gap = tuple(g.numerator for g in difference(a, b))
    betas, change = _ref_grid(diagram, window.bounds)
    lo = add_root(a, RootVector(diagram, tuple(-max(0, g) for g in gap)))
    hi = add_root(a, RootVector(diagram, tuple(max(0, -g) for g in gap)))
    down = betas[(np.array(lo.labels)[None, :] - change >= 0).all(axis=1)]
    if len(down) == 0:
        raise WindowExhaustedError("no dominant lower bound within the window")
    down_min = down[_ref_minimal_rows(down)]
    assert len(down_min) == 1 and (down >= down_min[0]).all()
    gamma = tuple(map(int, down_min[0]))
    if any(gamma) and _ref_touches(gamma, window):
        raise WindowExhaustedError("greatest lower bound touches the window")
    up = betas[(np.array(hi.labels)[None, :] + change >= 0).all(axis=1)]
    if len(up) == 0:
        raise WindowExhaustedError("no dominant upper bound within the window")
    up_min = up[_ref_minimal_rows(up)]
    assert len(up_min) == 1
    glb = _ref_less(lo, gamma)
    return BruteBounds(glb, add_root(hi, RootVector(diagram, tuple(map(int, up_min[0])))))


def _ref_repair(weight):
    # the dense repair: one simple root vector added per step
    diagram = weight.diagram
    while True:
        bad = [j for j, e in enumerate(weight.labels) if e < 0]
        if not bad:
            return weight
        j = bad[0]
        step = [(1 - weight.labels[j]) // 2 if i == j else 0 for i in diagram.vertices]
        weight = add_root(weight, RootVector(diagram, step))


def _outcome(search, *args):
    try:
        return search(*args)
    except WindowExhaustedError as exc:
        return ("exhausted", str(exc))


@pytest.mark.parametrize(
    "name", [str(t) for t in catalog_types()] + ["E6-1"]
)
def test_search_matches_numpy_grid(name):
    diagram = D(name)
    rng = random.Random(f"box:{name}")
    default = default_window(diagram)
    windows = [default, SearchWindow((1,) * (diagram.n + 1)), default.doubled()]
    # E6-1 doubles to 1 184 625 offsets, which the reference scans slowly
    per_level = 2 if name == "E6-1" else 6
    for level in (1, 2, 3, 4):
        for _ in range(per_level):
            labs = oracle._sample_labels(diagram, level, rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            weight = weight_from_labels(diagram, labs, shift)
            offsets = RootVector(diagram, [rng.randint(-2, 2) for _ in diagram.vertices])
            moved = add_root(weight, offsets)
            partner = weights._at(weight, weights._repaired(weight, offsets.coeffs))
            assert partner == _ref_repair(moved)
            for window in windows:
                bc = brute_cocovers(weight, window)
                got = list(zip(bc.cocovers, (d.coeffs for d in bc.differences), bc.boundary))
                assert got == _ref_cocovers(weight, window), (weight, window)
                bb = _outcome(brute_bounds, weight, partner, window)
                assert bb == _outcome(_ref_bounds, weight, partner, window), (weight, window)
    _REF_GRIDS.clear()


@pytest.mark.parametrize(
    "name", ["A5-1", "A6-1", "A7-1", "A8-1", "B4-1", "C4-1", "D5-1"]
)
def test_search_matches_numpy_grid_where_minima_are_many(name):
    # rho and 2 rho drop by many incomparable offsets, so the search's cut
    # against the minima found does the most work here
    diagram = D(name)
    window = default_window(diagram)
    try:
        for scale in (1, 2):
            weight = weight_from_labels(diagram, (scale,) * (diagram.n + 1))
            bc = brute_cocovers(weight)
            got = list(zip(bc.cocovers, (d.coeffs for d in bc.differences), bc.boundary))
            assert len(got) >= 4, (name, scale)
            assert got == _ref_cocovers(weight, window), (name, scale)
    finally:
        _REF_GRIDS.clear()


def test_search_matches_numpy_grid_when_exhausted():
    a = W("A2-1", (0, 12, 0))
    b = W("A2-1", (0, 0, 12))
    outcomes = []
    for bound in (1, 2, 4):
        window = SearchWindow((bound,) * 3)
        bb = _outcome(brute_bounds, a, b, window)
        assert bb == _outcome(_ref_bounds, a, b, window)
        outcomes.append(bb)
    assert outcomes[0][0] == "exhausted" and outcomes[2].glb == meet(a, b)


def test_verify_covering_e7_within_budget():
    report = verify_covering("E7-1", levels=(1, 2), samples_per_level=20, budget=20.0)
    assert not report.budget_exceeded
    assert report.tested == 164 + 40
    assert report.mismatches == ()
    assert report.boundary_flags == 0


@pytest.mark.parametrize("name", ["E8-1", "D12-1", "B12-1"])
def test_verify_covering_beyond_the_catalog(name):
    report = verify_covering(name, levels=(1, 2), samples_per_level=20, budget=60.0)
    assert not report.budget_exceeded
    assert report.mismatches == ()
    assert report.boundary_flags == 0


def test_box_too_large_is_refused_before_any_allocation(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_SEARCH_NODES", 2)
    e8 = fundamental_weight(D("E8-1"), 0)
    with pytest.raises(BoxTooLargeError, match="visits more than 2 nodes"):
        brute_cocovers(e8)
    a, b = W("A2-1", (0, 12, 0)), W("A2-1", (0, 0, 12))
    with pytest.raises(BoxTooLargeError, match="visits more than 2 nodes"):
        brute_bounds(a, b)
    assert affposet.BoxTooLargeError is BoxTooLargeError


E8_RHO = (1,) * 9


@pytest.mark.parametrize("search, nodes", [
    pytest.param(lambda: brute_cocovers(W("E8-1", E8_RHO)), 71, id="e8-rho"),
    pytest.param(
        lambda: brute_cocovers(W("E8-1", E8_RHO), default_window(D("E8-1")).doubled()), 105,
        id="e8-rho-doubled",
    ),
    # the coefficient maximum of this pair is not dominant, so the least
    # upper bound is searched for
    pytest.param(
        lambda: brute_bounds(W("E6-1", (0, 3, 0, 0, 0, 0, 0)), W("E6-1", (0, 0, 0, 0, 0, 3, 0))),
        38, id="e6-upward-lub",
    ),
])
def test_search_visits_a_pinned_number_of_nodes(monkeypatch, search, nodes):
    # the pruning cuts exactly as many nodes as it did; a bound of one node
    # fewer than the search visits stops it
    monkeypatch.setattr(oracle, "_MAX_SEARCH_NODES", nodes)
    search()
    monkeypatch.setattr(oracle, "_MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(BoxTooLargeError, match=f"visits more than {nodes - 1} nodes"):
        search()


def test_search_compares_a_pinned_number_of_minima(monkeypatch):
    # rho on A8-1 has 9 minima; a bound of one comparison fewer than the
    # search makes stops it, whatever its node count
    rho = W("A8-1", (1,) * 9)
    monkeypatch.setattr(oracle, "_MAX_SEARCH_SCANS", 339)
    assert len(brute_cocovers(rho).cocovers) == 9
    monkeypatch.setattr(oracle, "_MAX_SEARCH_SCANS", 338)
    with pytest.raises(BoxTooLargeError, match="compares more than 338 minima"):
        brute_cocovers(rho)


@pytest.mark.slow
def test_search_refuses_rho_on_a511_1_past_its_scan_bound():
    # rho on A255-1 compares 5 689 737 minima, and the count grows about
    # eightfold with each doubling of the rank; A511-1 stops at the bound
    with pytest.raises(BoxTooLargeError, match="compares more than 2097152 minima"):
        brute_cocovers(W("A511-1", (1,) * 512))


def test_search_refuses_more_vertices_than_it_may_recurse_through(monkeypatch):
    # the largest diagram a search takes; when the search recursed once per
    # vertex, A1100-1 hit RecursionError
    with pytest.raises(BoxTooLargeError, match="has 1101 vertices, more than the 512 a search"):
        brute_cocovers(fundamental_weight(D("A1100-1"), 0))
    bc = brute_cocovers(fundamental_weight(D("A400-1"), 0))
    assert [beta.coeffs for beta in bc.differences] == [D("A400-1").marks]
    # the bounds search and the sweep reach the same check
    monkeypatch.setattr(oracle, "_MAX_SEARCH_VERTICES", 2)
    with pytest.raises(BoxTooLargeError, match="has 3 vertices, more than the 2 a search"):
        brute_bounds(W("A2-1", (0, 12, 0)), W("A2-1", (0, 0, 12)))
    with pytest.raises(BoxTooLargeError, match="has 3 vertices, more than the 2 a search"):
        verify_covering("A2-1", samples_per_level=0)


def _frames():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_the_search_does_not_recurse_per_vertex():
    # the search keeps an explicit state per vertex, so a search through
    # 401 vertices runs within 100 frames of the test's own; the recursive
    # search took one frame per vertex and raised RecursionError here
    a400 = D("A400-1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        bc = brute_cocovers(fundamental_weight(a400, 0))
        rho = brute_cocovers(W("A8-1", (1,) * 9))
    finally:
        sys.setrecursionlimit(limit)
    assert [beta.coeffs for beta in bc.differences] == [a400.marks]
    assert len(rho.cocovers) == 9


def test_a_budgeted_sweep_refuses_more_vertices_before_the_build(monkeypatch):
    # A100000-1 with a budget spent 2.7 s and 177 MB on its build before the
    # search refused it; the count is read off the type id now
    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    message = "^A600-1 has 601 vertices, more than the 512 a search takes$"
    for budget in (0, 1):
        with pytest.raises(BoxTooLargeError, match=message):
            verify_covering("A600-1", budget=budget)
    monkeypatch.undo()
    # the largest diagram the search takes is still swept
    report = verify_covering("A511-1", budget=0)
    assert report.type == "A511-1" and report.tested == 0 and report.budget_exceeded


def test_check_pair_stops_doubling_at_a_box_too_large(monkeypatch):
    a, b = W("A2-1", (0, 12, 0)), ((0, 0, 12), 0)
    bounds, doubled = (2, 2, 2), (4, 4, 4)
    real, searched = oracle._gap_bounds, []

    def exhausted_at_default(a, b, gap, search):
        searched.append(search)
        if search == bounds:
            raise WindowExhaustedError("no room")
        return real(a, b, gap, search)

    monkeypatch.setattr(oracle, "_gap_bounds", exhausted_at_default)
    monkeypatch.setattr(oracle, "_MAX_SEARCH_NODES", 2)
    mismatches = []
    oracle._check_pair(a, b, bounds, mismatches)
    assert searched == [bounds, doubled]
    detail = f"the search of window {list(doubled)} visits more than 2 nodes"
    assert [(m["check"], m["detail"]) for m in mismatches] == [("bounds", detail)]


def _ref_minimal_offsets(diagram, bounds, labs, sign):
    # the definition: every nonzero offset of the window whose labels are
    # nonnegative, then those with no other such offset below them
    found = [
        gamma for gamma in itertools.product(*(range(b + 1) for b in bounds))
        if any(gamma) and all(
            lab + sign * sum(map(operator.mul, row, gamma)) >= 0
            for lab, row in zip(labs, diagram.cartan)
        )
    ]
    return [
        gamma for gamma in found
        if not any(o != gamma and all(map(operator.le, o, gamma)) for o in found)
    ]


@pytest.mark.parametrize("name", [str(t) for t in catalog_types()])
def test_minimal_offsets_match_the_definition(name):
    diagram = D(name)
    rng = random.Random(f"offsets:{name}")
    widest = 3 if diagram.n < 4 else 2
    saw_several = False
    for _ in range(12):
        bounds = tuple(rng.randint(1, widest) for _ in diagram.vertices)
        labs = [rng.randint(-3, 4) for _ in diagram.vertices]
        for sign in (-1, 1):
            got = oracle._minimal_offsets(diagram, bounds, labs, sign)
            offsets = [gamma for gamma, _ in got]
            assert offsets == _ref_minimal_offsets(diagram, bounds, labs, sign), (bounds, labs, sign)
            # each minimum comes with its labels, labs + sign * A gamma
            for gamma, across in got:
                assert across == tuple(
                    weights._add_columns(diagram, labs, [sign * g for g in gamma])
                ), (bounds, labs, sign, gamma)
            saw_several |= len(got) > 1
    assert saw_several


def test_brute_bounds_refuses_two_minimal_upper_bounds(monkeypatch):
    a, b = W("A2-1", (0, 12, 0)), W("A2-1", (0, 0, 12))
    # each offset with the coefficient maximum's labels (-4, 8, 8) plus its columns
    monkeypatch.setattr(
        oracle, "_minimal_offsets",
        lambda *args: [((0, 1, 0), (-5, 10, 7)), ((1, 0, 0), (-2, 7, 7))],
    )
    message = "upper bounds have two incomparable minima: (0, 1, 0), (1, 0, 0)"
    with pytest.raises(RuntimeError) as caught:
        brute_bounds(a, b)
    assert str(caught.value) == message
    mismatches = []
    oracle._check_pair(a, (b.labels, 0), default_window(a.diagram).bounds, mismatches)
    assert [(m["check"], m["detail"]) for m in mismatches] == [("bounds", message)]


# A copy of the sweep as it checked each weight before it ran on integer
# labels: every brute answer comes from the public brute_cocovers and
# brute_bounds, as weights.  The sweep must write the same report.  The
# classifier side is read through module attributes, as the sweep reads it,
# so a test can replace it with a wrong one.
def _ref_key(weight):
    return (weight.labels, format_shift(weight.shift))


def _ref_record(records, check, detail, weight, partner=None):
    record = {"labels": list(weight.labels), "shift": format_shift(weight.shift)}
    if partner is not None:
        record["partner"] = list(partner.labels)
        record["partner_shift"] = format_shift(partner.shift)
    record["check"] = check
    record["detail"] = detail
    records.append(record)


def _ref_check_one(weight, window, records):
    flags = 0
    bc = brute_cocovers(weight, window)
    for touches, diff in zip(bc.boundary, bc.differences):
        if touches:
            flags += 1
            detail = f"offset {list(diff.coeffs)} touches the window"
            _ref_record(records, "boundary", detail, weight)
    brute = set(bc.cocovers)
    classified = {e.lower for e in covering.cocovers(weight)}
    if brute != classified:
        brute_keys = sorted(map(_ref_key, brute))
        classified_keys = sorted(map(_ref_key, classified))
        detail = f"brute {brute_keys} vs classified {classified_keys}"
        _ref_record(records, "cocovers", detail, weight)
    lookup = oracle.cover_root_lookup(weight.diagram)
    for diff in bc.differences:
        if diff.coeffs not in lookup:
            detail = f"{list(diff.coeffs)} is not a candidate root"
            _ref_record(records, "difference", detail, weight)
    delta_brute = any(diff.coeffs == weight.diagram.marks for diff in bc.differences)
    if covering.is_delta_cocover(weight) != delta_brute:
        detail = f"classified {not delta_brute}, brute {delta_brute}"
        _ref_record(records, "delta", detail, weight)
    return flags


def _ref_check_pair(weight, partner, window, records):
    search, bb = window, None
    for _ in range(5):
        try:
            bb = brute_bounds(weight, partner, search)
            break
        except WindowExhaustedError:
            search = search.doubled()
        except BoxTooLargeError as exc:
            _ref_record(records, "bounds", str(exc), weight, partner)
            return
    if bb is None:
        _ref_record(records, "bounds", "window exhausted", weight, partner)
        return
    gap = weights._require_component(weight, partner)
    if bb.glb != weights._at(weight, oracle._gap_meet(weight, gap)):
        _ref_record(records, "meet", f"brute {_ref_key(bb.glb)}", weight, partner)
    if bb.lub != weights._at(weight, oracle._gap_join(weight, gap)):
        _ref_record(records, "join", f"brute {_ref_key(bb.lub)}", weight, partner)


def _ref_verify(diagram, levels, samples, seed, window):
    records, flags, tested = [], 0, 0
    for labs in oracle._census_labels(diagram):
        flags += _ref_check_one(weight_from_labels(diagram, labs), window, records)
        tested += 1
    for level in levels:
        rng = random.Random(f"{seed}:{diagram.type_id}:{level}")
        for _ in range(samples):
            labs = oracle._sample_labels(diagram, level, rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            weight = weight_from_labels(diagram, labs, shift)
            flags += _ref_check_one(weight, window, records)
            offsets = RootVector(diagram, [rng.randint(-2, 2) for _ in diagram.vertices])
            _ref_check_pair(weight, _ref_repair(add_root(weight, offsets)), window, records)
            tested += 1
    return {
        "type": str(diagram.type_id),
        "levels": list(levels),
        "tested": tested,
        "mismatches": records,
        "boundary_flags": flags,
    }


@pytest.mark.parametrize("name", [str(t) for t in catalog_types()])
def test_sweep_matches_the_reference_sweep(name):
    # level-4 samples miss the census; the unit window writes boundary,
    # cocovers and delta records
    diagram = D(name)
    unit = SearchWindow((1,) * (diagram.n + 1))
    kinds = set()
    for window, seed in ((default_window(diagram), 5), (unit, 11)):
        report = verify_covering(
            diagram, levels=(1, 2, 3, 4), samples_per_level=8, seed=seed, window=window
        )
        expected = _ref_verify(diagram, (1, 2, 3, 4), 8, seed, window)
        assert report.to_json() == expected
        kinds |= {m["check"] for m in expected["mismatches"]}
    assert "boundary" in kinds


def test_sweep_searches_each_label_tuple_once(monkeypatch):
    real, searched = oracle._brute_lowers, []

    def counted(diagram, bounds, labs):
        searched.append(labs)
        return real(diagram, bounds, labs)

    monkeypatch.setattr(oracle, "_brute_lowers", counted)
    for name in ("A2-1", "G2-1", "A4-2", "D4-3"):
        census = list(oracle._census_labels(D(name)))
        # at levels up to three every sample's labels are in the census
        del searched[:]
        report = verify_covering(name, levels=(1, 2, 3), samples_per_level=30, seed=4)
        assert report.tested == len(census) + 90
        assert searched == census
        # a level-4 sample may leave it, and is then searched once
        del searched[:]
        verify_covering(name, levels=(4,), samples_per_level=30, seed=4)
        counts = collections.Counter(searched)
        assert max(counts.values()) == 1 and set(census) <= set(counts)


def test_sweep_reads_the_classifier_once_per_label_tuple(monkeypatch):
    real_moves, real_delta = covering._label_moves, covering.is_delta_cocover
    moved, tested = [], []

    def counted_moves(diagram, labs, sign):
        moved.append(labs)
        return real_moves(diagram, labs, sign)

    def counted_delta(weight):
        tested.append(weight.labels)
        return real_delta(weight)

    monkeypatch.setattr(covering, "_label_moves", counted_moves)
    monkeypatch.setattr(covering, "is_delta_cocover", counted_delta)
    for name in ("A2-1", "G2-1", "A4-2", "D4-3"):
        census = list(oracle._census_labels(D(name)))
        # at levels up to three every sample's labels are in the census
        del moved[:], tested[:]
        report = verify_covering(name, levels=(1, 2, 3), samples_per_level=30, seed=4)
        assert report.tested == len(census) + 90 and report.mismatches == ()
        assert moved == tested == census
        # a level-4 sample may leave it, and is then read once
        del moved[:], tested[:]
        verify_covering(name, levels=(4,), samples_per_level=30, seed=4)
        for reads in (moved, tested):
            counts = collections.Counter(reads)
            assert max(counts.values()) == 1 and set(census) <= set(counts)


def test_sweep_keeps_only_the_searches_a_sample_may_read(monkeypatch):
    real, memos = oracle._check_one, []

    def captured(weight, bounds, mismatches, memo, drawn):
        memos.append(memo)
        return real(weight, bounds, mismatches, memo, drawn)

    monkeypatch.setattr(oracle, "_check_one", captured)

    def sweep(name, levels, samples, seed=0):
        del memos[:]
        report = verify_covering(name, levels=levels, samples_per_level=samples, seed=seed)
        assert report.tested == len(memos)
        assert all(memo is memos[0] for memo in memos)  # one memo per call
        return report, memos[0]

    # a clean census keeps no tuple, and a sample in it reads none back
    for samples in (0, 5):
        report, memo = sweep("A8-1", (1,), samples)
        assert report.tested == 219 + samples and report.mismatches == ()
        assert memo == {}
    # a sample outside the census, of entry sum past three, is kept on its
    # first draw, records or not
    diagram = D("G2-1")
    outside = {labs for labs, _, _ in oracle._draws(diagram, (4,), 30, 7) if sum(labs) > 3}
    report, memo = sweep("G2-1", (4,), 30, seed=7)
    assert report.mismatches == () and len(outside) > 1
    assert memo == dict.fromkeys(outside, ())
    # a census tuple that fails is kept with its records: with the first
    # label move dropped, every census tuple fails
    real_moves = covering._label_moves
    monkeypatch.setattr(covering, "_label_moves", lambda d, labs, s: real_moves(d, labs, s)[1:])
    report, memo = sweep("A2-1", (1, 2, 3), 0)
    failing = {tuple(record["labels"]) for record in report.mismatches}
    assert failing == set(oracle._census_labels(D("A2-1"))) and report.tested == 19
    assert set(memo) == failing and all(memo.values())
    # and samples inside the census add nothing to it
    report, memo = sweep("A2-1", (1, 2, 3), 10)
    assert set(memo) == failing


def test_sweep_memory_holds_only_the_searches_samples_read():
    # A20-1 has 2023 census tuples at levels 1-3, and each of its 600
    # samples lies in the census, so a clean sweep's memo ends empty.
    # Keeping every census search peaked at 2.9 MiB.
    diagram = D("A20-1")
    verify_covering(diagram, levels=(1, 2, 3), samples_per_level=200)  # warm the caches
    tracemalloc.start()
    try:
        report = verify_covering(diagram, levels=(1, 2, 3), samples_per_level=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tested == 2023 + 600 and report.mismatches == ()
    assert peak < 1 << 20


def test_sweep_memory_holds_no_list_of_samples():
    # A8-1 has 219 label tuples at levels 1-3, which its 3000 samples draw
    # again and again; a list of the draws peaked at 0.9 MiB
    diagram = D("A8-1")
    verify_covering(diagram, levels=(1, 2, 3), samples_per_level=1000)  # warm the caches
    tracemalloc.start()
    try:
        report = verify_covering(diagram, levels=(1, 2, 3), samples_per_level=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tested == 219 + 3000 and report.mismatches == ()
    assert peak < 0.6 * (1 << 20)


def _ref_fraction_repair(weight):
    # the repair as the sweep ran it on Fractions: one sum per raise of vertex 0
    diagram = weight.diagram
    labs, shift = list(weight.labels), weight.shift
    while True:
        j = next((j for j, e in enumerate(labs) if e < 0), None)
        if j is None:
            return weight_from_labels(diagram, labs, shift)
        step = (1 - labs[j]) // 2
        for i, x in diagram.columns[j]:
            labs[i] += step * x
        if j == 0:
            shift += Fraction(step, diagram.marks[0])


def _ref_stream(diagram, levels, samples, seed):
    stream = [(weight_from_labels(diagram, labs), None) for labs in oracle._census_labels(diagram)]
    for level in levels:
        rng = random.Random(f"{seed}:{diagram.type_id}:{level}")
        for _ in range(samples):
            labs = oracle._sample_labels(diagram, level, rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            offsets = RootVector(diagram, [rng.randint(-2, 2) for _ in diagram.vertices])
            weight = weight_from_labels(diagram, labs, shift)
            stream.append((weight, _ref_fraction_repair(add_root(weight, offsets))))
    return stream


@pytest.mark.parametrize("name", [str(t) for t in catalog_types()])
def test_sweep_stream_matches_the_reference_draws(name):
    # the same (weight, partner) pairs, in order, from the same draws; equal
    # weights hold equal label tuples and shifts in lowest terms
    diagram = D(name)
    for seed in (0, 9):
        draws = oracle._draws(diagram, (1, 2, 4), 25, seed)
        stream = [
            (weight, state if state is None else weights._at(weight, state))
            for weight, state in oracle._sweep(diagram, draws)
        ]
        assert stream == _ref_stream(diagram, (1, 2, 4), 25, seed)
        assert sum(partner is not None for _, partner in stream) == 75


@pytest.mark.parametrize("name", ["A2-1", "C2-1", "G2-1", "A2-2", "A3-1"])
def test_sweep_matches_the_reference_sweep_on_a_wrong_classifier(monkeypatch, name):
    real = covering._label_moves, covering.is_delta_cocover
    monkeypatch.setattr(covering, "_label_moves", lambda d, labs, sign: real[0](d, labs, sign)[1:])
    monkeypatch.setattr(covering, "is_delta_cocover", lambda w: not real[1](w))
    monkeypatch.setattr(oracle, "cover_root_lookup", lambda d: frozenset())
    monkeypatch.setattr(oracle, "_gap_meet", lambda a, gap: (a.labels, 0))
    monkeypatch.setattr(oracle, "_gap_join", _partner_of)
    diagram = D(name)
    window = default_window(diagram)
    report = verify_covering(diagram, levels=(2, 4), samples_per_level=6, seed=3)
    expected = _ref_verify(diagram, (2, 4), 6, 3, window)
    assert report.to_json() == expected
    kinds = {m["check"] for m in expected["mismatches"]}
    assert kinds == {"cocovers", "difference", "delta", "meet", "join"}


def test_brute_cocover_roots_read_only_labels_at_most_one_on_their_support():
    """Two facts about a cocover root beta with support J, read off the brute
    search alone, with no classifier.

    (ii) If some v in J has label at least two and beta is not the simple
    root at v, the weight less that simple root is dominant and lies
    strictly between, so a cocover root other than a simple one has labels
    at most one on J.  (i) For 0 <= gamma <= beta, A gamma is at most zero
    off J, so whether beta is a cocover root reads the labels on J alone:
    drawing the labels off J again keeps it one.
    """
    ids = [
        AffineTypeId(family, rank, twist)
        for family in "ABCDEFG"
        for rank in range(1, 9)
        for twist in (1, 2, 3)
        if _rank_is_valid(family, rank, twist)
    ]
    assert len(ids) == 45
    rng = random.Random(14)
    roots = longer = relabelled = 0
    for tid in ids:
        diagram = build_affine(tid)
        for _ in range(6):
            labs = [rng.randint(0, 2) for _ in diagram.vertices]
            labs[rng.randrange(len(labs))] += 1  # a positive level
            for beta in brute_cocovers(weight_from_labels(diagram, labs)).differences:
                support = beta.support()
                roots += 1
                if beta.height() > 1:
                    assert all(labs[v] <= 1 for v in support), (str(tid), labs, beta)
                    longer += 1
                if len(support) == len(labs):
                    continue
                # a positive label on J keeps the level positive
                redrawn = [x if v in support else rng.randint(0, 3) for v, x in enumerate(labs)]
                found = brute_cocovers(weight_from_labels(diagram, redrawn)).differences
                assert beta in found, (str(tid), labs, redrawn, beta)
                relabelled += 1
    # 813 roots drawn, 204 of them not simple, and 809 relabelled
    assert roots > 700 and longer > 150 and relabelled > 700

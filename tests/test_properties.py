"""Property tests over every catalog type: cover/cocover duality, the root
coefficients derived from the labels, the label round trip, and the lattice
laws of meet and join."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from affposet.cartan import build_affine, catalog_types
from affposet.covering import cocovers, covers
from affposet.roots import RootVector
from affposet.weights import (
    add_root,
    delta_shift,
    difference,
    dominance_leq,
    join,
    labels,
    meet,
    weight_from_labels,
)

ALL_TYPES = [str(t) for t in catalog_types()]
SHIFTS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def dominant_weights(draw):
    d = build_affine(draw(st.sampled_from(ALL_TYPES)))
    labs = draw(st.lists(st.integers(0, 3), min_size=d.n + 1, max_size=d.n + 1))
    return weight_from_labels(d, labs, draw(SHIFTS))


def root_vectors(diagram):
    size = diagram.n + 1
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size).map(
        lambda coeffs: RootVector(diagram, coeffs)
    )


@settings(max_examples=150, deadline=None)
@given(dominant_weights())
def test_cover_cocover_duality(w):
    assume(any(labels(w)))
    for e in cocovers(w):
        assert e.upper == w
        assert e in covers(e.lower)
    for e in covers(w):
        assert e.lower == w
        assert e in cocovers(e.upper)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_difference_recovers_the_added_root(data):
    w = data.draw(dominant_weights())
    beta = data.draw(root_vectors(w.diagram))
    up = add_root(w, beta)
    assert difference(up, w) == beta.coeffs
    assert dominance_leq(w, up) == all(c >= 0 for c in beta.coeffs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_labels_and_shift_determine_the_weight(data):
    w0 = data.draw(dominant_weights())
    beta = data.draw(root_vectors(w0.diagram))
    w = add_root(w0, beta)
    assert weight_from_labels(w.diagram, labels(w), delta_shift(w)) == w
    assert w.coeffs == tuple(c + b for c, b in zip(w0.coeffs, beta.coeffs))


def _dominant_repair(w):
    """Raise a weight by simple roots until every label is nonnegative."""
    while True:
        j = next((j for j, e in enumerate(labels(w)) if e < 0), None)
        if j is None:
            return w
        step = [(1 - labels(w)[j]) // 2 if i == j else 0 for i in w.diagram.vertices]
        w = add_root(w, RootVector(w.diagram, step))


@st.composite
def component_pairs(draw):
    """Two dominant weights that differ by an integer root vector."""
    a = draw(dominant_weights())
    return a, _dominant_repair(add_root(a, draw(root_vectors(a.diagram))))


@settings(max_examples=150, deadline=None)
@given(component_pairs())
def test_meet_and_join_are_lattice_operations(pair):
    a, b = pair
    low, high = meet(a, b), join(a, b)
    assert low == meet(b, a) and high == join(b, a)
    assert meet(a, a) == a and join(a, a) == a
    assert meet(a, high) == a and join(a, low) == a
    for w in pair:
        assert dominance_leq(low, w) and dominance_leq(w, high)


@settings(max_examples=150, deadline=None)
@given(dominant_weights())
def test_meet_of_two_cocovers_lies_under_both(w):
    assume(any(labels(w)))
    lowers = [e.lower for e in cocovers(w)]
    for i, mu in enumerate(lowers):
        for mu2 in lowers[i + 1:]:
            low = meet(mu, mu2)
            assert dominance_leq(low, mu) and dominance_leq(low, mu2)


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_does_not_abort_the_session(tmp_path):
    # under the project's warnings-as-errors setting, reporting a falsified
    # example must not end the run before the other tests are counted
    (tmp_path / "test_given.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout

"""Value semantics of the immutable classes: equality and hashing by their
compared fields, no assignment, keyword construction, and the constructors'
checks."""

from fractions import Fraction

import pytest

from affposet import (
    AffineDiagram,
    AffineTypeId,
    Cell,
    CellShape,
    CoverCandidate,
    CoverEdge,
    CoverKind,
    FiniteType,
    PosetGraph,
    RootVector,
    Weight,
    build_affine,
)
from affposet.cartan import _build_cached

A3 = build_affine("A3-1")
TOP = Weight(A3, (0, 2, 1, 1))
LOW = Weight(A3, (1, 0, 2, 1))
BETA = RootVector(A3, (0, 1, 0, 0))
GAMMA = RootVector(A3, (0, 0, 1, 1))
EDGE = CoverEdge(TOP, LOW, CoverKind.SIMPLE, BETA, "a")
GRAPH = PosetGraph((TOP, LOW), (EDGE,))


def _fresh(name):
    """A diagram built again, not served from the build cache."""
    return _build_cached.__wrapped__(AffineTypeId(*name))


# per class: an instance, one built apart with equal fields (keywords where
# the class takes them), and instances that differ in one compared field
CASES = {
    "AffineTypeId": (
        AffineTypeId("A", 3, 1),
        AffineTypeId(family="A", rank=3, twist=1),
        [AffineTypeId("B", 3, 1), AffineTypeId("A", 4, 1), AffineTypeId("A", 4, 2)],
    ),
    "FiniteType": (
        FiniteType("B", 2),
        FiniteType(family="C", rank=2),
        [FiniteType("A", 2), FiniteType("B", 3)],
    ),
    "AffineDiagram": (
        A3,
        _fresh(("A", 3, 1)),
        [build_affine("A4-1"), build_affine("A2-1")],
    ),
    "RootVector": (
        BETA,
        RootVector(diagram=_fresh(("A", 3, 1)), coeffs=[0, 1, 0, 0]),
        [GAMMA, RootVector(build_affine("C3-1"), (0, 1, 0, 0))],
    ),
    "CoverCandidate": (
        CoverCandidate(BETA, CoverKind.SIMPLE),
        CoverCandidate(root=RootVector(A3, (0, 1, 0, 0)), kind=CoverKind.SIMPLE),
        [CoverCandidate(GAMMA, CoverKind.SIMPLE), CoverCandidate(BETA, CoverKind.SHORT)],
    ),
    "Weight": (
        TOP,
        Weight(diagram=_fresh(("A", 3, 1)), labels=[0, 2, 1, 1], shift=Fraction(0)),
        [LOW, Weight(A3, (0, 2, 1, 1), Fraction(1, 2)), Weight(build_affine("C3-1"), (0, 2, 1, 1))],
    ),
    "CoverEdge": (
        EDGE,
        CoverEdge(upper=Weight(A3, (0, 2, 1, 1), 0), lower=LOW, kind=CoverKind.SIMPLE,
                  root=BETA, case="a"),
        [
            CoverEdge(LOW, LOW, CoverKind.SIMPLE, BETA, "a"),
            CoverEdge(TOP, TOP, CoverKind.SIMPLE, BETA, "a"),
            CoverEdge(TOP, LOW, CoverKind.SHORT, BETA, "a"),
            CoverEdge(TOP, LOW, CoverKind.SIMPLE, GAMMA, "a"),
            CoverEdge(TOP, LOW, CoverKind.SIMPLE, BETA, "b"),
        ],
    ),
    "PosetGraph": (
        GRAPH,
        PosetGraph(nodes=[TOP, LOW], edges=[EDGE]),
        [PosetGraph((TOP,), (EDGE,)), PosetGraph((TOP, LOW), ())],
    ),
    "Cell": (
        Cell(CellShape.DIAMOND, "1a", GRAPH),
        Cell(shape=CellShape.DIAMOND, case="1a", graph=PosetGraph([TOP, LOW], [EDGE])),
        [
            Cell(CellShape.PENTAGON, "1a", GRAPH),
            Cell(CellShape.DIAMOND, "2", GRAPH),
            Cell(CellShape.DIAMOND, "1a", PosetGraph((), ())),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_mean_equal_and_equal_hash(name):
    value, same, _ = CASES[name]
    assert type(value).__name__ == name
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert {value, same} == {value}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_differing_field_means_unequal(name):
    value, _, others = CASES[name]
    for other in others:
        assert value != other and not value == other
    assert value != tuple(getattr(value, f) for f in type(value)._fields)


@pytest.mark.parametrize("name", sorted(CASES))
def test_assignment_raises_attribute_error(name):
    value = CASES[name][0]
    for field in type(value)._fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_affine_diagram_compares_by_type_id_only():
    other_tables = AffineDiagram(
        type_id=A3.type_id, n=3, columns=A3.columns, marks=(1, 1, 1, 2),
        comarks=A3.comarks, root_length_sq=A3.root_length_sq,
    )
    assert other_tables == A3 and hash(other_tables) == hash(A3)


def test_shift_and_coefficients_are_normalized():
    assert Weight(A3, (0, 2, 1, 1)).shift == Fraction(0)
    assert type(Weight(A3, (0, 2, 1, 1), 1).shift) is Fraction
    assert Weight(A3, [0, 2, 1, 1]).labels == (0, 2, 1, 1)
    assert RootVector(A3, [0, 1, 0, 0]).coeffs == (0, 1, 0, 0)
    assert PosetGraph(nodes=[TOP], edges=[]).nodes == (TOP,)
    assert FiniteType("C", 2).family == "B" and FiniteType("C", 3).family == "C"


def test_constructor_checks_still_fire():
    with pytest.raises(TypeError, match="labels must be ints"):
        Weight(A3, (0, 2.0, 1, 1))
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        Weight(A3, (0, 2, 1, 1), 0.5)
    with pytest.raises(ValueError, match="expected 4 labels, got 3"):
        Weight(A3, (0, 2, 1))
    with pytest.raises(TypeError, match="coefficients must be ints"):
        RootVector(A3, (0, Fraction(1), 0, 0))
    with pytest.raises(ValueError, match="expected 4 coefficients, got 5"):
        RootVector(A3, (0, 1, 0, 0, 0))
    with pytest.raises(ValueError, match="no affine diagram of family 'B', rank 2, twist 1"):
        AffineTypeId("B", 2, 1)
    with pytest.raises(ValueError, match="bad finite type H2"):
        FiniteType("H", 2)
    with pytest.raises(ValueError, match="bad finite type A0"):
        FiniteType("A", 0)

"""Value semantics of the immutable classes: equality and hashing by their
compared fields, no assignment, keyword construction, the shared
constructor's checks, and the constructors' own checks."""

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
from affposet.covering import _Step, _support_step
from affposet.oracle import BruteBounds, BruteCocovers, SearchWindow, VerificationReport

A3 = build_affine("A3-1")
TOP = Weight(A3, (0, 2, 1, 1))
LOW = Weight(A3, (1, 0, 2, 1))
BETA = RootVector(A3, (0, 1, 0, 0))
GAMMA = RootVector(A3, (0, 0, 1, 1))
EDGE = CoverEdge(TOP, LOW, CoverKind.SIMPLE, BETA, "a")
GRAPH = PosetGraph((TOP, LOW), (EDGE,))
REPORT = ("A3-1", (1, 2), 14, (), 0, 0.25, False)


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
    "SearchWindow": (
        SearchWindow((2, 2, 2, 4)),
        SearchWindow(bounds=[2, 2, 2, 4]),
        [SearchWindow((2, 2, 2, 2)), SearchWindow((2, 2, 2))],
    ),
    "BruteCocovers": (
        BruteCocovers((LOW,), (BETA,), (False,)),
        BruteCocovers(cocovers=(LOW,), differences=(BETA,), boundary=(False,)),
        [
            BruteCocovers((TOP,), (BETA,), (False,)),
            BruteCocovers((LOW,), (GAMMA,), (False,)),
            BruteCocovers((LOW,), (BETA,), (True,)),
        ],
    ),
    "BruteBounds": (
        BruteBounds(LOW, TOP),
        BruteBounds(glb=LOW, lub=Weight(A3, (0, 2, 1, 1))),
        [BruteBounds(TOP, TOP), BruteBounds(LOW, LOW)],
    ),
    "VerificationReport": (
        VerificationReport(*REPORT),
        VerificationReport(**dict(zip(VerificationReport._fields, REPORT))),
        [
            VerificationReport("A4-1", *REPORT[1:]),
            VerificationReport("A3-1", (1,), *REPORT[2:]),
            VerificationReport(*REPORT[:2], 15, *REPORT[3:]),
            VerificationReport(*REPORT[:3], ({"check": "delta"},), *REPORT[4:]),
            VerificationReport(*REPORT[:4], 1, *REPORT[5:]),
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


# per class that takes the shared constructor: one value of each field
SHARED = {
    "AffineDiagram": (AffineDiagram, (A3.type_id, 3, A3.columns, A3.marks, A3.comarks,
                                      A3.root_length_sq)),
    "CoverCandidate": (CoverCandidate, (BETA, CoverKind.SIMPLE)),
    "Cell": (Cell, (CellShape.DIAMOND, "1a", GRAPH)),
    "_Step": (_Step, tuple(getattr(_support_step(A3, (1, 2)), f) for f in _Step._fields)),
    "BruteCocovers": (BruteCocovers, ((LOW,), (BETA,), (False,))),
    "BruteBounds": (BruteBounds, (LOW, TOP)),
    "VerificationReport": (VerificationReport, REPORT),
}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_constructor_takes_fields_by_position_or_name(name):
    cls, values = SHARED[name]
    fields = cls._fields
    assert "__init__" not in vars(cls) and len(fields) == len(values) > 1
    named = dict(zip(fields, values))
    built = [
        cls(*values),
        cls(**named),
        cls(**dict(reversed(named.items()))),
        cls(*values[:1], **dict(zip(fields[1:], values[1:]))),
    ]
    for value in built:
        assert value == built[0]
        assert all(getattr(value, f) is v for f, v in zip(fields, values))


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_constructor_refuses_a_wrong_field(name):
    cls, values = SHARED[name]
    fields = cls._fields
    named = dict(zip(fields, values))
    wrong = {
        "missing": lambda: cls(*values[:-1]),
        "missing by name": lambda: cls(**dict(zip(fields[:-1], values))),
        "extra": lambda: cls(*values, values[0]),
        "unknown": lambda: cls(*values, extra=1),
        "unknown in place of one": lambda: cls(*values[:-1], extra=values[-1]),
        "repeated": lambda: cls(*values, **{fields[0]: values[0]}),
        "repeated in place of one": lambda: cls(*values[:-1], **{fields[0]: values[0]}),
        "empty": lambda: cls(),
        "sole keyword": lambda: cls(**{fields[0]: named[fields[0]]}),
    }
    for build in wrong.values():
        with pytest.raises(TypeError, match=f"^{name} takes the fields"):
            build()


def test_report_compares_without_its_timing():
    report = VerificationReport(*REPORT)
    other = VerificationReport(*REPORT[:5], 9.5, True)
    assert report == other and hash(report) == hash(other)
    # as the frozen dataclass did: the hash of the compared fields
    assert hash(report) == hash(REPORT[:5])
    assert repr(other) == (
        "VerificationReport(type='A3-1', levels=(1, 2), tested=14, mismatches=(), "
        "boundary_flags=0, elapsed=9.5, budget_exceeded=True)"
    )
    assert repr(SearchWindow([1, 2])) == "SearchWindow(bounds=(1, 2))"
    assert repr(BruteBounds(LOW, TOP)) == f"BruteBounds(glb={LOW!r}, lub={TOP!r})"


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

"""Root lattice vectors, reflections, and the cover difference candidates.

Every covering relation between dominant weights of positive level drops by
one of finitely many root vectors: a simple root, the highest short root of
a proper connected subdiagram, delta, or one of a handful of exceptional
vectors on the two triply laced diagrams.  :func:`cover_root_set` enumerates
these candidates once per diagram.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from . import _LAZY
from .cartan import AffineDiagram, _check_vertex, _proper_connected, _set, _Value

__all__ = [name for name, home in _LAZY.items() if home == "roots"]


class CoverKind(enum.Enum):
    """How a cover difference arises."""

    SIMPLE = "simple"
    SHORT = "short"  # highest short root of a proper connected subdiagram
    DELTA = "delta"
    EXCEPTIONAL = "exceptional"


class RootVector(_Value):
    """An integer vector in the simple root basis of one diagram."""

    __slots__ = _fields = ("diagram", "coeffs")

    def __init__(self, diagram: AffineDiagram, coeffs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != diagram.n + 1:
            raise ValueError(f"expected {diagram.n + 1} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
        _set(self, "diagram", diagram)
        _set(self, "coeffs", coeffs)

    def support(self) -> frozenset:
        return frozenset(i for i, c in enumerate(self.coeffs) if c != 0)

    def height(self) -> int:
        return sum(self.coeffs)

    def _check_same(self, other: "RootVector") -> None:
        if self.diagram != other.diagram:
            raise ValueError("root vectors live on different diagrams")

    def __add__(self, other: "RootVector") -> "RootVector":
        self._check_same(other)
        return RootVector(
            self.diagram,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "RootVector") -> "RootVector":
        self._check_same(other)
        return RootVector(
            self.diagram,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "RootVector":
        return RootVector(self.diagram, tuple(-a for a in self.coeffs))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def simple_root(diagram: AffineDiagram, i: int) -> RootVector:
    _check_vertex(diagram, i)
    return RootVector(diagram, tuple(1 if j == i else 0 for j in diagram.vertices))


def delta_root(diagram: AffineDiagram) -> RootVector:
    return RootVector(diagram, diagram.marks)


def coroot_pairing(root: RootVector, j: int) -> int:
    """Value of the vector on the j-th simple coroot."""
    _check_vertex(root.diagram, j)
    row = root.diagram.cartan[j]
    return sum(row[i] * c for i, c in enumerate(root.coeffs))


def simple_reflection(root: RootVector, j: int) -> RootVector:
    p = coroot_pairing(root, j)
    coeffs = list(root.coeffs)
    coeffs[j] -= p
    return RootVector(root.diagram, tuple(coeffs))


def sym_length_sq(root: RootVector) -> Fraction:
    """Squared length under the normalized invariant form."""
    b = root.diagram.sym_form
    c = root.coeffs
    total = Fraction(0)
    for i, ci in enumerate(c):
        if ci == 0:
            continue
        for j, cj in enumerate(c):
            if cj:
                total += ci * cj * b[i][j]
    return total


@functools.lru_cache(maxsize=None)
def _highest_short_root_cached(diagram: AffineDiagram, subset: tuple) -> RootVector:
    """The highest short root on a sorted subset."""
    a, lens, adjacent = diagram.cartan, diagram._half_lengths, diagram.adjacency
    pairing = dict.fromkeys(subset, 0)
    seed = min(subset, key=lens.__getitem__)
    coeffs = [0] * (diagram.n + 1)
    # add q times the j-th simple root, starting from zero plus the seed; the
    # root's values on the subset's simple coroots change only at j and its
    # neighbours, and the vertices where one turns negative wait in todo
    todo, j, q = [], seed, 1
    for _ in range(4096):
        coeffs[j] += q
        for w in (j,) + adjacent[j]:
            if w in pairing:
                was = pairing[w]
                pairing[w] += q * a[w][j]
                if was >= 0 > pairing[w]:
                    todo.append(w)
        if not todo:
            break
        j = todo.pop()
        q = -pairing[j]
    else:
        raise AssertionError(f"{diagram}: reflection climb did not stabilize on {subset}")
    beta = RootVector(diagram, tuple(coeffs))
    # coefficients grow only inside the subset, so it is the support exactly
    # when none of them is still zero
    if not all(map(coeffs.__getitem__, subset)):
        raise AssertionError(f"{diagram}: highest short root {beta} has support other than {subset}")
    # (beta, beta) = sum of c_v (beta, alpha_v^vee) |alpha_v|^2 / 2, in the
    # diagram's integer length units
    if sum(coeffs[v] * x * lens[v] for v, x in pairing.items()) != 2 * lens[seed]:
        raise AssertionError(f"{diagram}: highest short root {beta} on {subset} is not short")
    return beta


def highest_short_root(diagram: AffineDiagram, subset) -> RootVector:
    """Highest short root of the finite subsystem on a proper connected set.

    Starting from a shortest simple root, repeatedly reflecting at a vertex
    with negative pairing climbs inside the short roots (reflections preserve
    length) and stops exactly at the unique locally dominant one.
    """
    return _highest_short_root_cached(diagram, tuple(_proper_connected(diagram, subset)))


def is_real_root(root: RootVector) -> bool:
    """Whether the vector lies in the Weyl orbit of a simple root.

    Positive vectors descend by reflecting at a vertex with positive pairing;
    a real root reaches a simple root this way, anything else either develops
    mixed signs or stalls with no positive pairing (imaginary vectors).
    """
    coeffs = list(root.coeffs)
    if all(c == 0 for c in coeffs):
        return False
    if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
        return False
    if all(c <= 0 for c in coeffs):
        coeffs = [-c for c in coeffs]
    diagram = root.diagram
    rows = diagram.cartan
    budget = 10 * sum(coeffs) + 10
    for _ in range(budget):
        supp = [i for i, c in enumerate(coeffs) if c != 0]
        if len(supp) == 1:
            return coeffs[supp[0]] == 1
        j = None
        for v in diagram.vertices:
            if sum(rows[v][i] * c for i, c in enumerate(coeffs)) > 0:
                j = v
                break
        if j is None:
            return False
        p = sum(rows[j][i] * c for i, c in enumerate(coeffs))
        coeffs[j] -= p
        if coeffs[j] < 0:
            return False
    raise AssertionError(f"descent from {root} exceeded its budget")


class CoverCandidate(_Value):
    __slots__ = _fields = ("root", "kind")

    def __init__(self, root: RootVector, kind: CoverKind) -> None:
        _set(self, "root", root)
        _set(self, "kind", kind)


def _connected_proper_subsets(diagram: AffineDiagram) -> set:
    """Every connected vertex set short of the whole diagram, grown from each
    single vertex one neighbour at a time, so the work follows the output."""
    adjacent = diagram.adjacency
    found = set()
    layer = {frozenset((v,)) for v in diagram.vertices}
    for _ in range(diagram.n):
        found |= layer
        layer = {s | {w} for s in layer for v in s for w in adjacent[v] if w not in s}
    return found


_EXTRA_BY_TYPE = {
    # three diagrams carry cover differences that are not locally short
    # dominant roots: the sum over the triple bond pair (plus, for G2-1, the
    # sum of all three simple roots), and the sum over the quadruple bond
    # pair of the rank one twisted diagram
    "G2-1": ((0, 1, 1), (1, 1, 1)),
    "D4-3": ((0, 1, 1),),
    "A2-2": ((1, 1),),
}


def _support_candidate(diagram: AffineDiagram, subset: tuple) -> CoverCandidate:
    """The candidate of a sorted proper connected set: its highest short root."""
    kind = CoverKind.SIMPLE if len(subset) == 1 else CoverKind.SHORT
    return CoverCandidate(_highest_short_root_cached(diagram, subset), kind)


def _fixed_candidates(diagram: AffineDiagram) -> list:
    """The candidates that are not the highest short root of a proper
    connected set: delta, then the diagram's exceptional vectors."""
    return [CoverCandidate(delta_root(diagram), CoverKind.DELTA)] + [
        CoverCandidate(RootVector(diagram, coeffs), CoverKind.EXCEPTIONAL)
        for coeffs in _EXTRA_BY_TYPE.get(str(diagram.type_id), ())
    ]


@functools.lru_cache(maxsize=None)
def cover_root_set(diagram: AffineDiagram) -> tuple:
    """All candidate cover differences, sorted by height then coefficients."""
    out = _fixed_candidates(diagram) + [
        _support_candidate(diagram, tuple(sorted(subset)))
        for subset in _connected_proper_subsets(diagram)
    ]
    if len({cand.root.coeffs for cand in out}) != len(out):
        raise AssertionError(f"{diagram}: two cover candidates coincide")
    out.sort(key=lambda cand: (cand.root.height(), cand.root.coeffs))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cover_root_lookup(diagram: AffineDiagram) -> dict:
    """Coefficient tuple to candidate map for membership tests."""
    return {cand.root.coeffs: cand for cand in cover_root_set(diagram)}

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
import math
from fractions import Fraction

from . import _LAZY
from .cartan import AffineDiagram, _check_vertex, _ints, _proper_connected, _Value

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
        super().__init__(diagram, _ints("coefficients", coeffs))

    def support(self) -> frozenset:
        return frozenset(i for i, c in enumerate(self.coeffs) if c != 0)

    def height(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def simple_root(diagram: AffineDiagram, i: int) -> RootVector:
    _check_vertex(diagram, i)
    return RootVector(diagram, tuple(1 if j == i else 0 for j in diagram.vertices))


def delta_root(diagram: AffineDiagram) -> RootVector:
    return RootVector(diagram, diagram.marks)


def coroot_pairing(root: RootVector, j: int) -> int:
    """Value of the vector on the j-th simple coroot: row j of the Cartan
    matrix is nonzero only in the columns of j and its neighbours."""
    columns, c = root.diagram.columns, root.coeffs
    _check_vertex(root.diagram, j)
    return sum(c[i] * x for i, _ in columns[j] for w, x in columns[i] if w == j)


def simple_reflection(root: RootVector, j: int) -> RootVector:
    p = coroot_pairing(root, j)
    coeffs = list(root.coeffs)
    coeffs[j] -= p
    return RootVector(root.diagram, tuple(coeffs))


def sym_length_sq(root: RootVector) -> Fraction:
    """Squared length under the normalized invariant form: the sum of
    c_v (beta, alpha_v^vee) |alpha_v|^2 / 2, in the diagram's integer length
    units over the lcm of the marks."""
    diagram, c = root.diagram, root.coeffs
    half = diagram._half_lengths
    total = sum(c[v] * half[v] * coroot_pairing(root, v) for v in diagram.vertices if c[v])
    return Fraction(total, math.lcm(*diagram.marks))


@functools.lru_cache(maxsize=None)
def _highest_short_root_cached(diagram: AffineDiagram, subset: tuple) -> RootVector:
    """The highest short root on a sorted subset."""
    columns, lens = diagram.columns, diagram._half_lengths
    pairing = dict.fromkeys(subset, 0)
    seed = min(subset, key=lens.__getitem__)
    coeffs = [0] * (diagram.n + 1)
    # add q times the j-th simple root, starting from zero plus the seed; the
    # root's values on the subset's simple coroots change only at j and its
    # neighbours, and the vertices where one turns negative wait in todo.
    # Each step adds q >= 1 to the height, and the climb ends at most at
    # delta on the subset, so the subset's mark sum bounds the steps
    todo, j, q = [], seed, 1
    for _ in range(sum(map(diagram.marks.__getitem__, subset))):
        coeffs[j] += q
        for w, x in columns[j]:
            if w in pairing:
                was = pairing[w]
                pairing[w] += q * x
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
    coeffs = root.coeffs
    if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
        return False
    # a vector of one sign is a root exactly when its negative is one
    beta = RootVector(root.diagram, map(abs, coeffs))
    for _ in range(10 * beta.height() + 10):
        if len(beta.support()) <= 1:
            return beta.height() == 1
        j = next((v for v in beta.diagram.vertices if coroot_pairing(beta, v) > 0), None)
        if j is None:
            return False
        beta = simple_reflection(beta, j)
        if beta.coeffs[j] < 0:
            return False
    raise AssertionError(f"descent from {root} exceeded its budget")


class CoverCandidate(_Value):
    __slots__ = _fields = ("root", "kind")


def _connected_proper_subsets(diagram: AffineDiagram):
    """Every connected vertex set short of the whole diagram, as a sorted
    tuple, smallest size first and in sorted order within a size.  Each
    size is grown from the last one neighbour at a time, so the work follows
    the output, and only the current size's sets are held."""
    adjacent = diagram.adjacency
    layer = [(v,) for v in diagram.vertices]
    for _ in range(diagram.n - 1):
        yield from layer
        layer = sorted({
            tuple(sorted(s | {w}))
            for s in map(set, layer) for v in s for w in adjacent[v] if w not in s
        })
    yield from layer


_EXTRA_BY_TYPE = {
    # three diagrams carry cover differences that are not locally short
    # dominant roots: the sum over the triple bond pair (plus, for G2-1, the
    # sum of all three simple roots), and the sum over the quadruple bond
    # pair of the rank one twisted diagram
    "G2-1": ((0, 1, 1), (1, 1, 1)),
    "D4-3": ((0, 1, 1),),
    "A2-2": ((1, 1),),
}


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
        CoverCandidate(
            _highest_short_root_cached(diagram, supp),
            CoverKind.SIMPLE if len(supp) == 1 else CoverKind.SHORT,
        )
        for supp in _connected_proper_subsets(diagram)
    ]
    if len({cand.root.coeffs for cand in out}) != len(out):
        raise AssertionError(f"{diagram}: two cover candidates coincide")
    out.sort(key=lambda cand: (cand.root.height(), cand.root.coeffs))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cover_root_lookup(diagram: AffineDiagram) -> dict:
    """Coefficient tuple to candidate map for membership tests."""
    return {cand.root.coeffs: cand for cand in cover_root_set(diagram)}

"""Catalog of affine Dynkin diagrams.

A diagram with vertex set {0, .., n} is stored as its generalized Cartan
matrix together with the marks (coefficients of the basic imaginary root
delta) and comarks (coefficients of the central element).  Entry
``cartan[i][j]`` is the value of the j-th simple root on the i-th simple
coroot, so each row records one coroot's view of all simple roots.

For the twisted families the vertex count n + 1 is smaller than the series
rank that appears in the type name (for instance A5-2 has four vertices).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

__all__ = [
    "AffineTypeId",
    "AffineDiagram",
    "FiniteType",
    "parse_type_id",
    "build_affine",
    "classify_finite",
    "catalog_types",
]

_TYPE_RE = re.compile(r"^([A-G])([1-9][0-9]*)-([123])$")


def _rank_is_valid(family: str, rank: int, twist: int) -> bool:
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
            # series at rank 5, so rank 3 has no twisted diagram.
            return rank == 2 or rank >= 4
        if family == "D":
            return rank >= 3
        if family == "E":
            return rank == 6
        return False
    if twist == 3:
        return family == "D" and rank == 4
    return False


@dataclass(frozen=True)
class AffineTypeId:
    """Identifier of an affine diagram, printed as '<Family><rank>-<twist>'."""

    family: str
    rank: int
    twist: int

    def __post_init__(self) -> None:
        if not _rank_is_valid(self.family, self.rank, self.twist):
            raise ValueError(
                f"no affine diagram of family {self.family!r}, "
                f"rank {self.rank}, twist {self.twist}"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}-{self.twist}"


def parse_type_id(text: str) -> AffineTypeId:
    """Parse a case-sensitive type string such as 'A5-2' or 'G2-1'."""
    if isinstance(text, AffineTypeId):
        return text
    m = _TYPE_RE.match(text)
    if m is None:
        raise ValueError(
            f"malformed type id {text!r}, expected '<Family><rank>-<twist>' "
            "with Family in A..G and twist in 1..3"
        )
    return AffineTypeId(m.group(1), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True)
class FiniteType:
    """A finite Dynkin type; C2 is normalized to the isomorphic B2."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in "ABCDEFG" or self.rank < 1:
            raise ValueError(f"bad finite type {self.family}{self.rank}")
        if self.family == "C" and self.rank == 2:
            object.__setattr__(self, "family", "B")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class AffineDiagram:
    """An affine Dynkin diagram with its standard numerical data.

    Equality and hashing go through ``type_id`` only; instances are built
    exclusively by :func:`build_affine`, so equal ids mean equal tables.
    """

    type_id: AffineTypeId
    n: int = field(compare=False)
    cartan: tuple = field(compare=False)
    marks: tuple = field(compare=False)
    comarks: tuple = field(compare=False)
    root_length_sq: tuple = field(compare=False)
    sym_form: tuple = field(compare=False)

    @property
    def vertices(self) -> range:
        return range(self.n + 1)

    @functools.cached_property
    def adjacency(self) -> tuple:
        """The neighbours of each vertex, read off the Cartan rows once."""
        rows = enumerate(self.cartan)
        return tuple(tuple(j for j, x in enumerate(row) if x and j != i) for i, row in rows)

    def neighbors(self, i: int) -> tuple:
        return self.adjacency[i]

    def is_connected(self, subset) -> bool:
        inside = set(subset)
        if not inside:
            return False
        start = min(inside)
        seen, stack = {start}, [start]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == inside

    def __str__(self) -> str:
        return str(self.type_id)


def _base_matrix(num: int):
    return [[2 if i == j else 0 for j in range(num)] for i in range(num)]


def _join_simple(a, i: int, j: int) -> None:
    a[i][j] = -1
    a[j][i] = -1


def _tables(tid: AffineTypeId):
    """Cartan rows, marks and comarks for one type id."""
    fam, r, tw = tid.family, tid.rank, tid.twist
    if tw == 1:
        if fam == "A":
            if r == 1:
                return [[2, -2], [-2, 2]], [1, 1], [1, 1]
            a = _base_matrix(r + 1)
            for i in range(r):
                _join_simple(a, i, i + 1)
            _join_simple(a, 0, r)
            return a, [1] * (r + 1), [1] * (r + 1)
        if fam == "B":
            a = _base_matrix(r + 1)
            _join_simple(a, 0, 2)
            _join_simple(a, 1, 2)
            for i in range(2, r):
                _join_simple(a, i, i + 1)
            a[r][r - 1] = -2
            a[r - 1][r] = -1
            marks = [1, 1] + [2] * (r - 1)
            comarks = [1, 1] + [2] * (r - 2) + [1]
            return a, marks, comarks
        if fam == "C":
            a = _base_matrix(r + 1)
            for i in range(r):
                _join_simple(a, i, i + 1)
            a[1][0] = -2
            a[0][1] = -1
            a[r - 1][r] = -2
            a[r][r - 1] = -1
            return a, [1] + [2] * (r - 1) + [1], [1] * (r + 1)
        if fam == "D":
            a = _base_matrix(r + 1)
            _join_simple(a, 0, 2)
            _join_simple(a, 1, 2)
            for i in range(2, r - 2):
                _join_simple(a, i, i + 1)
            _join_simple(a, r - 2, r - 1)
            _join_simple(a, r - 2, r)
            marks = [1, 1] + [2] * (r - 3) + [1, 1]
            return a, marks, list(marks)
        if fam == "E" and r == 6:
            a = _base_matrix(7)
            for i, j in ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)):
                _join_simple(a, i, j)
            marks = [1, 1, 2, 3, 2, 1, 2]
            return a, marks, list(marks)
        if fam == "E" and r == 7:
            a = _base_matrix(8)
            for i in range(6):
                _join_simple(a, i, i + 1)
            _join_simple(a, 3, 7)
            marks = [1, 2, 3, 4, 3, 2, 1, 2]
            return a, marks, list(marks)
        if fam == "E" and r == 8:
            a = _base_matrix(9)
            for i in range(7):
                _join_simple(a, i, i + 1)
            _join_simple(a, 5, 8)
            marks = [1, 2, 3, 4, 5, 6, 4, 2, 3]
            return a, marks, list(marks)
        if fam == "F":
            a = _base_matrix(5)
            for i in range(4):
                _join_simple(a, i, i + 1)
            a[3][2] = -2
            a[2][3] = -1
            return a, [1, 2, 3, 4, 2], [1, 2, 3, 2, 1]
        if fam == "G":
            a = _base_matrix(3)
            _join_simple(a, 0, 1)
            _join_simple(a, 1, 2)
            a[2][1] = -3
            return a, [1, 2, 3], [1, 2, 1]
    if tw == 2:
        if fam == "A" and r == 2:
            return [[2, -4], [-1, 2]], [2, 1], [1, 2]
        if fam == "A" and r % 2 == 0:
            l = r // 2
            a = _base_matrix(l + 1)
            for i in range(l):
                _join_simple(a, i, i + 1)
            a[0][1] = -2
            a[1][0] = -1
            a[l - 1][l] = -2
            a[l][l - 1] = -1
            return a, [2] * l + [1], [1] + [2] * l
        if fam == "A":
            l = (r + 1) // 2
            a = _base_matrix(l + 1)
            _join_simple(a, 0, 2)
            _join_simple(a, 1, 2)
            for i in range(2, l):
                _join_simple(a, i, i + 1)
            a[l - 1][l] = -2
            a[l][l - 1] = -1
            marks = [1, 1] + [2] * (l - 2) + [1]
            comarks = [1, 1] + [2] * (l - 2) + [2]
            return a, marks, comarks
        if fam == "D":
            l = r - 1
            a = _base_matrix(l + 1)
            for i in range(l):
                _join_simple(a, i, i + 1)
            a[0][1] = -2
            a[1][0] = -1
            a[l][l - 1] = -2
            a[l - 1][l] = -1
            return a, [1] * (l + 1), [1] + [2] * (l - 1) + [1]
        if fam == "E":
            a = _base_matrix(5)
            for i in range(4):
                _join_simple(a, i, i + 1)
            a[2][3] = -2
            a[3][2] = -1
            return a, [1, 2, 3, 2, 1], [1, 2, 3, 4, 2]
    if tw == 3:
        a = _base_matrix(3)
        _join_simple(a, 0, 1)
        _join_simple(a, 1, 2)
        a[1][2] = -3
        return a, [1, 2, 1], [1, 2, 3]
    raise AssertionError(f"unhandled type {tid}")


@functools.lru_cache(maxsize=None)
def _interior_adjugate(diagram: AffineDiagram) -> tuple:
    """Adjugate and determinant of the Cartan block on vertices 1..n.

    The adjugate comes back bordered by a zero row and column for vertex 0,
    so row i sends the labels of a weight with delta shift 0 to det times
    its root coefficient i.  Fraction-free Gauss-Jordan elimination keeps
    every entry an integer: each division is exact, the pivot of column k is
    the leading principal minor of size k + 1, and the last pivot is the
    determinant.  The block is of finite type exactly when every leading
    minor is positive (Kac, ch. 4), so a pivot that is not raises.
    """
    n = diagram.n
    rows = [
        [diagram.cartan[j][i] for i in range(1, n + 1)]
        + [int(i == j) for i in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    prev = 1
    for col in range(n):
        head = rows[col]
        if head[col] <= 0:
            raise ValueError(f"{diagram}: check failed: Cartan block on vertices 1..{n} "
                             f"is of finite type (leading minor {col + 1} is {head[col]})")
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(head[col] * a - f * b) // prev for a, b in zip(rows[r], head)]
        prev = head[col]
    adj = tuple((0,) + tuple(row[n:]) for row in rows)
    return ((0,) * (n + 1),) + adj, prev


def _validate(diag: AffineDiagram) -> None:
    """Raise ValueError naming the first check the tables of diag fail."""
    num = diag.n + 1
    a, b, lensq = diag.cartan, diag.sym_form, diag.root_length_sq
    off = [(i, j) for i in range(num) for j in range(num) if i != j]

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{diag.type_id}: check failed: {what}")

    def kills(rows, vector) -> bool:
        return all(sum(map(mul, row, vector)) == 0 for row in rows)

    require(all(len(row) == num for row in a), "Cartan matrix is square")
    require(all(a[i][i] == 2 for i in range(num)), "diagonal entries are 2")
    require(all(a[i][j] <= 0 for i, j in off), "off-diagonal entries are nonpositive")
    require(all((a[i][j] == 0) == (a[j][i] == 0) for i, j in off), "zero pattern is symmetric")
    require(diag.is_connected(diag.vertices), "diagram is connected")
    require(kills(a, diag.marks), "marks annihilate the Cartan rows")
    require(kills(zip(*a), diag.comarks), "comarks annihilate the Cartan columns")
    require(diag.comarks[0] == 1, "comark of vertex 0 is 1")
    require(math.gcd(*diag.marks) == 1, "marks are coprime")
    require(math.gcd(*diag.comarks) == 1, "comarks are coprime")
    require(all(lensq[i] == b[i][i] for i in range(num)), "form diagonal is the squared lengths")
    require(all(b[i][j] == b[j][i] for i, j in off), "form is symmetric")
    require(kills(b, diag.marks), "marks annihilate the form")
    require(all(x > 0 for x in lensq[1:]), "roots on vertices 1..n have positive length")
    # the form on vertices 1..n is diag(lensq / 2) times the Cartan block, so
    # with positive lengths it is positive definite exactly when the block's
    # pivots are all positive; dropping vertex 0 suffices since the radical
    # is spanned by the marks, all nonzero
    _interior_adjugate(diag)


@functools.lru_cache(maxsize=None)
def _build_cached(tid: AffineTypeId) -> AffineDiagram:
    rows, marks, comarks = _tables(tid)
    num = len(rows)
    lensq = tuple(Fraction(2 * comarks[i], marks[i]) for i in range(num))
    sym = tuple(
        tuple(Fraction(rows[i][j]) * lensq[i] / 2 for j in range(num))
        for i in range(num)
    )
    diag = AffineDiagram(
        type_id=tid,
        n=num - 1,
        cartan=tuple(tuple(row) for row in rows),
        marks=tuple(marks),
        comarks=tuple(comarks),
        root_length_sq=lensq,
        sym_form=sym,
    )
    _validate(diag)
    return diag


def build_affine(type_id) -> AffineDiagram:
    """Return the cached diagram for a type id or type string."""
    return _build_cached(parse_type_id(type_id))


def classify_finite(diagram: AffineDiagram, vertices) -> FiniteType:
    """Finite Dynkin type of a nonempty proper connected subdiagram."""
    k = sorted(set(vertices))
    if not k:
        raise ValueError("empty vertex set")
    if any(v not in diagram.vertices for v in k):
        raise ValueError(f"vertices {k} out of range for {diagram}")
    if len(k) == diagram.n + 1:
        raise ValueError("subdiagram must be proper")
    if not diagram.is_connected(k):
        raise ValueError(f"vertex set {k} is not connected in {diagram}")
    a = diagram.cartan
    inside = set(k)
    degree = {v: sum(1 for w in diagram.neighbors(v) if w in inside) for v in k}
    bonds = [
        (i, j, a[i][j] * a[j][i])
        for i in k
        for j in k
        if i < j and a[i][j] != 0
    ]
    if any(m > 3 for _, _, m in bonds):
        raise ValueError(f"vertex set {k} does not span a finite type")
    triples = [b for b in bonds if b[2] == 3]
    doubles = [b for b in bonds if b[2] == 2]
    if triples:
        if len(k) == 2 and len(bonds) == 1:
            return FiniteType("G", 2)
        raise ValueError(f"vertex set {k} does not span a finite type")
    if len(doubles) > 1:
        raise ValueError(f"vertex set {k} does not span a finite type")
    if doubles:
        if any(degree[v] > 2 for v in k):
            raise ValueError(f"vertex set {k} does not span a finite type")
        i, j, _ = doubles[0]
        size = len(k)
        if size == 2:
            return FiniteType("B", 2)
        if degree[i] == 1 or degree[j] == 1:
            end = i if degree[i] == 1 else j
            other = j if end == i else i
            # the end vertex is short exactly when its coroot sees the
            # neighbor with multiplicity two
            if a[end][other] == -2:
                return FiniteType("B", size)
            return FiniteType("C", size)
        if size == 4:
            return FiniteType("F", 4)
        raise ValueError(f"vertex set {k} does not span a finite type")
    branch = [v for v in k if degree[v] >= 3]
    if not branch:
        return FiniteType("A", len(k))
    if len(branch) > 1 or degree[branch[0]] != 3:
        raise ValueError(f"vertex set {k} does not span a finite type")
    center = branch[0]
    arms = []
    for start in diagram.neighbors(center):
        if start not in inside:
            continue
        length = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in diagram.neighbors(cur) if w in inside and w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return FiniteType("D", len(k))
    if arms == [1, 2, 2]:
        return FiniteType("E", 6)
    if arms == [1, 2, 3]:
        return FiniteType("E", 7)
    if arms == [1, 2, 4]:
        return FiniteType("E", 8)
    raise ValueError(f"vertex set {k} does not span a finite type")


_CATALOG = (
    "A1-1", "A2-1", "A3-1", "A4-1", "B3-1", "C2-1", "C3-1", "D4-1",
    "F4-1", "G2-1", "A2-2", "A4-2", "A5-2", "D3-2", "D4-2", "E6-2",
    "D4-3",
)


def catalog_types() -> tuple:
    """The types exercised by the verification suite, in fixed order."""
    return tuple(parse_type_id(s) for s in _CATALOG)

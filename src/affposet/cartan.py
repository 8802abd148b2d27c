"""Catalog of affine Dynkin diagrams.

A diagram with vertex set {0, .., n} is stored as its generalized Cartan
matrix, marks (coefficients of the basic imaginary root delta) and comarks
(coefficients of the central element).  Entry a[i][j] is the value of the
j-th simple root on the i-th simple coroot; column j is nonzero only at j
and its neighbours, and ``columns[j]`` holds just those pairs (i, a[i][j]),
ascending.  The dense rows ``cartan`` are built only when read.

For the twisted families the vertex count n + 1 is smaller than the series
rank that appears in the type name (for instance A5-2 has four vertices).

The module also reads the special vertices off the marks and root lengths,
and holds the text helpers that every command line command can reach
without loading the weight arithmetic.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import _LAZY

__all__ = [name for name, home in _LAZY.items() if home == "cartan"]

_TYPE_RE = re.compile(r"([A-G])([1-9][0-9]*)-([123])")


_set = object.__setattr__


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` (and in ``__slots__``, unless
    a cached property needs an instance dict) and compares and hashes by
    ``_key``, all fields unless it says otherwise; the hash is kept once
    computed.  The constructor takes the fields by position or by name.  A
    class that checks or converts its input hands the result on to it, but
    ``Weight``, built in hot loops, sets its fields through ``_set`` itself.
    A weight the library computed skips even ``Weight``'s checks:
    ``weights._weight`` sets its fields unchecked.
    ``pickle`` and ``copy`` rebuild a value through its constructor from
    its fields.
    """

    __slots__ = ("_hash",)
    _fields: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # a repeated, unknown, missing or extra field breaks the count or the names
            values = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {fields}, "
                    f"got {len(args)} by position and {sorted(kwargs)} by name"
                )
            args = map(values.__getitem__, fields)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = hash(self._key())
            _set(self, "_hash", value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default restores slots by assignment, which __setattr__ refuses
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# A10**6-1, the largest diagram measured, builds in 27.5 s and 1.7 GB
_MAX_RANK = 10**6


class RankTooLargeError(ValueError):
    """A type id's rank is past the largest diagram the package builds, or
    its diagram has more vertices than the largest whose dense Cartan rows
    the CLI's ``info`` prints."""


class AffineTypeId(_Value):
    """Identifier of an affine diagram, printed as '<Family><rank>-<twist>'."""

    __slots__ = _fields = ("family", "rank", "twist")

    def __init__(self, family: str, rank: int, twist: int) -> None:
        if type(rank) is not int or type(twist) is not int:
            raise TypeError(f"rank and twist must be ints, got {rank!r} and {twist!r}")
        if not _rank_is_valid(family, rank, twist):
            raise ValueError(
                f"no affine diagram of family {family!r}, rank {rank}, twist {twist}"
            )
        if rank > _MAX_RANK:
            raise RankTooLargeError(f"rank {rank} is past the largest rank, {_MAX_RANK}")
        super().__init__(family, rank, twist)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}-{self.twist}"


def parse_type_id(text: str) -> AffineTypeId:
    """Parse a case-sensitive type string such as 'A5-2' or 'G2-1'."""
    if isinstance(text, AffineTypeId):
        return text
    m = _TYPE_RE.fullmatch(text)
    if m is None:
        raise ValueError(
            f"malformed type id {text!r}, expected '<Family><rank>-<twist>' "
            "with Family in A..G and twist in 1..3"
        )
    return AffineTypeId(m.group(1), int(m.group(2)), int(m.group(3)))


_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value) if value else _ZERO
    raise TypeError(f"expected an int or Fraction, got {value!r}")


def format_shift(value: Fraction) -> str:
    value = _as_fraction(value)
    return f"{value.numerator}/{value.denominator}"


_INT_RE = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """An integer written in ASCII digits, with an optional minus sign and
    surrounding whitespace; int() also takes '1_0', '+1' and other scripts'
    digits."""
    if _INT_RE.fullmatch(text.strip()) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class FiniteType(_Value):
    """A finite Dynkin type; C2 is normalized to the isomorphic B2."""

    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if type(rank) is not int:
            raise TypeError(f"rank must be an int, got {rank!r}")
        if family not in tuple("ABCDEFG") or rank < 1:
            raise ValueError(f"bad finite type {family}{rank}")
        super().__init__("B" if family == "C" and rank == 2 else family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class AffineDiagram(_Value):
    """An affine Dynkin diagram with its standard numerical data.

    Equality and hashing go through ``type_id`` only; instances are built
    exclusively by :func:`build_affine`, so equal ids mean equal tables.
    """

    _fields = ("type_id", "n", "columns", "marks", "comarks", "root_length_sq")

    def _key(self) -> tuple:
        return (self.type_id,)

    def __reduce__(self):
        # the cached diagram, with the elimination its validation kept
        return build_affine, (self.type_id,)

    def __repr__(self) -> str:
        return f"build_affine({str(self.type_id)!r})"

    @property
    def vertices(self) -> range:
        return range(self.n + 1)

    @functools.cached_property
    def adjacency(self) -> tuple:
        """The neighbours of each vertex, ascending, read off its column once."""
        return tuple(tuple(w for w, _ in col if w != v) for v, col in enumerate(self.columns))

    @functools.cached_property
    def cartan(self) -> tuple:
        """The dense Cartan rows, built from the columns on first read."""
        columns = [dict(column) for column in self.columns]
        return tuple(tuple(column.get(i, 0) for column in columns) for i in self.vertices)

    @functools.cached_property
    def _half_lengths(self) -> tuple:
        """|alpha_i|^2 / 2 = comark_i / mark_i times the lcm of the marks: one
        integer per vertex, in the ratio of the squared root lengths."""
        scale = math.lcm(*self.marks)
        return tuple(c * scale // m for c, m in zip(self.comarks, self.marks))

    def is_connected(self, subset) -> bool:
        """Whether subset is a nonempty connected set of vertices."""
        inside = set(subset)
        if not inside or any(v not in self.vertices for v in inside):
            return False
        return _component(self.adjacency, min(inside), inside) == inside

    def __str__(self) -> str:
        return str(self.type_id)


def _component(adjacency, start, inside) -> set:
    """The vertices reached from start along edges into inside, start
    included whether or not it is inside."""
    seen, stack = {start}, [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _untwisted(fam: str, r: int):
    """Bonds, marks and comarks (None when equal to the marks) of the
    untwisted diagram of family fam and rank r >= 2 (Kac, Table Aff 1).

    A bond (i, j) is simple; a bond (i, j, k) has a[i][j] = -k and
    a[j][i] = -1, so i is its short end.
    """
    chain = [(i, i + 1) for i in range(1, r - 1)]
    if fam == "A":
        return [(0, 1), (0, r), (r - 1, r)] + chain, [1] * (r + 1), None
    if fam == "B":
        marks = [1, 1] + [2] * (r - 1)
        return [(0, 2), (r, r - 1, 2)] + chain, marks, marks[:-1] + [1]
    if fam == "C":
        return [(1, 0, 2), (r - 1, r, 2)] + chain, [1] + [2] * (r - 1) + [1], [1] * (r + 1)
    if fam == "D":
        return [(0, 2), (r - 2, r)] + chain, [1, 1] + [2] * (r - 3) + [1, 1], None
    return _EXCEPTIONAL[fam, r]


_EXCEPTIONAL = {
    ("E", 6): ([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)], [1, 1, 2, 3, 2, 1, 2], None),
    ("E", 7): (
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)], [1, 2, 3, 4, 3, 2, 1, 2], None
    ),
    ("E", 8): (
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)],
        [1, 2, 3, 4, 5, 6, 4, 2, 3],
        None,
    ),
    ("F", 4): ([(0, 1), (1, 2), (3, 2, 2), (3, 4)], [1, 2, 3, 4, 2], [1, 2, 3, 2, 1]),
    ("G", 2): ([(0, 1), (2, 1, 3)], [1, 2, 3], [1, 2, 1]),
}


# the untwisted partner, (family, rank), of each twisted series but A_{2l}^(2)
_PARTNERS = {
    ("A", 2): lambda r: ("B", (r + 1) // 2),  # odd r; even r is A_{2l}^(2)
    ("D", 2): lambda r: ("C", r - 1),
    ("E", 2): lambda r: ("F", r - 2),
    ("D", 3): lambda r: ("G", r - 2),
}
_LEAST_RANK = {"A": 1, "B": 3, "C": 2, "D": 4}  # E, F and G: the ranks of _EXCEPTIONAL


def _rank_is_valid(family: str, rank: int, twist: int) -> bool:
    """Whether ``_tables`` has a diagram for the id: read off the least
    ranks, ``_EXCEPTIONAL`` and the partners of the twisted series."""
    if not isinstance(family, str):
        return False  # names no diagram, and may not hash
    if twist == 1:
        least = _LEAST_RANK.get(family)
        return (family, rank) in _EXCEPTIONAL if least is None else rank >= least
    if (family, twist) == ("A", 2) and rank % 2 == 0:
        return rank >= 2
    partner = _PARTNERS.get((family, twist))
    return partner is not None and _rank_is_valid(*partner(rank), 1)


def _vertex_count(tid: AffineTypeId) -> int:
    """The number of vertices, n + 1, of the id's diagram, read off the id
    alone: no table is built."""
    if tid.twist == 1:
        return tid.rank + 1
    if tid.family == "A" and tid.rank % 2 == 0:  # A_{2l}^(2)
        return tid.rank // 2 + 1
    return _PARTNERS[tid.family, tid.twist](tid.rank)[1] + 1


def _tables(tid: AffineTypeId):
    """Cartan columns, marks and comarks for one type id.

    A_{2l-1}^(2), D_{l+1}^(2), E6^(2) and D4^(3) are the transposes of their
    ``_PARTNERS`` B_l^(1), C_l^(1), F4^(1) and G2^(1), with marks and comarks
    swapped (Kac, Tables Aff 1-3).  A_{2l}^(2) and A1^(1) have entries of
    their own.
    """
    fam, r, tw = tid.family, tid.rank, tid.twist
    if tw == 1 and r == 1:
        return (((0, 2), (1, -2)), ((0, -2), (1, 2))), [1, 1], [1, 1]
    if tw == 1:
        bonds, marks, comarks = _untwisted(fam, r)
    elif fam == "A" and r % 2 == 0:
        l = r // 2
        ends = [(0, 1, 4)] if l == 1 else [(0, 1, 2), (l - 1, l, 2)]
        bonds = ends + [(i, i + 1) for i in range(1, l - 1)]
        marks, comarks = [2] * l + [1], [1] + [2] * l
    else:
        bonds, comarks, marks = _untwisted(*_PARTNERS[fam, tw](r))
        # reversing every bond transposes the Cartan matrix
        bonds = [(j, i, *k) for i, j, *k in bonds]
    columns = [[(v, 2)] for v in range(len(marks))]
    for i, j, *k in bonds:
        columns[j].append((i, -(k[0] if k else 1)))
        columns[i].append((j, -1))
    return tuple(tuple(sorted(c)) for c in columns), list(marks), list(comarks or marks)


def _eliminate(columns):
    """Leaf-first integer elimination of the Cartan block on vertices 1..n.

    On a tree, removing a leaf changes only the diagonal entry of its one
    remaining neighbour, its parent: no fill-in, one update per edge.  The
    pivot of v is kept as D_v / P_v, where P_v is the product of D_g over
    the children g of v and D_v = a_vv P_v - sum_g a_vg a_gv P_g (P_v / D_g)
    is the determinant of the block on v and its descendants, so every
    number is an integer.  With a symmetric form and positive lengths the
    block is of finite type exactly when every D_v is positive (Kac, ch. 4).
    A block with a cycle runs out of leaves before the last vertex, and no
    finite type has one.

    Returns a string saying why the block is not of finite type, or the
    plan that ``weights._scaled_coeffs`` runs to solve the block for labels:
    the forward steps (v, parent, P_v, a_parent,v P_parent / D_v) in
    elimination order, the backward steps (v, parent, a_v,parent P_v, D_v)
    in reverse, and the determinant.  A root of the forest has parent 0 and
    zero coefficients.
    """
    num = len(columns)
    a = {(i, j): x for j, column in enumerate(columns) for i, x in column}
    top = [a.get((v, v), 0) for v in range(num)]  # D_v over the children so far
    prod = [1] * num  # P_v over the children so far
    parent = [0] * num
    degree = [sum(1 for w, _ in col if w and w != v) for v, col in enumerate(columns)]
    order = [v for v in range(1, num) if degree[v] <= 1]
    for v in order:  # grows as vertices become leaves
        if top[v] <= 0:
            return f"pivot at vertex {v} is {Fraction(top[v], prod[v])}"
        degree[v] = -1
        for u, _ in columns[v]:
            if u and degree[u] > 0:
                parent[v] = u
                top[u] = top[u] * top[v] - a[u, v] * a[v, u] * prod[v] * prod[u]
                prod[u] *= top[v]
                degree[u] -= 1
                if degree[u] == 1:
                    order.append(u)
    if len(order) != num - 1:
        return "the block has a cycle"
    det = math.prod(top[v] for v in order if not parent[v])
    forward, backward = [], []
    for v in order:
        p = parent[v]
        forward.append((v, p, prod[v], p and a[p, v] * prod[p] // top[v]))
        backward.append((v, p, p and a[v, p] * prod[v], top[v]))
    return tuple(forward), tuple(reversed(backward)), det


def _validate(diag: AffineDiagram) -> None:
    """Raise ValueError naming the first check the tables of diag fail, and
    keep the elimination of its Cartan block as ``diag._elimination``.

    Every test reads only the nonzero entries, one per bond and one per
    vertex.  Row i of the form b_ij = a_ij comark_i / mark_i is row i of the
    Cartan matrix times ``_half_lengths[i]`` over the lcm of the marks, so
    only its symmetry needs a check of its own.
    """
    num = diag.n + 1
    a = {(i, j): x for j, column in enumerate(diag.columns) for i, x in column}
    bonds = [(i, j) for i, j in a if i != j]

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{diag.type_id}: check failed: {what}")

    def kills(entry, vec) -> bool:
        return all(sum(entry(i, j) * vec[j] for j, _ in diag.columns[i]) == 0 for i in range(num))

    # as many columns as marks, and no entry in a row past the last column
    require(len(diag.marks) == num and all(0 <= i < num for i, _ in a), "Cartan matrix is square")
    require(all(a.get((i, i)) == 2 for i in range(num)), "diagonal entries are 2")
    require(all(a[i, j] < 0 for i, j in bonds), "off-diagonal entries are nonpositive")
    require(all((j, i) in a for i, j in bonds), "zero pattern is symmetric")
    require(diag.is_connected(diag.vertices), "diagram is connected")
    require(kills(lambda i, j: a[i, j], diag.marks), "marks annihilate the Cartan rows")
    require(kills(lambda i, j: a[j, i], diag.comarks), "comarks annihilate the Cartan columns")
    require(math.gcd(*diag.marks) == 1, "marks are coprime")
    # before the comark of vertex 0, which once 1 would make them coprime
    require(math.gcd(*diag.comarks) == 1, "comarks are coprime")
    require(diag.comarks[0] == 1, "comark of vertex 0 is 1")
    half = diag._half_lengths
    require(all(a[i, j] * half[i] == a[j, i] * half[j] for i, j in bonds), "form is symmetric")
    require(all(x > 0 for x in half[1:]), "roots on vertices 1..n have positive length")
    # the form on vertices 1..n is diag(half) times the Cartan block, so
    # with positive lengths it is positive definite exactly when the block's
    # pivots are all positive; dropping vertex 0 suffices since the radical
    # is spanned by the marks, all nonzero.  The elimination is kept: every
    # root coefficient of a weight is solved along it.
    found = _eliminate(diag.columns)
    if isinstance(found, str):  # the message is built only on failure
        require(False, f"Cartan block on vertices 1..{diag.n} is of finite type ({found})")
    _set(diag, "_elimination", found)


@functools.lru_cache(maxsize=None)
def _build_cached(tid: AffineTypeId) -> AffineDiagram:
    columns, marks, comarks = _tables(tid)
    diag = AffineDiagram(
        type_id=tid,
        n=len(columns) - 1,
        columns=columns,
        marks=tuple(marks),
        comarks=tuple(comarks),
        root_length_sq=tuple(Fraction(2 * c, m) for c, m in zip(comarks, marks)),
    )
    _validate(diag)
    return diag


@functools.lru_cache(maxsize=None)
def build_affine(type_id) -> AffineDiagram:
    """Return the cached diagram for a type id or type string.

    Each argument is parsed once; a string and its parsed id share one
    diagram, and a malformed string, never cached, raises on every call.
    """
    return _build_cached(parse_type_id(type_id))


def _ints(what: str, values) -> tuple:
    """The values as a tuple, once each is exactly an int: not a bool."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {v!r}")
    return values


def _check_vertex(diagram: AffineDiagram, i) -> None:
    _ints("vertices", (i,))
    if i not in diagram.vertices:
        raise ValueError(f"no vertex {i} in {diagram}")


def _proper_connected(diagram: AffineDiagram, vertices) -> list:
    """The vertices, sorted, once they form a nonempty proper connected set."""
    k = sorted(set(_ints("vertices", vertices)))
    if not k:
        raise ValueError("empty vertex set")
    if any(v not in diagram.vertices for v in k):
        raise ValueError(f"vertices {k} out of range for {diagram}")
    if len(k) == diagram.n + 1:
        raise ValueError("subdiagram must be proper")
    if not diagram.is_connected(k):
        raise ValueError(f"vertex set {k} is not connected in {diagram}")
    return k


def classify_finite(diagram: AffineDiagram, vertices) -> FiniteType:
    """Finite Dynkin type of a nonempty proper connected subdiagram.

    Every such subdiagram is of finite type (Kac, ch. 4), so the type is read
    off its one multiple bond, if it has one, and otherwise off the arms of
    its branch vertex.  A bond i - j with a[i][j] < -1 has its short end at i.
    """
    k = _proper_connected(diagram, vertices)
    columns, adjacent = diagram.columns, diagram.adjacency
    inside = set(k)
    degree = {v: sum(1 for w in adjacent[v] if w in inside) for v in k}
    multiple = [(x, i, j) for j in k for i, x in columns[j] if i in inside and x < -1]
    if multiple:
        x, short, long = multiple[0]
        if x == -3:
            return FiniteType("G", 2)
        if degree[short] == degree[long] == 2:
            return FiniteType("F", 4)
        return FiniteType("B" if degree[short] == 1 else "C", len(k))
    branch = [v for v in k if degree[v] == 3]
    if not branch:
        return FiniteType("A", len(k))
    # D has two arms of length one at the branch vertex, E only one
    leaves = sum(1 for w in adjacent[branch[0]] if w in inside and degree[w] == 1)
    return FiniteType("D" if leaves >= 2 else "E", len(k))


def special_vertices(diagram: AffineDiagram) -> tuple:
    """Vertices i with mark one whose removal leaves a connected diagram on
    which delta minus the i-th simple root is the highest short root.

    With mark one, delta - alpha_i is a dominant vector of the rest's root
    lattice as long as alpha_i, and the rest's only dominant roots are the
    highest root and the highest short root; so i is special exactly when
    alpha_i is a shortest simple root and not the only one (README,
    criterion 7).
    """
    half = diagram._half_lengths
    shortest = min(half)
    if half.count(shortest) < 2:
        return ()
    return tuple(i for i, m in enumerate(diagram.marks) if m == 1 and half[i] == shortest)


_CATALOG = (
    "A1-1", "A2-1", "A3-1", "A4-1", "B3-1", "C2-1", "C3-1", "D4-1",
    "F4-1", "G2-1", "A2-2", "A4-2", "A5-2", "D3-2", "D4-2", "E6-2",
    "D4-3",
)


def catalog_types() -> tuple:
    """The types exercised by the verification suite, in fixed order."""
    return tuple(parse_type_id(s) for s in _CATALOG)

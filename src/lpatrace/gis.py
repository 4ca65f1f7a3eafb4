"""The graph inverse semigroup of a directed graph.

Nonzero elements are pairs p q* of paths with a common range, multiplied by
prefix matching:

    (p q*)(r s*) = (p t) s*   if r = q t,
                 = p (s t)*   if q = r t,
                 = 0          otherwise.

The involution swaps the two paths.  Every nonzero element is classified by
the conjugacy-type class it generates: a vertex class, the rotation class
of a closed word, the starred rotation class, or the zero class.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import (
    Graph,
    PathSeq,
    format_path,
    _least_rotation,
    _least_rotation_path,
    _remember,
)


class _GisZero:
    __slots__ = ()

    def __repr__(self):
        return "GIS_ZERO"


GIS_ZERO = _GisZero()


_tuple_new = tuple.__new__


class MonPair(namedtuple("MonPair", "p q")):
    """Normal form p q* of a nonzero graph-inverse-semigroup element.

    A named tuple of two `PathSeq`s with a common range, so hashing and
    equality run in C; it is equal to the plain tuple (p, q).  `_make` (and
    `_replace` through it) builds through `__new__`, so it checks the range.
    """

    __slots__ = ()

    def __new__(cls, p, q):
        if p.dst != q.dst:
            raise ValueError(f"ranges differ: {format_path(p)} vs {format_path(q)}")
        return _tuple_new(cls, (p, q))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self):
        return f"MonPair({format_path(self.p)}.{format_path(self.q)}')"


def gis_mul(a, b):
    """Product in the graph inverse semigroup; zero absorbs."""
    if a is GIS_ZERO or b is GIS_ZERO:
        return GIS_ZERO
    (p, q), (r, s) = a, b
    if q.src != r.src:
        return GIS_ZERO
    q_edges, r_edges = q.edges, r.edges
    n, m = len(q_edges), len(r_edges)
    # the products below share a range by construction, so they skip the check
    if n <= m:  # r = q t: (p t) s*
        if r_edges[:n] != q_edges:
            return GIS_ZERO
        pt = _tuple_new(PathSeq, (p.src, r.dst, p.edges + r_edges[n:]))
        return _tuple_new(MonPair, (pt, s))
    if q_edges[:m] != r_edges:  # q = r t: p (s t)*
        return GIS_ZERO
    st = _tuple_new(PathSeq, (s.src, q.dst, s.edges + q_edges[m:]))
    return _tuple_new(MonPair, (p, st))


def gis_star(a):
    """Semigroup inverse: p q* maps to q p*."""
    if a is GIS_ZERO:
        return GIS_ZERO
    return MonPair(a.q, a.p)


def approx_canonical(g: Graph, t: PathSeq) -> PathSeq:
    """Canonical rotation of a closed path (lexicographically least word).

    Two closed paths are rotation-equivalent iff their canonical forms are
    equal; a vertex is its own class.
    """
    if not t.is_closed:
        raise ValueError(f"path {format_path(t)} is not closed")
    return t if t.is_vertex else _least_rotation_path(g, t.edges)


# ---------------------------------------------------------------------------
# Class identifiers
# ---------------------------------------------------------------------------


class VertexClass(namedtuple("VertexClass", "v")):
    __slots__ = ()

    def __repr__(self):
        return f"[{self.v}]"


class CycleWord(namedtuple("CycleWord", "edges")):
    __slots__ = ()

    def __repr__(self):
        return f"[{'/'.join(self.edges)}]"


# the constant second field keeps CycleWordStar(w) != CycleWord(w): class
# ids of all kinds share the dicts of traces and minimal traces
class CycleWordStar(namedtuple("CycleWordStar", "edges star", defaults=("*",))):
    __slots__ = ()

    def __repr__(self):
        return f"[{'/'.join(self.edges)}*]"


class ZeroClass(namedtuple("ZeroClass", ())):
    __slots__ = ()

    def __bool__(self):  # a class id is truthy, though it has no fields
        return True

    def __repr__(self):
        return "[0]"


ZERO_CLASS = ZeroClass()


def classify_eq(g: Graph, a):
    """Class of an element under the conjugacy-type equivalence.

    p q* with p = q is a vertex class; with q a proper prefix of p it is
    the rotation class of the closing word; with p a proper prefix of q,
    the starred rotation class; incomparable pairs (and zero) fall in the
    zero class.  A rotation class is read from the graph's memo
    `g._rotations`, keyed by the closing word, plain or starred; only a
    word it lacks is rotated, and kept by `graphs._remember`.
    """
    if a is GIS_ZERO:
        return ZERO_CLASS
    p, q = a.p, a.q
    if p.src != q.src:  # neither path is a prefix of the other
        return ZERO_CLASS
    pe, qe = p.edges, q.edges
    n, m = len(pe), len(qe)
    if n > m:
        return _rotation_class(g, CycleWord, pe[m:]) if pe[:m] == qe else ZERO_CLASS
    if n < m:
        return _rotation_class(g, CycleWordStar, qe[n:]) if qe[:n] == pe else ZERO_CLASS
    return VertexClass(p.dst) if pe == qe else ZERO_CLASS


def _rotation_class(g: Graph, kind, word: tuple):
    """kind(least rotation of word), through the memo `g._rotations`."""
    key = kind, word
    cls = g._rotations.get(key)
    return _remember(g._rotations, key, kind(_least_rotation(word))) if cls is None else cls

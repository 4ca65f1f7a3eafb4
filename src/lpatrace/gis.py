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

from dataclasses import dataclass

from .graphs import (
    Graph,
    PathSeq,
    format_path,
    is_path_prefix,
    path_remainder,
    _least_rotation,
    _least_rotation_path,
)


class _GisZero:
    __slots__ = ()

    def __repr__(self):
        return "GIS_ZERO"


GIS_ZERO = _GisZero()


@dataclass(frozen=True)
class MonPair:
    """Normal form p q* of a nonzero graph-inverse-semigroup element."""

    p: PathSeq
    q: PathSeq

    def __post_init__(self):
        if self.p.dst != self.q.dst:
            raise ValueError(
                f"ranges differ: {format_path(self.p)} vs {format_path(self.q)}"
            )

    def __repr__(self):
        return f"MonPair({format_path(self.p)}.{format_path(self.q)}')"


def gis_mul(a, b):
    """Product in the graph inverse semigroup; zero absorbs."""
    if a is GIS_ZERO or b is GIS_ZERO:
        return GIS_ZERO
    p, q, r, s = a.p, a.q, b.p, b.q
    if is_path_prefix(q, r):
        t = path_remainder(q, r)
        return MonPair(PathSeq(p.src, t.dst, p.edges + t.edges), s)
    if is_path_prefix(r, q):
        t = path_remainder(r, q)
        return MonPair(p, PathSeq(s.src, t.dst, s.edges + t.edges))
    return GIS_ZERO


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


@dataclass(frozen=True)
class VertexClass:
    v: str

    def __repr__(self):
        return f"[{self.v}]"


@dataclass(frozen=True)
class CycleWord:
    edges: tuple

    def __repr__(self):
        return f"[{'/'.join(self.edges)}]"


@dataclass(frozen=True)
class CycleWordStar:
    edges: tuple

    def __repr__(self):
        return f"[{'/'.join(self.edges)}*]"


@dataclass(frozen=True)
class ZeroClass:
    def __repr__(self):
        return "[0]"


ZERO_CLASS = ZeroClass()


def classify_eq(g: Graph, a):
    """Class of an element under the conjugacy-type equivalence.

    p q* with p = q is a vertex class; with q a proper prefix of p it is
    the rotation class of the closing word; with p a proper prefix of q,
    the starred rotation class; incomparable pairs (and zero) fall in the
    zero class.
    """
    if a is GIS_ZERO:
        return ZERO_CLASS
    p, q = a.p, a.q
    if p == q:
        return VertexClass(p.dst)
    if is_path_prefix(q, p):
        return CycleWord(_least_rotation(p.edges[len(q.edges):]))
    if is_path_prefix(p, q):
        return CycleWordStar(_least_rotation(q.edges[len(p.edges):]))
    return ZERO_CLASS

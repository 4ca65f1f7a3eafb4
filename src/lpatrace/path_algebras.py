"""Cohn and Leavitt path algebras over a finite graph.

The Cohn algebra is the contracted semigroup ring of the graph inverse
semigroup: elements are finite scalar combinations of monomials p q*.  The
Leavitt algebra is its quotient by the relations

    v = sum of e e* over the edges e leaving a regular vertex v.

Computation in the quotient uses a canonical basis: fix one "special"
outgoing edge per regular vertex, and rewrite every monomial whose two
paths share the special edge of its source as their final edge:

    (p f)(q f)*  ->  p q*  -  sum over e != f of (p e)(q e)*.

The rule strictly shortens the first branch and produces only non-redex
siblings, so it terminates; the quotient structure makes the normal form
independent of rewrite order, which the test suite checks by randomizing
redex order and by comparing verdicts under two different special-edge
choices.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .gis import GIS_ZERO, MonPair, gis_mul
from .graphs import (
    Graph,
    PathSeq,
    edge_path,
    format_path,
    path_sort_key,
    vertex_path,
)
from .scalars import (
    FieldElem,
    IDENTITY,
    Q,
    check_involution,
    fe,
    fe_one,
    field_star,
    format_scalar,
    parse_scalar,
)

COHN = "cohn"
LEAVITT = "leavitt"
MODES = (COHN, LEAVITT)


class PathAlgebra:
    """Algebra context: graph, coefficient field, involution, and mode.

    Elements are tied to the context that made them; operations between
    elements of different contexts are rejected.
    """

    def __init__(self, graph: Graph, field=Q, involution=IDENTITY,
                 mode=LEAVITT, special_edges=None, degree_cap=64):
        check_involution(field, involution)
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.graph = graph
        self.field = field
        self.involution = involution
        self.mode = mode
        self.degree_cap = degree_cap
        if special_edges is None:
            special_edges = {
                v: min(graph.out_edges[v])
                for v in graph.vertices
                if graph.out_edges[v]
            }
        else:
            special_edges = dict(special_edges)
            for v, e in special_edges.items():
                if not graph.is_edge(e) or graph.edge_src[e] != v:
                    raise ValueError(f"special edge {e!r} does not leave {v!r}")
        self.special_edges = special_edges
        self._nf_cache = {}

    def __repr__(self):
        return f"PathAlgebra({self.mode}, {self.field}, {self.involution})"

    # -- element constructors ------------------------------------------------

    def scalar(self, c) -> FieldElem:
        if isinstance(c, FieldElem):
            if c.field != self.field:
                raise ValueError(f"scalar field {c.field} != {self.field}")
            return c
        return fe(c, 0, self.field)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        """Sum of all vertices: the identity, the graph being finite."""
        one = fe_one(self.field)
        return self._make({self._vertex_mon(v): one for v in self.graph.vertices})

    def vertex(self, v: str) -> "AlgebraElement":
        return self._make({self._vertex_mon(v): fe_one(self.field)})

    def path(self, edge_ids) -> "AlgebraElement":
        p = edge_path(self.graph, edge_ids)
        return self.monomial(p, vertex_path(self.graph, p.dst))

    def monomial(self, p: PathSeq, q: PathSeq, coeff=1) -> "AlgebraElement":
        self._check_path(p)
        self._check_path(q)
        c = self.scalar(coeff)
        return self._make({MonPair(p, q): c})

    def from_terms(self, mapping) -> "AlgebraElement":
        """Element from a {MonPair: coefficient} mapping (normalized per mode)."""
        raw = {}
        for mon, c in mapping.items():
            self._check_path(mon.p)
            self._check_path(mon.q)
            raw[mon] = self.scalar(c)
        return self._make(raw)

    def _vertex_mon(self, v: str) -> MonPair:
        vp = vertex_path(self.graph, v)
        return MonPair(vp, vp)

    def _check_path(self, p: PathSeq) -> None:
        if p.is_vertex:
            if not self.graph.is_vertex(p.src):
                raise ValueError(f"unknown vertex {p.src!r}")
            return
        rebuilt = edge_path(self.graph, p.edges)
        if rebuilt != p:
            raise ValueError(f"path {format_path(p)} is not a path of this graph")

    def _make(self, raw) -> "AlgebraElement":
        if self.mode == LEAVITT:
            return AlgebraElement(self, self.normalize_terms(raw))
        return AlgebraElement(self, {m: c for m, c in raw.items() if c})

    # -- the rewriting system ------------------------------------------------

    def redex_edge(self, mon: MonPair):
        """The shared final special edge of a redex monomial, or None."""
        p, q = mon.p, mon.q
        if not p.edges or not q.edges:
            return None
        f = p.edges[-1]
        if q.edges[-1] != f:
            return None
        return f if self.special_edges.get(self.graph.edge_src[f]) == f else None

    def rewrite_step(self, mon: MonPair):
        """One application of the rule at a redex; {monomial: integer coeff}."""
        f = self.redex_edge(mon)
        if f is None:
            raise ValueError("monomial is not a redex")
        g = self.graph
        v = g.edge_src[f]
        p0 = PathSeq(mon.p.src, v, mon.p.edges[:-1])
        q0 = PathSeq(mon.q.src, v, mon.q.edges[:-1])
        out = {MonPair(p0, q0): 1}
        for e in g.out_edges[v]:
            if e == f:
                continue
            w = g.edge_dst[e]
            sibling = MonPair(
                PathSeq(p0.src, w, p0.edges + (e,)),
                PathSeq(q0.src, w, q0.edges + (e,)),
            )
            out[sibling] = out.get(sibling, 0) - 1
        return out

    def _nf(self, mon: MonPair):
        """Canonical expansion of a monomial: {canonical monomial: int}.

        Every monomial met on the way is cached.  The rewrite tree is walked
        with an explicit stack, children before parents, so long redexes
        cannot exhaust the interpreter's recursion limit.
        """
        cache = self._nf_cache
        cached = cache.get(mon)
        if cached is not None:
            return cached
        stack = [(mon, None)]  # (monomial, its rewrite step once expanded)
        while stack:
            top, step = stack.pop()
            if top in cache:
                continue
            if step is None:
                if self.redex_edge(top) is None:
                    cache[top] = {top: 1}
                    continue
                step = self.rewrite_step(top)
                stack.append((top, step))
                stack.extend((m, None) for m in step if m not in cache)
                continue
            result = {}
            for m, k in step.items():
                if k == 1 and not result:
                    # a plain copy keeps the stored key hashes; rehashing the
                    # long paths of a deep redex would cost O(length) a key
                    result = dict(cache[m])
                    continue
                for m2, k2 in cache[m].items():
                    acc = result.get(m2, 0) + k * k2
                    if acc:
                        result[m2] = acc
                    else:
                        result.pop(m2, None)
            cache[top] = result
        return cache[mon]

    def normalize_terms(self, raw):
        """Rewrite a raw {MonPair: FieldElem} support to canonical form."""
        out = {}
        for mon, c in raw.items():
            if not c:
                continue
            for m, k in self._nf(mon).items():
                add = c * k
                acc = out.get(m)
                acc = add if acc is None else acc + add
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return out


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A finitely supported combination of monomials p q*, canonical per mode.

    Equality and hashing ignore the order of the terms; `format_element`
    writes them in path order.
    """

    algebra: PathAlgebra
    terms: dict  # {MonPair: FieldElem}, no zeros

    def _check(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m)
            v = c if v is None else v + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return AlgebraElement(self.algebra, acc)

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self._scaled(other)
        self._check(other)
        alg = self.algebra
        cap = alg.degree_cap
        raw = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = gis_mul(m1, m2)
                if prod is GIS_ZERO:
                    continue
                if len(prod.p.edges) + len(prod.q.edges) > cap:
                    raise PreconditionError(
                        f"product monomial exceeds degree cap {cap}"
                    )
                c = c1 * c2
                raw[prod] = raw[prod] + c if prod in raw else c
        return alg._make(raw)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c) -> "AlgebraElement":
        c = self.algebra.scalar(c)
        if not c:
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __repr__(self):
        return f"AlgebraElement({format_element(self)})"


# -- operations on elements -------------------------------------------------


def alg_star(x: AlgebraElement) -> AlgebraElement:
    """(sum a p q*)^* = sum a^* q p*."""
    alg = x.algebra
    raw = {}
    for m, c in x.terms.items():
        raw[MonPair(m.q, m.p)] = field_star(c, alg.involution)
    return alg._make(raw)


def alg_commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y - y * x


def transfer(x: AlgebraElement, target: PathAlgebra) -> AlgebraElement:
    """Reinterpret an element's raw support in another algebra (same graph)."""
    if target.graph is not x.algebra.graph:
        raise ValueError("transfer requires the same underlying graph")
    return target.from_terms(x.terms)


# ---------------------------------------------------------------------------
# Element expressions
# ---------------------------------------------------------------------------

_TOKEN_SCALAR = _re.compile(r"\d+(?:/\d+)?(?:[+-]\d+(?:/\d+)?i|i)?")
_TOKEN_ID = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _TOKEN_SCALAR.match(text, i)
            tokens.append(("scalar", m.group()))
            i = m.end()
            continue
        m = _TOKEN_ID.match(text, i)
        if m:
            tokens.append(("id", m.group()))
            i = m.end()
            continue
        if ch in "+-*.'/":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in expression")
    return tokens


class _ExprParser:
    def __init__(self, tokens, algebra: PathAlgebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.raw = {}  # {MonPair: FieldElem}, the terms read so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> AlgebraElement:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        self.term(sign)
        while self.pos < len(self.tokens):
            kind, val = self.take()
            if kind != "op" or val not in "+-":
                raise ParseError(f"expected + or - before {val!r}")
            self.term(-1 if val == "-" else 1)
        return self.algebra._make(self.raw)

    def term(self, sign: int) -> None:
        alg = self.algebra
        kind, val = self.peek()
        if kind is None:
            raise ParseError("expected a term")
        if kind == "scalar":
            self.take()
            coeff = sign * parse_scalar(val, alg.field)
            kind, val = self.peek()
            if kind != "op" or val != "*":
                # a bare scalar means that multiple of the identity
                for v in alg.graph.vertices:
                    self.add(alg._vertex_mon(v), coeff)
                return
            self.take()
        else:
            coeff = alg.scalar(sign)
        self.add(self.mono(), coeff)

    def add(self, mon: MonPair, c: FieldElem) -> None:
        raw = self.raw
        raw[mon] = raw[mon] + c if mon in raw else c

    def mono(self) -> MonPair:
        p = self.path()
        g = self.algebra.graph
        kind, val = self.peek()
        if kind == "op" and val == ".":
            self.take()
            q = self.path()
            kind, val = self.take()
            if kind != "op" or val != "'":
                raise ParseError("expected ' to close a p.q' monomial")
            try:
                return MonPair(p, q)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        if kind == "op" and val == "'":
            self.take()
            return MonPair(vertex_path(g, p.dst), p)
        return MonPair(p, vertex_path(g, p.dst))

    def path(self) -> PathSeq:
        kind, val = self.take()
        if kind != "id":
            raise ParseError(f"expected an id, got {val!r}")
        ids = [val]
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "/":
                self.take()
                kind, val = self.take()
                if kind != "id":
                    raise ParseError(f"expected an id after '/', got {val!r}")
                ids.append(val)
            else:
                break
        g = self.algebra.graph
        if len(ids) == 1 and g.is_vertex(ids[0]):
            return vertex_path(g, ids[0])
        for name in ids:
            if not g.is_edge(name):
                raise ParseError(f"unknown edge {name!r} in path")
        try:
            return edge_path(g, ids)
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def parse_element(text: str, algebra: PathAlgebra) -> AlgebraElement:
    """Parse the element grammar: terms of `[scalar *] mono` joined by +/-.

    `p.q'` is the monomial p q*, `q'` alone is r(q) q*, a bare path is the
    path itself, and a bare scalar is that multiple of the identity.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _ExprParser(tokens, algebra).parse()


def format_element(x: AlgebraElement) -> str:
    if not x.terms:
        return "0"
    pieces = []
    for m, c in sorted(
        x.terms.items(),
        key=lambda t: (path_sort_key(t[0].p), path_sort_key(t[0].q)),
    ):
        if m.p == m.q and m.p.is_vertex:
            body = m.p.src
        elif m.q.is_vertex:
            body = format_path(m.p)
        elif m.p.is_vertex:
            body = f"{format_path(m.q)}'"
        else:
            body = f"{format_path(m.p)}.{format_path(m.q)}'"
        negative = c.re < 0 or (c.re == 0 and c.im < 0)
        coeff = format_scalar(-c if negative else c)
        text = body if coeff == "1" else f"{coeff}*{body}"
        pieces.append(("-" if negative else "+", text))
    sign, text = pieces[0]
    out = ("-" if sign == "-" else "") + text
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out

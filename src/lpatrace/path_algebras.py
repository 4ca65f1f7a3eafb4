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

Two closure facts spare canonical elements most of the rewriting:

- A product (p q*)(r s*) of canonical monomials is canonical unless q = r.
  Proof: if r = q t with t nonempty, (p t) s* ends in the final edges of r
  and s, so it is a redex exactly when r s* is; q = r t is symmetric.
- The star q p* of a canonical p q* is canonical.  Proof: the redex test
  reads the final edges of p and q alike.

So a product rewrites only the products of its pairs with q = r, and a
star rewrites nothing.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .gis import GIS_ZERO, MonPair, gis_mul, gis_star
from .graphs import (
    Graph,
    PathSeq,
    _ID,
    _MEMO_CAP,
    edge_path,
    format_path,
    path_sort_key,
    vertex_path,
)
from .scalars import (
    FieldElem,
    IDENTITY,
    Q,
    SparseTerms,
    _SCALAR,
    _coerce,
    _scalar_value,
    add_terms,
    check_involution,
    fe_one,
    field_star,
    format_scalar,
)

COHN = "cohn"
LEAVITT = "leavitt"
MODES = (COHN, LEAVITT)

# Most edge ids in one monomial p q* that a product may build.
DEGREE_CAP = 64


class PathAlgebra:
    """Algebra context: graph, coefficient field, involution, and mode.

    Elements are tied to the context that made them; operations between
    elements of different contexts are rejected.  A regular vertex's special
    out-edge is its least one, unless `special_edges` names another.

    Two private memos spare a warm context repeated work.  `_expansions`
    maps a monomial that `_canonical_terms` expanded to its canonical
    expansion, a tuple of (MonPair, 1 or -1) pairs; `_scalars` maps a
    (sign, scalar text) pair that `parse_element` read to its signed
    FieldElem.  Each stores only on a miss, while it holds fewer than
    `_MEMO_CAP` (1,024) entries, and never a scalar that failed.  Neither
    changes what a public attribute holds, so the context is fixed once
    built, and a deep copy is the context itself; a pickle carries both.
    """

    def __init__(self, graph: Graph, field=Q, involution=IDENTITY,
                 mode=LEAVITT, special_edges=None):
        check_involution(field, involution)
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.graph = graph
        self.field = field
        self.involution = involution
        self.mode = mode
        self.special_edges = {v: min(es) for v, es in graph.out_edges.items() if es}
        for v, e in dict(special_edges or {}).items():
            if not graph.is_edge(e) or graph.edge_src[e] != v:
                raise ValueError(f"special edge {e!r} does not leave {v!r}")
            self.special_edges[v] = e
        self._expansions = {}
        self._scalars = {}

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return f"PathAlgebra({self.mode}, {self.field}, {self.involution})"

    # -- element constructors ------------------------------------------------

    def scalar(self, c) -> FieldElem:
        return _coerce(c, self.field)

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
        g = self.graph
        rebuilt = vertex_path(g, p.src) if p.is_vertex else edge_path(g, p.edges)
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
        """One application of the rule at a redex (p f)(q f)*; {monomial: int}.

        The first key is the shorter monomial p q* with coefficient 1; every
        other key is a sibling (p e)(q e)*, e not special, which is not a
        redex, with coefficient -1.
        """
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
            out[sibling] = -1
        return out

    def _nf(self, mon: MonPair):
        """Canonical expansion of a monomial: {canonical monomial: 1 or -1}.

        By rewrite_step's invariant the expansion is one chain of steps:
        each keeps its siblings and goes on from its shorter monomial.  The
        siblings of different steps differ in length, so none repeat.
        """
        out, top = {}, mon
        while self.redex_edge(top) is not None:
            step = iter(self.rewrite_step(top).items())
            top, _ = next(step)
            out.update(step)
        out[top] = 1
        return out

    def normalize_terms(self, raw):
        """Rewrite a raw {MonPair: FieldElem} support to canonical form."""
        return self._canonical_terms(raw, raw)

    def _canonical_terms(self, raw, suspects):
        """The canonical form of `raw` when only its keys in `suspects` can
        be redexes: those expand by `_nf`, read from `_expansions` once it
        holds them, and the others are added as they are.  One walk of
        `raw`, in insertion order, drops zeros as it goes."""
        out = {}
        expansions = self._expansions
        for mon, c in raw.items():
            if not c:
                continue
            if mon in suspects:
                nf = expansions.get(mon)
                if nf is None:
                    nf = tuple(self._nf(mon).items())
                    if len(expansions) < _MEMO_CAP:
                        expansions[mon] = nf
                add_terms(out, ((m, c if k == 1 else -c) for m, k in nf))
            elif mon in out:  # an earlier expansion reached it
                add_terms(out, ((mon, c),))
            else:
                out[mon] = c
        return out


class AlgebraElement(SparseTerms):
    """A finitely supported combination of monomials p q*, canonical per mode.

    `terms` maps MonPair to FieldElem; `format_element` writes them in path
    order.
    """

    __slots__ = ()
    algebra = SparseTerms._context
    _MIXED = "elements belong to different algebras"

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.scale(self.algebra.scalar(other))
        self._check(other)
        alg = self.algebra
        leavitt = alg.mode == LEAVITT
        raw = {}
        meets = set()  # products of pairs with q = r: the only possible redexes
        for m1, c1 in self.terms.items():
            q = m1.q
            for m2, c2 in other.terms.items():
                prod = gis_mul(m1, m2)
                if prod is GIS_ZERO:
                    continue
                if len(prod.p.edges) + len(prod.q.edges) > DEGREE_CAP:
                    raise PreconditionError(
                        f"product monomial exceeds degree cap {DEGREE_CAP}"
                    )
                if leavitt and m2.p == q:
                    meets.add(prod)
                c = c1 * c2
                raw[prod] = raw[prod] + c if prod in raw else c
        return AlgebraElement(alg, alg._canonical_terms(raw, meets))

    __rmul__ = __mul__  # scalars are central

    def __repr__(self):
        return f"AlgebraElement({format_element(self)})"


# -- operations on elements -------------------------------------------------


def alg_star(x: AlgebraElement) -> AlgebraElement:
    """(sum a p q*)^* = sum a^* q p*, canonical as its terms stand."""
    alg = x.algebra
    inv = alg.involution
    return AlgebraElement(
        alg, {gis_star(m): field_star(c, inv) for m, c in x.terms.items()})


def transfer(x: AlgebraElement, target: PathAlgebra) -> AlgebraElement:
    """Reinterpret an element's raw support in another algebra (same graph)."""
    if target.graph is not x.algebra.graph:
        raise ValueError("transfer requires the same underlying graph")
    return target.from_terms(x.terms)


# ---------------------------------------------------------------------------
# Element expressions
# ---------------------------------------------------------------------------

# The token grammar: a scalar (`scalars._SCALAR`), an id (`graphs._ID`),
# or one of `+ - * . ' /`, with whitespace allowed between any two tokens.
# Any other character is an error, found before any grammar error.
_PATH = rf"{_ID}(?:\s*/\s*{_ID})*"
_BAD_CHAR_RE = _re.compile(r"[^\s0-9A-Za-z_+\-*.'/]")
_TOKEN_RE = _re.compile(rf"\s*({_SCALAR}|{_ID}|\S)?")
# one term, read as far as it is well formed: sign, scalar, `*`, p, `.`, q
# and `'`, each optional.  What follows a token can always match empty, so
# each token reads as it would alone, and only one run of whitespace is
# ever read twice: a `/` starts each repetition in a path.
_TERM_RE = _re.compile(
    rf"\s*([+-]?)\s*(?:({_SCALAR})\s*(\*?)\s*)?"
    rf"(?:({_PATH})\s*(?:(?P<dot>\.)\s*(?:({_PATH})\s*)?)?('?)\s*)?"
)


def _token(text: str, pos: int):
    """The next token at or after `pos`, or None at the end of the text."""
    return _TOKEN_RE.match(text, pos)[1]


def _path(g: Graph, text: str) -> PathSeq:
    """The path of `id[/id]...` text, read once per graph: `g._paths` keeps
    each text that resolved, while it holds fewer than `_MEMO_CAP`.  The
    memo serves almost every lookup, so a miss can afford `_read_path`'s
    one path check, `edge_path`."""
    p = g._paths.get(text)
    if p is None:
        p = _read_path(g, text)
        if len(g._paths) < _MEMO_CAP:
            g._paths[text] = p
    return p


def _read_path(g: Graph, text: str) -> PathSeq:
    """The path of `id[/id]...` text: one vertex id or composable edge ids."""
    ids = "".join(text.split()).split("/")
    if len(ids) == 1 and ids[0] in g.out_edges:
        return PathSeq(ids[0], ids[0], ())
    for eid in ids:
        if eid not in g.edge_src:
            raise ParseError(f"unknown edge {eid!r} in path")
    try:
        return edge_path(g, ids)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _path_ends(text: str, pos: int) -> None:
    """Reject a `/` at `pos`, where the regex stopped: no id follows it."""
    if text.startswith("/", pos):
        raise ParseError(f"expected an id after '/', got {_token(text, pos + 1)!r}")


def parse_element(text: str, algebra: PathAlgebra) -> AlgebraElement:
    """Parse the element grammar: terms of `[scalar *] mono` joined by +/-.

    `p.q'` is the monomial p q*, `q'` alone is r(q) q*, a bare path is the
    path itself, and a bare scalar is that multiple of the identity.  Each
    term is one match of `_TERM_RE`; where the match stops short, the next
    token names the error, and the checks run in reading order.  A signed
    scalar text is converted once per context and kept in `_scalars`.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in expression")
    if not text or text.isspace():
        raise ParseError("empty expression")
    g, one, scalars = algebra.graph, fe_one(algebra.field), algebra._scalars
    raw = {}  # {MonPair: FieldElem}, the terms read so far
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, scalar, *parts, star, p, dot, q, prime = m.groups()
        if pos and not sign:  # after the first term, a sign starts each one
            raise ParseError(f"expected + or - before {_token(text, pos)!r}")
        if scalar:
            c = scalars.get((sign, scalar))
            if c is None:
                c = _scalar_value(*parts, algebra.field, scalar, scalar)
                c = -c if sign == "-" else c
                if len(scalars) < _MEMO_CAP:
                    scalars[(sign, scalar)] = c
        else:
            c = -one if sign == "-" else one
        pos = m.end()
        if scalar and not star:  # a bare scalar means that multiple of the identity
            if p:
                raise ParseError(f"expected + or - before {_token(text, m.end(2))!r}")
            add_terms(raw, ((algebra._vertex_mon(v), c) for v in g.vertices))
            continue
        if not p:
            got = _token(text, pos)
            raise ParseError(f"expected an id, got {got!r}" if scalar or got
                             else "expected a term")
        if not (dot or prime):
            _path_ends(text, pos)
        p = _path(g, p)
        if dot:
            if not q:
                raise ParseError(f"expected an id, got {_token(text, m.end('dot'))!r}")
            if not prime:
                _path_ends(text, pos)
            q = _path(g, q)
            if not prime:
                raise ParseError("expected ' to close a p.q' monomial")
            try:
                mon = MonPair(p, q)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        else:
            r = PathSeq(p.dst, p.dst, ())
            mon = MonPair(r, p) if prime else MonPair(p, r)
        add_terms(raw, ((mon, c),))
    return algebra._make(raw)


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

"""Shared fixtures: graph corpus, semigroup fixtures, seeded randomness.

Set LPA_SEED to change the sampling seed for every randomized property test.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from lpatrace.gis import MonPair
from lpatrace.graphs import PathSeq, parse_graph, path_sort_key, vertex_path
from lpatrace.scalars import QI, FieldElem, Q, fe_one, fe_zero
from lpatrace.semigroups import (
    build_semigroup,
    central_map,
    endo_semigroup,
    group_with_zero,
    matrix_units_semigroup,
    sg_element,
    sim_classes,
)
from lpatrace.traces import trace_spec, vertex_trace_space

SEED = int(os.environ.get("LPA_SEED", "20240901"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def fresh_rng(offset=0):
    return random.Random(SEED + offset)


# ---------------------------------------------------------------------------
# Graph corpus
# ---------------------------------------------------------------------------

GRAPH_TEXTS = {
    "line2": "v a\nv b\ne f a b",
    "line3": "v a\nv b\nv c\ne f a b\ne g b c",
    "tree": "v a\nv b\nv c\ne f a b\ne g a c",
    "one_loop": "v v\ne e v v",
    "two_cycle": "v u\nv w\ne e1 u w\ne e2 w u",
    "rose2": "v v\ne e v v\ne f v v",
    "tail_loop": "v a\nv v\ne t a v\ne e v v",
    "loop_exit": "v v\nv b\ne e v v\ne x v b",
    "disjoint": "v a\nv b\nv v\ne f a b\ne e v v",
    "mixed": "v a\nv b\nv c\ne f a b\ne g a c\nv u\nv w\ne e1 u w\ne e2 w u",
}

GRAPHS = {name: parse_graph(text) for name, text in GRAPH_TEXTS.items()}

# six graphs for the inverse-semigroup law corpus
GIS_CORPUS = ["line2", "line3", "tree", "one_loop", "two_cycle", "rose2"]

# ten-graph catalog for the faithful-trace criterion
CATALOG10 = list(GRAPH_TEXTS)

NO_EXIT_NAMES = [
    "line2", "line3", "tree", "one_loop", "two_cycle",
    "tail_loop", "disjoint", "mixed",
]


@pytest.fixture
def graphs():
    return GRAPHS


# ---------------------------------------------------------------------------
# Semigroup fixtures
# ---------------------------------------------------------------------------


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(k):
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(k))] for q in perms]
        for p in perms
    ]


def _right_zero_with_zero():
    # nonzero part is the two-element right-zero semigroup: xy = y
    return build_semigroup([[0, 0, 0], [0, 1, 2], [0, 1, 2]], 0)


# read-only, so that no test can change what another one iterates over
SEMIGROUPS = MappingProxyType({
    "trivial": build_semigroup([[0]], 0),
    "two_elem": build_semigroup([[0, 0], [0, 1]], 0),
    "right_zero": _right_zero_with_zero(),
    "mu1": matrix_units_semigroup(1),
    "mu2": matrix_units_semigroup(2),
    "mu3": matrix_units_semigroup(3),
    "mu4": matrix_units_semigroup(4),
    "c2": group_with_zero(cyclic_group_table(2)),
    "c3": group_with_zero(cyclic_group_table(3)),
    "s3": group_with_zero(symmetric_group_table(3)),
    "endo1": endo_semigroup(1),
    "endo2": endo_semigroup(2),
    "endo3": endo_semigroup(3),
})


@functools.cache
def endo4_semigroup():
    """The maps of a 4-element set with an adjoined zero (257 elements),
    built once; tests that want it next to `SEMIGROUPS` name it explicitly."""
    return endo_semigroup(4)


@pytest.fixture
def semigroups():
    return SEMIGROUPS


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def random_scalar(rng, field=Q, nonzero=False):
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(0)
        if field == QI and rng.random() < 0.5:
            im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        val = FieldElem(re, im, field)
        if val or not nonzero:
            return val


def all_paths_up_to(g, max_len):
    """All paths of length <= max_len, in (length, edge word) order."""
    out = [vertex_path(g, v) for v in g.vertices]
    layer = list(out)
    for _ in range(max_len):
        nxt = []
        for p in layer:
            for eid in g.out_edges[p.dst]:
                nxt.append(PathSeq(p.src, g.edge_dst[eid], p.edges + (eid,)))
        out.extend(nxt)
        layer = nxt
        if not layer:
            break
    out.sort(key=path_sort_key)
    return out


def random_path(g, rng, max_len=3):
    p = vertex_path(g, rng.choice(g.vertices))
    for _ in range(rng.randrange(max_len + 1)):
        outs = g.out_edges[p.dst]
        if not outs:
            break
        e = rng.choice(outs)
        p = PathSeq(p.src, g.edge_dst[e], p.edges + (e,))
    return p


def random_path_into(g, rng, dst, max_len=3):
    p = vertex_path(g, dst)
    for _ in range(rng.randrange(max_len + 1)):
        ins = g.in_edges[p.src]
        if not ins:
            break
        e = rng.choice(ins)
        p = PathSeq(g.edge_src[e], dst, (e,) + p.edges)
    return p


def random_monpair(g, rng, max_len=3):
    p = random_path(g, rng, max_len)
    q = random_path_into(g, rng, p.dst, max_len)
    return MonPair(p, q)


def random_raw_terms(g, rng, field=Q, n_terms=3, max_len=3):
    raw = {}
    for _ in range(rng.randint(1, n_terms)):
        mon = random_monpair(g, rng, max_len)
        c = random_scalar(rng, field, nonzero=True)
        raw[mon] = raw[mon] + c if mon in raw else c
    return raw


def random_element(algebra, rng, n_terms=3, max_len=3):
    return algebra.from_terms(
        random_raw_terms(algebra.graph, rng, algebra.field, n_terms, max_len)
    )


def random_nonzero_element(algebra, rng, n_terms=3, max_len=3):
    while True:
        x = random_element(algebra, rng, n_terms, max_len)
        if x:
            return x


def random_sg_element(G, rng, field=Q, n_terms=3):
    mapping = {}
    for _ in range(rng.randint(1, n_terms)):
        idx = rng.randrange(G.size)
        c = random_scalar(rng, field, nonzero=True)
        mapping[idx] = mapping[idx] + c if idx in mapping else c
    return sg_element(G, mapping, field)


def sim_classes_reference(G):
    """The classes of ~ as connected components of the graph with an edge
    ab - ba for every pair (a, b): sorted tuples, ordered by least member."""
    adjacent = {x: set() for x in range(G.size)}
    for a, b in itertools.product(range(G.size), repeat=2):
        u, v = G.mul(a, b), G.mul(b, a)
        adjacent[u].add(v)
        adjacent[v].add(u)
    classes, seen = [], set()
    for x in range(G.size):
        if x not in seen:
            component, frontier = {x}, [x]
            while frontier:
                for y in adjacent[frontier.pop()] - component:
                    component.add(y)
                    frontier.append(y)
            seen |= component
            classes.append(tuple(sorted(component)))
    return tuple(classes)


def sim_witness_chain_reference(G, g, h):
    """Breadth-first search over the adjacency of every pair (a, b) in
    row-major order, each step ab -> ba keeping its first (a, b): the
    shortest chain of (a, b) witnesses from g to h, [] if g == h, or None."""
    if g == h:
        return []
    adjacency = {}
    for a, b in itertools.product(range(G.size), repeat=2):
        adjacency.setdefault(G.mul(a, b), {}).setdefault(G.mul(b, a), (a, b))
    parent = {g: None}
    frontier = [g]
    while frontier:
        nxt = []
        for u in frontier:
            for v, witness in adjacency.get(u, {}).items():
                if v not in parent:
                    parent[v] = (u, witness)
                    nxt.append(v)
        if h in parent:
            chain = []
            while parent[h] is not None:
                h, witness = parent[h]
                chain.append(witness)
            return chain[::-1]
        frontier = nxt
    return None


def random_central_map(G, rng, field=Q):
    part = sim_classes(G)
    per_class = {cid: random_scalar(rng, field) for cid in part.nonzero_class_ids}
    zero = fe_zero(field)
    values = tuple(
        zero if part.class_of[i] == part.zero_class_id
        else per_class[part.class_of[i]]
        for i in range(G.size)
    )
    return central_map(G, values, field)


def random_validated_spec(g, rng, field=Q, involution="identity", max_cycle_len=3):
    """A spec satisfying the vertex constraint, with random cycle values."""
    from lpatrace.graphs import closed_paths_up_to

    space = vertex_trace_space(g, field)
    vertex_values = {v: fe_zero(field) for v in g.vertices}
    for assignment in space.assignments():
        c = random_scalar(rng, field)
        for v, val in assignment.items():
            vertex_values[v] = vertex_values[v] + c * val
    words = sorted(p.edges for p in closed_paths_up_to(g, max_cycle_len))
    cycle_values = {}
    star_values = {}
    for word in words:
        if rng.random() < 0.6:
            cycle_values[word] = random_scalar(rng, field)
        if rng.random() < 0.6:
            star_values[word] = random_scalar(rng, field)
    return trace_spec(
        g, field, involution,
        vertex_values=vertex_values,
        cycle_values=cycle_values,
        cycle_star_values=star_values,
    )


def randomized_normalize(A, raw, rng):
    """Apply redex rewrites in random order; must agree with from_terms."""
    terms = {}
    for mon, c in raw.items():
        if c:
            terms[mon] = terms.get(mon, A.scalar(0)) + c
    while True:
        redexes = sorted(
            (m for m in terms if A.redex_edge(m) is not None),
            key=lambda m: (len(m.p.edges), m.p.edges, m.q.edges),
        )
        if not redexes:
            return {m: c for m, c in terms.items() if c}
        mon = rng.choice(redexes)
        coeff = terms.pop(mon)
        for m, k in A.rewrite_step(mon).items():
            terms[m] = terms.get(m, A.scalar(0)) + coeff * k


# ---------------------------------------------------------------------------
# The brute-force commutator-span oracle
# ---------------------------------------------------------------------------


class SpanBasis:
    """Incrementally built row-echelon basis of a span of sparse vectors.

    Vectors are dicts {index: FieldElem} with orderable index keys.  Rows
    are kept normalized with leading coefficient 1, keyed by their leading
    (smallest) index.
    """

    def __init__(self, field):
        self.field = field
        self._rows = {}

    def _reduce(self, vec):
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                return vec
            factor = vec[lead]
            for k, v in row.items():
                new = vec.get(k, fe_zero(self.field)) - factor * v
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        rem = self._reduce(vec)
        if not rem:
            return False
        lead = min(rem)
        inv = fe_one(self.field) / rem[lead]
        self._rows[lead] = {k: v * inv for k, v in rem.items()}
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    @property
    def dim(self) -> int:
        return len(self._rows)


def commutator_span_oracle(G, field=Q):
    """Row-echelon span of all gh - hg, by exact elimination on the raw
    generator vectors (independent of the equivalence-class machinery)."""
    sb = SpanBasis(field)
    one = fe_one(field)
    seen = set()
    for a in range(G.size):
        row = G.table[a]
        for b in range(G.size):
            u, v = row[b], G.table[b][a]
            if u == v or (u, v) in seen or (v, u) in seen:
                continue
            seen.add((u, v))
            vec = {}
            if u != G.zero:
                vec[u] = one
            if v != G.zero:
                vec[v] = vec.get(v, fe_zero(field)) - one
            sb.add(vec)
    return sb

"""Shared test data: graph corpus, semigroups, seeded randomness.

Set LPA_SEED to change the sampling seed for every randomized property test.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
import random
import re
import sys
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

import pytest

from lpatrace import graphs, semigroups, traces
from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import (
    GIS_ZERO,
    ZERO_CLASS,
    CycleWord,
    CycleWordStar,
    MonPair,
    VertexClass,
    classify_eq,
    gis_mul,
)
from lpatrace.graphs import (
    Graph,
    PathSeq,
    cycle_with_exit_witness,
    edge_path,
    parse_graph,
    path_sort_key,
    paths_into,
    regular_vertices,
    sinks,
    vertex_path,
)
from lpatrace.path_algebras import DEGREE_CAP, LEAVITT, AlgebraElement, PathAlgebra
from lpatrace.scalars import (
    QI,
    FieldElem,
    Q,
    add_terms,
    fe_one,
    fe_zero,
    field_star,
    format_scalar,
    is_nonnegative,
    is_positive_nonzero,
    laurent,
    parse_scalar,
    require_positive_definite,
)
from lpatrace.semigroups import (
    FREE_ZERO,
    FreeVector,
    build_semigroup,
    central_map,
    endo_semigroup,
    group_with_zero,
    matrix_units_semigroup,
    sg_element,
    sg_mul,
    sim_classes,
)
from lpatrace.structure import CycleBlock, MatrixImage, SinkBlock
from lpatrace.traces import (
    ScreenViolation,
    TraceSpec,
    trace_spec,
    validate_trace_spec,
    vertex_trace_space,
)

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


def two_cycle_chain_text(n, forward="f", back="b"):
    """A chain of n 2-cycles: vertices v0 .. vn, and for each link i the
    edges `<forward>i` from vi to v(i+1) and `<back>i` back."""
    lines = [f"v v{i}" for i in range(n + 1)]
    for i in range(n):
        lines += [f"e {forward}{i} v{i} v{i + 1}", f"e {back}{i} v{i + 1} v{i}"]
    return "\n".join(lines)


def double_edge_chain_text(n):
    """A chain of n double edges a0 => a1 => ... => an, the edges `fi` and
    `gi` from ai to a(i+1): 2^(n+1) - 1 paths into an, holding
    (n - 1) 2^(n+1) + 2 edge ids."""
    lines = [f"v a{i}" for i in range(n + 1)]
    lines += [f"e {x}{i} a{i} a{i + 1}" for i in range(n) for x in "fg"]
    return "\n".join(lines)


def complete_digraph(n):
    """K_n: vertices v0 .. v(n-1) and an edge between each ordered pair of
    distinct vertices, no loops."""
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}_{j}", vs[i], vs[j])
                      for i in range(n) for j in range(n) if i != j])


def rose(k):
    """One vertex with k loops."""
    return Graph(["v"], [(f"e{i}", "v", "v") for i in range(k)])


def comb(n):
    """A line a0 -> a1 -> ... of n vertices, each with its own sink s_i."""
    return Graph([f"a{i}" for i in range(n)] + [f"s{i}" for i in range(n)],
                 [(f"t{i}", f"a{i}", f"s{i}") for i in range(n)]
                 + [(f"l{i}", f"a{i}", f"a{i + 1}") for i in range(n - 1)])


def ring(n, chord=False):
    """A cycle v0 -> v1 -> ... -> v(n-1) -> v0, with a chord from v(n//2)
    back to v0 if asked."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    if chord:
        edges.append(("c", vs[n // 2], vs[0]))
    return Graph(vs, edges)


def disjoint_union(*parts):
    """The disjoint union, the ids of part i prefixed with `g<i>_`."""
    vertices, edges = [], []
    for i, g in enumerate(parts):
        vertices += [f"g{i}_{v}" for v in g.vertices]
        edges += [(f"g{i}_{e}", f"g{i}_{g.edge_src[e]}", f"g{i}_{g.edge_dst[e]}")
                  for e in g.edges]
    return Graph(vertices, edges)


# six graphs for the inverse-semigroup law corpus
GIS_CORPUS = ["line2", "line3", "tree", "one_loop", "two_cycle", "rose2"]

# ten-graph catalog for the faithful-trace criterion
CATALOG10 = list(GRAPH_TEXTS)

NO_EXIT_NAMES = [
    "line2", "line3", "tree", "one_loop", "two_cycle",
    "tail_loop", "disjoint", "mixed",
]


@pytest.fixture
def scc_passes(monkeypatch):
    """The graphs of whole-graph SCC passes, appended as they run.  Every
    `lpatrace` module's binding of `strongly_connected_components` is
    patched, so a pass made through a module's own import counts too."""
    tarjan = graphs.strongly_connected_components
    passes = []

    def counted(g):
        passes.append(g)
        return tarjan(g)

    for name, module in list(sys.modules.items()):
        if name == "lpatrace" or name.startswith("lpatrace."):
            for key, value in list(vars(module).items()):
                if value is tarjan:
                    monkeypatch.setattr(module, key, counted)
    return passes


@pytest.fixture
def exit_searches(monkeypatch):
    """The graphs of exit-witness searches, appended as they run."""
    search = graphs._exit_witness
    searched = []

    def counted(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(graphs, "_exit_witness", counted)
    return searched


@pytest.fixture
def cycle_search_work(monkeypatch):
    """What `graphs.cycles` does besides listing, appended as it runs:
    "tarjan", the vertices handed to each `_tarjan` pass; "searches", the
    cycles that each `_circuits` search listed; "components", the number of
    nontrivial components that each `_with_internal_edges` call kept."""
    tarjan, circuits = graphs._tarjan, graphs._circuits
    with_edges = graphs._with_internal_edges
    work = {"tarjan": [], "searches": [], "components": []}

    def counted_tarjan(vertices, out_edges, edge_dst):
        vertices = list(vertices)
        work["tarjan"].append(len(vertices))
        return tarjan(vertices, out_edges, edge_dst)

    def counted_circuits(first, start, v, out, blocked, words, budget):
        listed = len(words)
        budget = circuits(first, start, v, out, blocked, words, budget)
        work["searches"].append(len(words) - listed)
        return budget

    def counted_with_edges(*args):
        kept = with_edges(*args)
        work["components"].append(len(kept))
        return kept

    monkeypatch.setattr(graphs, "_tarjan", counted_tarjan)
    monkeypatch.setattr(graphs, "_circuits", counted_circuits)
    monkeypatch.setattr(graphs, "_with_internal_edges", counted_with_edges)
    return work


@pytest.fixture
def nullspace_cells(monkeypatch):
    """The stored entries of each system that `traces` hands to `nullspace`,
    one total per call, appended as they run."""
    solve = traces.nullspace
    cells = []

    def counted(rows, ncols, field):
        rows = list(rows)
        cells.append(sum(map(len, rows)))
        return solve(rows, ncols, field)

    monkeypatch.setattr(traces, "nullspace", counted)
    return cells


@pytest.fixture
def field_ops(monkeypatch):
    """The name of each `FieldElem` arithmetic operator call, appended as
    they run."""
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__"):
        def counted(*args, name=name, op=getattr(FieldElem, name)):
            ops.append(name)
            return op(*args)

        monkeypatch.setattr(FieldElem, name, counted)
    return ops


@pytest.fixture
def id_matches(monkeypatch):
    """The strings `graphs` matches against its id pattern, appended as they
    run."""
    pattern = graphs._ID_RE
    matched = []

    class Counted:
        def fullmatch(self, s):
            matched.append(s)
            return pattern.fullmatch(s)

    monkeypatch.setattr(graphs, "_ID_RE", Counted())
    return matched


@pytest.fixture
def light_work(monkeypatch):
    """The work of Light's test in `semigroups`, appended as it runs:
    ("pass", generators) for each frontier pass of the generator closure,
    ("check", generators) for each list of generators checked."""
    close, check = semigroups._right_closure, semigroups._first_failure
    work = []

    def counted_close(rows, rep, gens, reached, frontier):
        work.append(("pass", tuple(gens)))
        return close(rows, rep, gens, reached, frontier)

    def counted_check(rows, gens, first_with_row, cols):
        work.append(("check", tuple(gens)))
        return check(rows, gens, first_with_row, cols)

    monkeypatch.setattr(semigroups, "_right_closure", counted_close)
    monkeypatch.setattr(semigroups, "_first_failure", counted_check)
    return work


def _reach(g, v):
    """Every vertex reachable from v by a path of length at least one."""
    seen, todo = set(), [v]
    while todo:
        for e in g.out_edges[todo.pop()]:
            w = g.edge_dst[e]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def is_no_exit_reference(g):
    """Brute force: every vertex on a cycle has out-degree 1."""
    return all(
        len(g.out_edges[v]) == 1 for v in g.vertices if v in _reach(g, v)
    )


def is_tame_reference(g):
    """Brute force: every vertex of a nontrivial SCC (one on a cycle) has
    exactly one internal out-edge, one whose target reaches back to it."""
    reach = {v: _reach(g, v) | {v} for v in g.vertices}
    return all(
        sum(v in reach[g.edge_dst[e]] for e in g.out_edges[v]) == 1
        for v in g.vertices if v in _reach(g, v)
    )


def session_corpus(build):
    """`functools.cache` for a corpus that lives for the rest of the session.
    Once it is built, a collection clears what is already garbage and
    `gc.freeze` moves everything left to the permanent generation, so later
    full collections do not walk the corpus again."""
    @functools.cache
    @functools.wraps(build)
    def built(*args):
        corpus = build(*args)
        gc.collect()
        gc.freeze()
        return corpus
    return built


def cycle_rep(g, edge_ids):
    """Validate a simple cycle; the closed path in its least rotation."""
    p = edge_path(g, edge_ids)
    if not p.is_closed:
        raise ValueError("not a closed path")
    sources = [g.edge_src[e] for e in p.edges]
    if len(set(sources)) != len(sources):
        raise ValueError("not a simple cycle: repeated source vertex")
    return graphs._least_rotation_path(g, p.edges)


@session_corpus
def small_graphs(max_vertices=3, max_edges=4):
    """Every graph on 1..max_vertices vertices with at most max_edges edges,
    loops and parallel edges allowed: one per multiset of (source, range)
    pairs, walked with an explicit stack.  Vertices are v0, v1, ... and
    edges e0, e1, ... in the order of their pairs.  With the defaults there
    are 790 graphs, 274 of them no-exit."""
    out = []
    for n in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(n)]
        pairs = list(itertools.product(vertices, repeat=2))
        stack = [()]  # nondecreasing tuples of pair indices
        while stack:
            chosen = stack.pop()
            out.append(Graph(vertices, [
                (f"e{i}", *pairs[p]) for i, p in enumerate(chosen)
            ]))
            if len(chosen) < max_edges:
                first = chosen[-1] if chosen else 0
                stack += [chosen + (p,) for p in reversed(range(first, len(pairs)))]
    return tuple(out)


def vertex_constraint_rows_reference(g):
    """The vertex constraints as dense rows of Fractions over g.vertices:
    at each regular vertex v, delta(v) - sum of delta(r(e)) over e leaving v."""
    index = {v: i for i, v in enumerate(g.vertices)}
    rows = []
    for v in regular_vertices(g):
        row = [Fraction(0)] * len(index)
        row[index[v]] += 1
        for e in g.out_edges[v]:
            row[index[g.edge_dst[e]]] -= 1
        rows.append(row)
    return rows


def fraction_rank(rows):
    """Rank of dense rows of Fractions by Gaussian elimination, with no use
    of `lpatrace.linalg`."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cycles_reference(g):
    """The edge words of `cycles(g)` by brute force: every closed path with
    no repeated source vertex, in least rotation, sorted by (length, word)."""
    words = {
        graphs._least_rotation(p.edges)
        for p in all_paths_up_to(g, len(g.vertices))
        if p.edges and p.is_closed
        and len({g.edge_src[e] for e in p.edges}) == len(p.edges)
    }
    return sorted(words, key=lambda w: (len(w), w))


def decompose_reference(g):
    """The blocks of `decompose(g)` from the brute-force cycle list: the exit
    witness checked first, then one sink block per sink and one cycle block
    per cycle of `cycles_reference(g)`, in that order."""
    witness = cycle_with_exit_witness(g)
    if witness is not None:
        cyc, exit_edge = witness
        raise PreconditionError(
            f"graph is not no-exit: cycle {'/'.join(cyc.edges)} has exit {exit_edge}"
        )
    blocks = [SinkBlock(s, tuple(paths_into(g, s))) for s in sinks(g)]
    for word in cycles_reference(g):
        c = edge_path(g, word)
        blocks.append(CycleBlock(c, tuple(paths_into(g, c.src, c))))
    return tuple(blocks)


def path_concat(a, b):
    """The path a followed by the path b."""
    if a.dst != b.src:
        raise ValueError(f"paths do not compose: {a!r} then {b!r}")
    return PathSeq(a.src, b.dst, a.edges + b.edges)


def sim_equivalent(g, a, b):
    """Whether two GIS elements fall in the same ~ class."""
    return classify_eq(g, a) == classify_eq(g, b)


def classify_eq_reference(g, a):
    """The class of a GIS element by the four cases of `classify_eq`'s
    definition: p = q, p = q t, q = p t (t nonempty), or none of these.
    The remainder t is found by trying every split of the longer path, and
    a cycle word is the least of all its rotations."""
    if a is GIS_ZERO:
        return ZERO_CLASS
    p, q = a
    if p == q:
        return VertexClass(p.dst)
    for long, short, kind in ((p, q, CycleWord), (q, p, CycleWordStar)):
        for k in range(len(long.edges)):
            head, t = long.edges[:k], long.edges[k:]
            mid = g.edge_src[t[0]]
            if PathSeq(long.src, mid, head) == short:
                return kind(min(t[i:] + t[:i] for i in range(len(t))))
    return ZERO_CLASS


def expand_monomial_reference(g, blocks, mon):
    """The (block, j, l, k) units of p q* by the Leavitt relation
    p q* = sum over e leaving r(p) of (p e)(q e)*, applied until each
    monomial ends at a sink or a cycle base, then k trailing cycle words
    taken off each side; sorted.  `blocks` is `dec.blocks`, read as data."""
    ends = {}  # sink or cycle base: (block, cycle word)
    for b, block in enumerate(blocks):
        if isinstance(block, SinkBlock):
            ends[block.sink] = b, ()
        else:
            ends[block.cycle.src] = b, block.cycle.edges
    out, todo = [], [(mon.p.dst, mon.p.edges, mon.q.edges)]
    while todo:
        w, p, q = todo.pop()
        if w not in ends:  # regular, and on a cycle one edge leaves
            todo += [(g.edge_dst[e], p + (e,), q + (e,)) for e in g.out_edges[w]]
            continue
        b, word = ends[w]
        unit = []
        for src, edges in ((mon.p.src, p), (mon.q.src, q)):
            k = 0
            while word and edges[-len(word):] == word:
                edges, k = edges[:-len(word)], k + 1
            # a plain (src, dst, edges) tuple equals its PathSeq
            unit.append((blocks[b].paths.index((src, w, edges)), k))
        (j, kp), (l, kq) = unit
        out.append((b, j, l, kp - kq))
    return tuple(sorted(out))


def matrix_identity(dec, field):
    """The identity of phi's target: 1 or the Laurent 1 on each diagonal."""
    terms = {}
    for b, block in enumerate(dec.blocks):
        one = laurent_one(field) if dec.is_cycle_block(b) else fe_one(field)
        terms.update(((b, j, j), one) for j in range(block.size))
    return MatrixImage(dec, terms)


# ---------------------------------------------------------------------------
# Semigroups
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


def cayley_text(rows):
    """A Cayley-table file for `rows`, with element 0 as the zero."""
    return f"n {len(rows)} zero 0\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def sg_commutator(G, x, y):
    return sg_mul(G, x, y) - sg_mul(G, y, x)


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


@session_corpus
def small_semigroup_tables(n):
    """Every associative table on 0..n-1, the labelled semigroups of order
    n (1, 8, 113 and 3492 for n = 1..4, OEIS A023814), as tuples of rows:
    cell-by-cell backtracking over an explicit stack, each new cell checked
    on the triples that read it with every product read filled in."""
    # a triple (x, y, z) reads cell (a, b) only if x == a or z == b
    reading = [
        [(a, y, z) for y in range(n) for z in range(n)]
        + [(x, y, b) for x in range(n) if x != a for y in range(n)]
        for a in range(n) for b in range(n)
    ]
    t = [-1] * (n * n)  # the table row by row, -1 where not yet filled
    out = []
    stack = [0]  # stack[k]: the next value to try in cell k
    while stack:
        k = len(stack) - 1
        if stack[k] == n:
            stack.pop()
            t[k] = -1
            continue
        t[k] = stack[k]
        stack[k] += 1
        for x, y, z in reading[k]:
            xy, yz = t[x * n + y], t[y * n + z]
            if xy >= 0 and yz >= 0:
                left, right = t[xy * n + z], t[x * n + yz]
                if left != right and left >= 0 and right >= 0:
                    break
        else:
            if k + 1 < n * n:
                stack.append(0)
            else:
                out.append(tuple(tuple(t[r * n:r * n + n]) for r in range(n)))
    return tuple(out)


def small_tables_with_zero(max_order=4):
    """The table of each labelled semigroup of order 1..max_order with a
    zero adjoined as element 0, as a list of rows: 3614 with the default."""
    for n in range(1, max_order + 1):
        for rows in small_semigroup_tables(n):
            yield [[0] * (n + 1)] + [[0] + [x + 1 for x in row] for row in rows]


@session_corpus
def small_semigroups_with_zero(max_order=4):
    """`small_tables_with_zero` as semigroups: 3614 with the default."""
    return tuple(build_semigroup(table, 0) for table in small_tables_with_zero(max_order))


@session_corpus
def endo4_semigroup():
    """The maps of a 4-element set with an adjoined zero (257 elements),
    built once; tests that want it next to `SEMIGROUPS` name it explicitly."""
    return endo_semigroup(4)


def endo_map_index(n, images):
    """Element index in `endo_semigroup(n)` of the map with the given
    0-based image tuple."""
    images = tuple(images)
    if len(images) != n or any(not 0 <= x < n for x in images):
        raise ValueError("bad image tuple")
    idx = 0
    for x in images:
        idx = idx * n + x
    return 1 + idx


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def fe_i():
    """The imaginary unit of Q(i)."""
    return FieldElem(0, 1, QI)


def laurent_one(field=Q):
    return laurent(field, {0: fe_one(field)})


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


def gis_table(g):
    """The graph inverse semigroup G(E) of an acyclic graph as a Cayley
    table: (elements, table), where elements[0] is GIS_ZERO and the pairs
    p q* with r(p) = r(q) follow in `path_sort_key` order of p, then of q.
    The product works on vertex-edge words (v0, e1, v1, ..., en, vn) and
    shares no code with `gis_mul`: for (p q*)(r s*), r = q t gives
    (p t) s*, q = r t gives p (s t)*, and every other pair gives 0."""
    paths = all_paths_up_to(g, len(g.vertices))
    if paths and len(paths[-1]) == len(g.vertices):  # a path repeats a vertex
        raise ValueError("gis_table needs an acyclic graph")
    word = {}
    for p in paths:
        w = [p.src]
        for eid in p.edges:
            w += [eid, g.edge_dst[eid]]
        word[p] = tuple(w)
    pairs = [(p, q) for p in paths for q in paths if p.dst == q.dst]
    keys = [None] + [(word[p], word[q]) for p, q in pairs]
    index = {key: i for i, key in enumerate(keys)}

    def product(a, b):
        (p, q), (r, s) = a, b
        if r[:len(q)] == q:
            return p + r[len(q):], s
        if q[:len(r)] == r:
            return p, s + q[len(r):]
        return None

    table = [(0,) * len(keys)] + [
        (0,) + tuple(index[product(a, b)] for b in keys[1:]) for a in keys[1:]
    ]
    return (GIS_ZERO, *(MonPair(p, q) for p, q in pairs)), tuple(table)


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


def minimal_trace_reference(G, field=Q):
    """The minimal trace's value at each element, one element at a time:
    the unit vector at the index of its class among
    `sim_classes_reference`'s classes, or zero on the class of zero."""
    classes = sim_classes_reference(G)
    values = []
    for g in range(G.size):
        cid = next(i for i, cls in enumerate(classes) if g in cls)
        if G.zero in classes[cid]:
            values.append(FREE_ZERO)
        else:
            values.append(FreeVector(None, {cid: fe_one(field)}))
    return tuple(values)


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


def associativity_witness_reference(rows):
    """A triple (a, b, c) with (a*b)*c != a*(b*c), or None: Light's test
    over tuple rows with an itemgetter composer at every size, the first
    triple in the order that `build_semigroup`'s error must name.

    The g with (x*g)*y == x*(g*y) for all x, y are closed under the product,
    even in a non-associative table, so g need only range over a set whose
    right products reach every element.  Both sides depend on x only
    through its row, so one x per distinct row is checked.
    """
    n = len(rows)
    if n == 1:
        return None  # itemgetter with one index would return a scalar
    # generators in index order, right-product closure kept incremental
    gens, reached = [], set()
    for x in range(n):
        if x not in reached:
            gens.append(x)
            todo = [rows[y][x] for y in reached] + [x]
            while todo:
                y = todo.pop()
                if y not in reached:
                    reached.add(y)
                    todo.extend(rows[y][h] for h in gens)
    first_with_row = {}
    for x, row in enumerate(rows):
        first_with_row.setdefault(row, x)
    for g in gens:
        g_row = rows[g]
        times_g_row = itemgetter(*g_row)  # row of x -> (x*(g*y) for each y)
        for row, x in first_with_row.items():
            left = rows[row[g]]
            if left != times_g_row(row):
                c = next(y for y in range(n) if left[y] != row[g_row[y]])
                return x, g, c
    return None


def is_central_map_reference(G, values):
    """Whether values kills zero and values[ab] == values[ba] for every
    pair (a, b), checked one pair at a time."""
    if values[G.zero]:
        return False
    return all(
        values[G.mul(a, b)] == values[G.mul(b, a)]
        for a, b in itertools.product(range(G.size), repeat=2)
    )


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


def trace_eval_reference(g: Graph, spec: TraceSpec, x: AlgebraElement) -> FieldElem:
    """`traces.trace_eval` with one product and one sum for every term,
    the zero class and unvalued classes included: the loop that the
    valued-classes-only sum replaced, kept as the reference for its values
    and errors.

    In Leavitt mode the spec must satisfy the vertex constraint (otherwise
    the functional is not well defined on the quotient).
    """
    alg = x.algebra
    if alg.graph is not g:
        raise ValueError("element is over a different graph")
    if alg.field != spec.field:
        raise ValueError(f"element field {alg.field} != spec field {spec.field}")
    if alg.mode == LEAVITT:
        check = validate_trace_spec(g, spec)
        if not check:
            raise PreconditionError(
                "spec does not satisfy the vertex constraint: "
                + "; ".join(check.messages())
            )
    acc = fe_zero(spec.field)
    for mon, c in x.terms.items():
        acc = acc + c * spec.class_value(classify_eq(g, mon))
    return acc


def positivity_screen_reference(g: Graph, spec: TraceSpec):
    """`traces.positivity_screen` walking every reachable pair for
    condition 2 whatever the edges give: the O(V^2) screen that the
    edge-first check replaced, kept as the reference for its violation
    list and order."""
    require_positive_definite(spec.field, spec.involution)
    zero = fe_zero(spec.field)
    values = {c.v: x for c, x in spec.values.items() if type(c) is VertexClass}
    t = {v: values.get(v, zero) for v in g.vertices}
    violations = []
    for v in g.vertices:
        if not is_nonnegative(t[v], spec.involution):
            violations.append(ScreenViolation(
                1, (v,),
                f"t({v}) = {format_scalar(t[v])} is not a "
                f"nonnegative rational",
            ))
    position = {v: i for i, v in enumerate(g.vertices)}
    for v in g.vertices:
        for w in sorted(_reach(g, v), key=position.__getitem__):
            if w == v:
                continue
            diff = t[v] - t[w]
            if not (diff.im == 0 and diff.re >= 0):
                violations.append(ScreenViolation(
                    2, (v, w),
                    f"t({v}) < t({w}) although {w} is reachable from {v}",
                ))
    for v in regular_vertices(g):
        total = zero
        for eid in g.out_edges[v]:
            total = total + t[g.edge_dst[eid]]
        diff = t[v] - total
        if not (diff.im == 0 and diff.re >= 0):
            violations.append(ScreenViolation(
                3, (v,),
                f"t({v}) is less than the sum over the ranges of its "
                f"outgoing edges",
            ))
    for v in g.vertices:
        if not is_positive_nonzero(t[v], spec.involution):
            violations.append(ScreenViolation(
                4, (v,),
                f"t({v}) = {format_scalar(t[v])} is not "
                f"strictly positive (faithfulness candidacy)",
            ))
    return violations


def mul_reference(x, y):
    """x * y with every product monomial normalized: no term is taken as
    canonical without a rewrite."""
    alg = x.algebra
    raw = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            prod = gis_mul(m1, m2)
            if prod is GIS_ZERO:
                continue
            if len(prod.p.edges) + len(prod.q.edges) > DEGREE_CAP:
                raise PreconditionError(
                    f"product monomial exceeds degree cap {DEGREE_CAP}"
                )
            c = c1 * c2
            raw[prod] = raw[prod] + c if prod in raw else c
    return fresh_make(alg, raw)


def alg_star_reference(x):
    """x* with every starred monomial normalized."""
    alg = x.algebra
    raw = {}
    for m, c in x.terms.items():
        raw[MonPair(m.q, m.p)] = field_star(c, alg.involution)
    return fresh_make(alg, raw)


def fresh_make(alg, raw):
    """`alg._make(raw)` computed on a fresh context of the same graph,
    field, involution, mode and special edges: its `_expansions` memo
    starts empty, so a reference never reads the entries it checks."""
    fresh = PathAlgebra(alg.graph, alg.field, alg.involution, alg.mode,
                        alg.special_edges)
    return AlgebraElement(alg, fresh._make(raw).terms)


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


# ---------------------------------------------------------------------------
# Reference parsers: scalars through Fraction, elements one token at a time
# ---------------------------------------------------------------------------

_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_SCALAR_FULL_RE = re.compile(
    rf"^(?P<re>{_RATIONAL})(?P<im>[+-][0-9]+(?:/[0-9]+)?)i$"
)
_SCALAR_IMAG_RE = re.compile(rf"^(?P<im>{_RATIONAL})i$")
_SCALAR_RAT_RE = re.compile(rf"^(?P<re>{_RATIONAL})$")


def reference_parse_scalar(text, field=Q):
    """`scalars.parse_scalar`, reading each part through `Fraction`."""
    s = text.strip()
    m = _SCALAR_FULL_RE.match(s) or _SCALAR_IMAG_RE.match(s) or _SCALAR_RAT_RE.match(s)
    if not m:
        raise ParseError(f"malformed scalar {text!r}")
    parts = m.groupdict()
    try:
        re_part, im_part = Fraction(parts.get("re", 0)), Fraction(parts.get("im", 0))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError:
        raise ParseError(
            f"scalar {s[:20] + '...'!r} ({len(s)} characters) has an integer "
            f"of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if field == Q and im_part != 0:
        raise ParseError(f"imaginary scalar {text!r} not allowed over Q")
    return FieldElem(re_part, im_part, field)


# one alternative per token kind; whitespace matches none of them, and \S
# any other character, which is an error
_TOKEN_RE = re.compile(
    r"([0-9]+(?:/[0-9]+)?(?:[+-][0-9]+(?:/[0-9]+)?i|i)?)"  # scalar
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # id
    r"|([-+*.'/])"  # op
    r"|(\S)"
)


def _tokenize(text: str):
    """The (kind, text) tokens of an expression; kind is scalar, id or op."""
    tokens = []
    for scalar, ident, op, other in _TOKEN_RE.findall(text):
        if scalar:
            tokens.append(("scalar", scalar))
        elif ident:
            tokens.append(("id", ident))
        elif op:
            tokens.append(("op", op))
        else:
            raise ParseError(f"unexpected character {other!r} in expression")
    return tokens


def _take(tokens):
    """Pop the next token off a reversed token list; (None, None) past the end."""
    return tokens.pop() if tokens else (None, None)


def _take_op(tokens, ops: str):
    """Pop the next token if it is one of the operator characters `ops`."""
    if tokens and tokens[-1][0] == "op" and tokens[-1][1] in ops:
        return tokens.pop()[1]
    return None


def _path(tokens, g: Graph) -> PathSeq:
    kind, val = _take(tokens)
    if kind != "id":
        raise ParseError(f"expected an id, got {val!r}")
    ids = [val]
    while _take_op(tokens, "/"):
        kind, val = _take(tokens)
        if kind != "id":
            raise ParseError(f"expected an id after '/', got {val!r}")
        ids.append(val)
    if len(ids) == 1 and g.is_vertex(ids[0]):
        return vertex_path(g, ids[0])
    for name in ids:
        if not g.is_edge(name):
            raise ParseError(f"unknown edge {name!r} in path")
    try:
        return edge_path(g, ids)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _mono(tokens, g: Graph) -> MonPair:
    p = _path(tokens, g)
    if _take_op(tokens, "."):
        q = _path(tokens, g)
        if not _take_op(tokens, "'"):
            raise ParseError("expected ' to close a p.q' monomial")
        try:
            return MonPair(p, q)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if _take_op(tokens, "'"):
        return MonPair(vertex_path(g, p.dst), p)
    return MonPair(p, vertex_path(g, p.dst))


def reference_parse_element(text: str, algebra: PathAlgebra) -> AlgebraElement:
    """`path_algebras.parse_element` over a token list: the parser that the
    one-regex-per-term reader replaced, kept as the reference for its
    elements, error types and messages.

    `p.q'` is the monomial p q*, `q'` alone is r(q) q*, a bare path is the
    path itself, and a bare scalar is that multiple of the identity.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    tokens.reverse()  # the next token is the last one
    g = algebra.graph
    raw = {}  # {MonPair: FieldElem}, the terms read so far
    sign = -1 if _take_op(tokens, "+-") == "-" else 1
    while True:
        kind, val = tokens[-1] if tokens else (None, None)
        if kind is None:
            raise ParseError("expected a term")
        if kind != "scalar":
            add_terms(raw, ((_mono(tokens, g), algebra.scalar(sign)),))
        else:
            tokens.pop()
            coeff = sign * parse_scalar(val, algebra.field)
            if _take_op(tokens, "*"):
                add_terms(raw, ((_mono(tokens, g), coeff),))
            else:  # a bare scalar means that multiple of the identity
                add_terms(raw, ((algebra._vertex_mon(v), coeff) for v in g.vertices))
        if not tokens:
            return fresh_make(algebra, raw)
        kind, val = tokens.pop()
        if kind != "op" or val not in "+-":
            raise ParseError(f"expected + or - before {val!r}")
        sign = -1 if val == "-" else 1


# single characters, then whole pieces: a 5000-digit integer and `/0`
_TEXT_CHARS = "0123456789" + "/+-i*.'" + "abefxv_" + "\u0663\u00b2\t\x1c\u3000 "
_TEXT_PIECES = ("9" * 5000, "1" + "0" * 4999, "/0")


def random_scalar_text(rng):
    """A short string that is often a scalar, near one, or an edge case."""
    if rng.random() < 0.5:  # a scalar shape, with signs and parts dropped at random
        def part():
            num = str(rng.randint(0, 30))
            return num + (f"/{rng.randint(0, 9)}" if rng.random() < 0.5 else "")
        pieces = [rng.choice(["", "-"]), part()]
        if rng.random() < 0.6:
            pieces += [rng.choice("+-"), part()]
        if rng.random() < 0.6:
            pieces.append("i")
    else:
        pieces = []
    for _ in range(rng.randint(0 if pieces else 1, 3)):
        piece = rng.choice(_TEXT_PIECES) if rng.random() < 0.1 else rng.choice(_TEXT_CHARS)
        pieces.insert(rng.randint(0, len(pieces)), piece)
    return "".join(pieces)


def outcome(f, *args):
    """("ok", value) or (exception type, message) of calling f(*args)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)

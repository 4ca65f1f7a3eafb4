"""Finite directed graphs, paths, cycles, and structural predicates.

Vertices and edges are referred to by string ids; a path is stored as its
source vertex, range vertex, and edge-id sequence, so paths are hashable
values independent of the graph object.  All orderings are deterministic:
declaration order for vertices/edges, then (length, edge ids) for paths.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

from .errors import ParseError, PreconditionError

_ID_RE = _re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Graph:
    """A finite directed graph; immutable after construction.

    `edges` is an iterable of (edge id, source vertex, range vertex).
    Ids must be unique across vertices and edges together, which keeps the
    element-expression grammar unambiguous.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(e[0] for e in edges)
        self.edge_src = {}
        self.edge_dst = {}
        seen = set()
        for v in self.vertices:
            if not _ID_RE.match(v):
                raise ValueError(f"bad vertex id {v!r}")
            if v in seen:
                raise ValueError(f"duplicate id {v!r}")
            seen.add(v)
        vset = set(self.vertices)
        for eid, src, dst in edges:
            if not _ID_RE.match(eid):
                raise ValueError(f"bad edge id {eid!r}")
            if eid in seen:
                raise ValueError(f"duplicate id {eid!r}")
            seen.add(eid)
            if src not in vset:
                raise ValueError(f"edge {eid!r}: undeclared source {src!r}")
            if dst not in vset:
                raise ValueError(f"edge {eid!r}: undeclared range {dst!r}")
            self.edge_src[eid] = src
            self.edge_dst[eid] = dst
        self.out_edges = {v: [] for v in self.vertices}
        self.in_edges = {v: [] for v in self.vertices}
        for eid in self.edges:
            self.out_edges[self.edge_src[eid]].append(eid)
            self.in_edges[self.edge_dst[eid]].append(eid)
        self.out_edges = {v: tuple(es) for v, es in self.out_edges.items()}
        self.in_edges = {v: tuple(es) for v, es in self.in_edges.items()}

    def is_vertex(self, name: str) -> bool:
        return name in self.out_edges

    def is_edge(self, name: str) -> bool:
        return name in self.edge_src

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class PathSeq:
    """A path: a lone vertex (no edges) or a composable edge sequence."""

    src: str
    dst: str
    edges: tuple

    def __len__(self):
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    @property
    def is_closed(self) -> bool:
        return self.src == self.dst

    def __repr__(self):
        return f"<{format_path(self)}>"


def vertex_path(g: Graph, v: str) -> PathSeq:
    if not g.is_vertex(v):
        raise ValueError(f"unknown vertex {v!r}")
    return PathSeq(v, v, ())


def edge_path(g: Graph, edge_ids) -> PathSeq:
    """Path from a nonempty composable sequence of edge ids."""
    ids = tuple(edge_ids)
    if not ids:
        raise ValueError("empty edge sequence; use vertex_path")
    for eid in ids:
        if not g.is_edge(eid):
            raise ValueError(f"unknown edge {eid!r}")
    for a, b in zip(ids, ids[1:]):
        if g.edge_dst[a] != g.edge_src[b]:
            raise ValueError(f"edges {a!r} and {b!r} do not compose")
    return PathSeq(g.edge_src[ids[0]], g.edge_dst[ids[-1]], ids)


def path_concat(a: PathSeq, b: PathSeq) -> PathSeq:
    if a.dst != b.src:
        raise ValueError(f"paths do not compose: {a!r} then {b!r}")
    return PathSeq(a.src, b.dst, a.edges + b.edges)


def path_sort_key(p: PathSeq):
    return (len(p.edges), p.edges, p.src)


def format_path(p: PathSeq) -> str:
    return p.src if p.is_vertex else "/".join(p.edges)


def is_path_prefix(a: PathSeq, b: PathSeq) -> bool:
    """Whether a is an initial segment of b (vertices prefix any path at them)."""
    return a.src == b.src and a.edges == b.edges[: len(a.edges)]


def path_remainder(prefix: PathSeq, whole: PathSeq) -> PathSeq:
    """The t with whole = prefix . t; prefix must be a prefix of whole."""
    if not is_path_prefix(prefix, whole):
        raise ValueError("not a prefix")
    return PathSeq(prefix.dst, whole.dst, whole.edges[len(prefix.edges):])


@dataclass(frozen=True)
class CycleRep:
    """A simple cycle in canonical rotation (lexicographically least edge word)."""

    path: PathSeq

    @property
    def base(self) -> str:
        return self.path.src

    @property
    def edges(self) -> tuple:
        return self.path.edges

    def __repr__(self):
        return f"CycleRep({format_path(self.path)})"


def _least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def cycle_rep(g: Graph, edge_ids) -> CycleRep:
    """Validate a simple cycle and canonicalize its rotation."""
    p = edge_path(g, edge_ids)
    if not p.is_closed:
        raise ValueError("not a closed path")
    sources = [g.edge_src[e] for e in p.edges]
    if len(set(sources)) != len(sources):
        raise ValueError("not a simple cycle: repeated source vertex")
    return CycleRep(edge_path(g, _least_rotation(p.edges)))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    `#` starts a comment; `v <id>` declares a vertex, `e <id> <src> <dst>`
    an edge.  Declaration order is preserved.
    """
    vertices = []
    edges = []
    seen = set()
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("expected `v <id>`", lineno)
            (vid,) = parts[1:]
            if not _ID_RE.match(vid):
                raise ParseError(f"bad id {vid!r}", lineno)
            if vid in seen:
                raise ParseError(f"duplicate id {vid!r}", lineno)
            seen.add(vid)
            declared.add(vid)
            vertices.append(vid)
        elif parts[0] == "e":
            if len(parts) != 4:
                raise ParseError("expected `e <id> <src> <dst>`", lineno)
            eid, src, dst = parts[1:]
            if not _ID_RE.match(eid):
                raise ParseError(f"bad id {eid!r}", lineno)
            if eid in seen:
                raise ParseError(f"duplicate id {eid!r}", lineno)
            if src not in declared:
                raise ParseError(f"undeclared vertex {src!r}", lineno)
            if dst not in declared:
                raise ParseError(f"undeclared vertex {dst!r}", lineno)
            seen.add(eid)
            edges.append((eid, src, dst))
        else:
            raise ParseError(f"unknown declaration {parts[0]!r}", lineno)
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def sinks(g: Graph) -> tuple:
    return tuple(v for v in g.vertices if not g.out_edges[v])


def regular_vertices(g: Graph) -> tuple:
    return tuple(v for v in g.vertices if g.out_edges[v])


def strongly_connected_components(g: Graph):
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    return _tarjan(g.vertices, g.out_edges, g.edge_dst)


def _tarjan(vertices, out_edges, edge_dst):
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    components = []

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(out_edges[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for eid in it:
                w = edge_dst[eid]
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out_edges[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return components


def _nontrivial_sccs(g: Graph, vertices=None, edges=None):
    """SCCs containing at least one internal edge (including a self-loop),
    each with its internal edges in declaration order; O(V + E).

    `vertices` and `edges` select a subgraph (default: all of `g`); its
    edges must join its vertices and keep declaration order.
    """
    if vertices is None:
        edges = g.edges
        comps = strongly_connected_components(g)
    else:
        comps = _tarjan(vertices, _out_lists(g, vertices, edges), g.edge_dst)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    internal = [[] for _ in comps]
    for e in edges:
        i = comp_of[g.edge_src[e]]
        if comp_of[g.edge_dst[e]] == i:
            internal[i].append(e)
    return [(comp, edges) for comp, edges in zip(comps, internal) if edges]


def cycle_vertices(g: Graph) -> frozenset:
    """Vertices lying on some cycle (= members of nontrivial SCCs)."""
    verts = set()
    for comp, _ in _nontrivial_sccs(g):
        verts |= comp
    return frozenset(verts)


def _out_lists(g: Graph, vertices, edges) -> dict:
    out = {v: [] for v in vertices}
    for e in edges:
        out[g.edge_src[e]].append(e)
    return out


# Most edge ids, summed over the cycles listed, that one `cycles` call may
# return.  The loopless complete digraph K8 has 109,592, K9 986,400.
CYCLE_WORK_LIMIT = 500_000


def cycles(g: Graph):
    """All simple cycles, one canonical rotation each, deterministically sorted.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975): search from the least
    vertex of each nontrivial SCC, then drop that vertex and split the rest
    into SCCs again.  Every search lists at least one cycle in O(V + E)
    steps per cycle, so the time is O((V + E)(C + 1)) for C cycles.  Raises
    `PreconditionError` once the cycles hold more than `CYCLE_WORK_LIMIT`
    edge ids in total.
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    words = []
    size = 0
    pending = _nontrivial_sccs(g)
    while pending:
        comp, internal = pending.pop()
        start = min(comp, key=order.__getitem__)
        for word in _circuits(g, start, _out_lists(g, comp, internal)):
            size += len(word)
            if size > CYCLE_WORK_LIMIT:
                raise PreconditionError(
                    f"simple cycles of a graph with {len(g.vertices)} "
                    f"vertices and {len(g.edges)} edges hold more than "
                    f"{CYCLE_WORK_LIMIT} edge ids"
                )
            words.append(_least_rotation(tuple(word)))
        rest = sorted(comp - {start}, key=order.__getitem__)
        kept = [e for e in internal if start not in (g.edge_src[e], g.edge_dst[e])]
        pending += _nontrivial_sccs(g, rest, kept)
    reps = [CycleRep(edge_path(g, word)) for word in words]
    reps.sort(key=lambda c: (len(c.edges), c.edges))
    return reps


def _circuits(g: Graph, start, out):
    """Johnson's CIRCUIT, iterative: every simple cycle through `start` in
    the strongly connected subgraph with out-edge lists `out`, as an
    edge-id list leaving `start`.

    A vertex stays blocked while every path from it back to `start` meets
    the current trail; `blocked_by[w]` lists the vertices to unblock with w.
    """
    trail = []  # edges from `start` to the vertex of the top frame
    frames = [(start, iter(out[start]))]
    closed = [False]  # whether a cycle was found below each frame
    blocked = {start}
    blocked_by = {v: set() for v in out}
    while frames:
        v, remaining = frames[-1]
        for eid in remaining:
            w = g.edge_dst[eid]
            if w == start:
                yield trail + [eid]
                closed[-1] = True
            elif w not in blocked:
                trail.append(eid)
                frames.append((w, iter(out[w])))
                closed.append(False)
                blocked.add(w)
                break
        else:
            frames.pop()
            if trail:
                trail.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [v]
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.remove(u)
                        unblock.extend(blocked_by[u])
                        blocked_by[u].clear()
            else:
                for eid in out[v]:
                    blocked_by[g.edge_dst[eid]].add(v)


def is_no_exit(g: Graph) -> bool:
    """True iff every vertex on a cycle has out-degree exactly one."""
    return all(len(g.out_edges[v]) == 1 for v in cycle_vertices(g))


def cycle_with_exit_witness(g: Graph):
    """A (cycle, exit edge) pair witnessing failure of no-exit, or None.

    The first vertex of a nontrivial SCC with two or more out-edges lies on
    a cycle with an exit there; a breadth-first search inside the SCC back
    to the vertex finds a simple one in O(V + E).
    """
    comp_of = {v: comp for comp, _ in _nontrivial_sccs(g) for v in comp}
    bases = [v for v in g.vertices if v in comp_of and len(g.out_edges[v]) > 1]
    if not bases:
        return None
    base = bases[0]
    reached_by = {}  # vertex -> edge the search first reached it by
    queue = [base]
    for u in queue:
        for eid in g.out_edges[u]:
            w = g.edge_dst[eid]
            if w == base:
                trail = [eid]
                while u != base:
                    trail.append(reached_by[u])
                    u = g.edge_src[trail[-1]]
                exit_edge = next(e for e in g.out_edges[base] if e != trail[-1])
                return cycle_rep(g, trail[::-1]), exit_edge
            if w in comp_of[base] and w not in reached_by:
                reached_by[w] = eid
                queue.append(w)


def infinite_paths_tame(g: Graph) -> bool:
    """Whether every infinite path is eventually trapped in a single cycle.

    For a finite graph this holds iff each nontrivial SCC is exactly one
    simple cycle: as many internal edges as vertices, one outgoing internal
    edge per vertex.
    """
    for comp, internal in _nontrivial_sccs(g):
        if len(internal) != len(comp):
            return False
        out_count = {v: 0 for v in comp}
        for e in internal:
            out_count[g.edge_src[e]] += 1
        if any(c != 1 for c in out_count.values()):
            return False
    return True


def _contains_word(edges: tuple, word: tuple) -> bool:
    n = len(word)
    return any(edges[i: i + n] == word for i in range(len(edges) - n + 1))


def paths_into(g: Graph, v: str, forbid_full_cycle: CycleRep | None = None):
    """All paths ending at v, including the lazy path v itself.

    With `forbid_full_cycle=c` (v must be the base of c), paths containing
    the full cycle word of c as a contiguous edge subword are excluded,
    which makes the enumeration finite when v sits on c in a no-exit graph.
    Without it, the territory feeding v must be acyclic.
    """
    if not g.is_vertex(v):
        raise ValueError(f"unknown vertex {v!r}")
    word = None
    bound = len(g.vertices) + 1
    if forbid_full_cycle is not None:
        if forbid_full_cycle.base != v:
            raise PreconditionError(
                f"vertex {v!r} is not the base of the forbidden cycle"
            )
        word = forbid_full_cycle.edges
        bound += len(word)
    else:
        # every ancestor of v must be outside nontrivial SCCs
        on_cycle = cycle_vertices(g)
        frontier = [v]
        ancestors = {v}
        while frontier:
            u = frontier.pop()
            if u in on_cycle:
                raise PreconditionError(
                    f"paths into {v!r} are not finitely enumerable: "
                    f"ancestor {u!r} lies on a cycle"
                )
            for eid in g.in_edges[u]:
                s = g.edge_src[eid]
                if s not in ancestors:
                    ancestors.add(s)
                    frontier.append(s)
    out = []
    frontier = [vertex_path(g, v)]
    while frontier:
        p = frontier.pop()
        out.append(p)
        for eid in g.in_edges[p.src]:
            q = PathSeq(g.edge_src[eid], v, (eid,) + p.edges)
            if word is not None and _contains_word(q.edges, word):
                continue
            if len(q.edges) > bound:
                raise PreconditionError(
                    f"paths into {v!r} exceed length bound {bound}; "
                    "enumeration would be infinite"
                )
            frontier.append(q)
    out.sort(key=path_sort_key)
    return out


# ---------------------------------------------------------------------------
# Closed-path classes
# ---------------------------------------------------------------------------

# Most edge ids, summed over every prefix word built, that one
# `closed_paths_up_to` call may spend; each prefix is a fresh tuple, so the
# sum is its time and memory.
CLOSED_PATH_WORK_LIMIT = 10**7


def closed_paths_up_to(g: Graph, max_len: int):
    """One closed path per rotation class of nonvertex closed paths of length
    <= max_len, each in its least rotation (edge ids compared as strings),
    in (length, edge word) order.

    The words are the necklaces of the Fredricksen-Kessler-Maiorana
    prenecklace tree, walked once per nontrivial SCC over its internal edges
    in string order: a letter extends a prefix only if it composes with the
    prefix's last edge, and a prefix of length t and period p is a necklace
    iff p divides t.  Raises `PreconditionError` once the prefix words built
    hold more than `CLOSED_PATH_WORK_LIMIT` edge ids in total.
    """
    if max_len < 1:
        return []
    src, dst = g.edge_src, g.edge_dst
    out = []
    work = 0
    for comp, internal in _nontrivial_sccs(g):
        letters = sorted(internal)
        # descending, so the stack pops children in increasing order
        outs = {v: [] for v in comp}
        for e in reversed(letters):
            outs[src[e]].append(e)
        stack = [((e,), 1) for e in reversed(letters)]
        while stack:
            word, period = stack.pop()
            t = len(word)
            work += t
            if work > CLOSED_PATH_WORK_LIMIT:
                raise PreconditionError(
                    f"closed paths up to length {max_len} need more than "
                    f"{CLOSED_PATH_WORK_LIMIT} edge ids of enumeration; "
                    "lower --max-len"
                )
            if t % period == 0 and dst[word[-1]] == src[word[0]]:
                out.append(PathSeq(src[word[0]], src[word[0]], word))
            if t == max_len:
                continue
            floor = word[t - period]
            for e in outs[dst[word[-1]]]:
                if e > floor:
                    stack.append((word + (e,), t + 1))
                elif e == floor:
                    stack.append((word + (e,), period))
                else:
                    break
    out.sort(key=path_sort_key)
    return out

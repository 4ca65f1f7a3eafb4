"""Finite directed graphs, paths, cycles, and structural predicates.

Vertices and edges are referred to by string ids; a path is stored as its
source vertex, range vertex, and edge-id sequence, so paths are hashable
values independent of the graph object.  All orderings are deterministic:
declaration order for vertices/edges, then (length, edge ids) for paths.
"""

from __future__ import annotations

import re as _re
from collections import namedtuple
from itertools import chain

from .errors import ParseError, PreconditionError, content_lines

# the id grammar of every format
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ID_RE = _re.compile(_ID)

# Most entries that one per-context memo keeps: a graph's `_paths` and
# `_rotations`, a `PathAlgebra`'s `_expansions` and `_scalars`, and a
# `Decomposition`'s `_expand_cache`; each stores through `_remember`.
_MEMO_CAP = 1024


def _remember(memo: dict, key, value):
    """`value`, stored under `key` while `memo` holds fewer than `_MEMO_CAP`
    entries.  A store follows its size check, so n threads that miss at
    once can leave a shared memo at most `_MEMO_CAP` + n entries."""
    if len(memo) < _MEMO_CAP:
        memo[key] = value
    return value


class Graph:
    """A finite directed graph; immutable after construction.

    `edges` is an iterable of (edge id, source vertex, range vertex), read
    once.  Ids must be unique across vertices and edges together, which
    keeps the element-expression grammar unambiguous; `_build` raises
    `ValueError` with the texts of `parse_graph`, without line numbers.

    The private `_sccs` is None until `_nontrivial_sccs` fills it on first
    use, and `_exit` None until `cycle_with_exit_witness` keeps its answer
    there, as a 1-tuple.  `_paths` maps each element-expression path text
    that resolved, such as `"e/f"` or `"e / f"`, to its `PathSeq`, and
    `_rotations` each closing word that `gis.classify_eq` met, plain or
    starred, to its class; both store through `_remember`.  A class depends
    on the word alone, so copies may share or carry it.  None of the four
    changes what a public attribute holds.  So a deep copy is the graph
    itself.
    """

    def __init__(self, vertices, edges):
        edges = ((eid, src, dst) for eid, src, dst in edges)
        self._build(chain(((v,) for v in vertices), edges))

    def _build(self, declarations):
        """Fill the tables from declarations, a vertex (id,) or an edge (id,
        src, dst), in their order, each checked against the tables so far:
        its id matches `_ID` and is in neither `out_edges` nor `edge_src`,
        and each endpoint is a key of `out_edges`, so an edge id there reads
        as an undeclared vertex."""
        out_edges = {}
        in_edges = {}
        self.edge_src = edge_src = {}
        self.edge_dst = edge_dst = {}
        for decl in declarations:
            name = decl[0]
            if not _ID_RE.fullmatch(name):
                raise ValueError(f"bad id {name!r}")
            if name in out_edges or name in edge_src:
                raise ValueError(f"duplicate id {name!r}")
            if len(decl) == 1:
                out_edges[name] = []
                in_edges[name] = []
                continue
            _, src, dst = decl
            for v in (src, dst):
                if v not in out_edges:
                    raise ValueError(f"undeclared vertex {v!r}")
            edge_src[name] = src
            edge_dst[name] = dst
            out_edges[src].append(name)
            in_edges[dst].append(name)
        self.vertices = tuple(out_edges)
        self.edges = tuple(edge_src)
        self.out_edges = {v: tuple(es) for v, es in out_edges.items()}
        self.in_edges = {v: tuple(es) for v, es in in_edges.items()}
        self._sccs = None
        self._exit = None
        self._paths = {}
        self._rotations = {}

    def __deepcopy__(self, memo):
        return self

    def is_vertex(self, name: str) -> bool:
        return name in self.out_edges

    def is_edge(self, name: str) -> bool:
        return name in self.edge_src

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class PathSeq(namedtuple("PathSeq", "src dst edges")):
    """A path: a lone vertex (no edges) or a composable edge sequence.

    A named tuple, so hashing and equality run in C; it is equal to the
    plain tuple (src, dst, edges), so no dict should mix the two as keys.
    `len` counts the edges, so `_make` (and `_replace` through it) builds
    through `__new__` rather than check the length namedtuple's way.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


def path_sort_key(p: PathSeq):
    return (len(p.edges), p.edges, p.src)


def format_path(p: PathSeq) -> str:
    return p.src if p.is_vertex else "/".join(p.edges)


def _least_rotation(word: tuple) -> tuple:
    """The lexicographically least rotation of a nonempty word, in O(n).

    A least letter that occurs once starts it; that covers every simple
    cycle, whose edge ids are distinct.  Other words go to Booth's
    algorithm.
    """
    least = min(word)
    k = word.index(least) if word.count(least) == 1 else _booth(word)
    return word[k:] + word[:k]


def _booth(word: tuple) -> int:
    """Start of the least rotation: Booth, Inf. Proc. Letters 10(4), 1980.

    A failure function runs over the doubled word; `k` is the start of the
    least rotation seen so far, so the scan makes O(n) comparisons.
    """
    s = word + word
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _least_rotation_path(g: Graph, word: tuple) -> PathSeq:
    """The closed path of a nonempty closed edge word, in its least rotation."""
    word = _least_rotation(word)
    base = g.edge_src[word[0]]
    return PathSeq(base, base, word)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    `v <id>` declares a vertex, `e <id> <src> <dst>` an edge, and `#` starts
    a comment (`errors.content_lines`).  Declaration order is preserved, and
    an edge's endpoints must be declared on earlier lines.
    """
    lineno = None

    def declarations():
        nonlocal lineno
        for lineno, line in content_lines(text):
            kind, *decl = line.split()
            if kind == "v":
                if len(decl) != 1:
                    raise ValueError("expected `v <id>`")
            elif kind == "e":
                if len(decl) != 3:
                    raise ValueError("expected `e <id> <src> <dst>`")
            else:
                raise ValueError(f"unknown declaration {kind!r}")
            yield decl

    g = Graph.__new__(Graph)
    try:
        # read lazily, so a fault belongs to the line read last
        g._build(declarations())
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return g


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
    """Tarjan's pass (SIAM J. Comput. 1(2), 1972), iterative: the SCCs
    reached from `vertices` over `out_edges`, in reverse topological order.

    `index` numbers the vertices as the walk reaches them, so the next
    number is `len(index)`, and `stack` holds the reached vertices whose
    component is not yet emitted, in that order: a component is the slice
    from its root to the end.  An edge to w lowers v's lowlink to w's,
    never below the index of their component's root, so the roots are
    Tarjan's.  Invariant: an emitted vertex takes the lowlink `done` =
    `len(out_edges)`, above every index the pass hands out, since each
    vertex reached is a key of `out_edges` (`vertices` may hold fewer); so
    no later min picks it, and a lowlink below `done` marks a vertex on
    the stack.
    """
    index = {}
    lowlink = {}
    stack = []
    components = []
    done = len(out_edges)
    for root in vertices:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        work = [(root, iter(out_edges[root]))]
        while work:
            v, it = work[-1]
            for eid in it:
                w = edge_dst[eid]
                if w not in index:
                    index[w] = lowlink[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(out_edges[w])))
                    break
                if lowlink[w] < lowlink[v]:
                    lowlink[v] = lowlink[w]
            else:
                work.pop()
                if work and lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
                if lowlink[v] == index[v]:
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    for w in stack[i:]:
                        lowlink[w] = done
                    components.append(frozenset(stack[i:]))
                    del stack[i:]
    return components


def _nontrivial_sccs(g: Graph) -> tuple:
    """SCCs containing at least one internal edge (including a self-loop),
    each with its internal edges in declaration order; O(V + E) on the first
    call, which keeps the result on `g` for every later one.
    """
    if g._sccs is None:
        g._sccs = _with_internal_edges(g, strongly_connected_components(g), g.edges)
    return g._sccs


def _with_internal_edges(g: Graph, comps, edges) -> tuple:
    """(component, its edges among `edges`) for each component with one."""
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    internal = [[] for _ in comps]
    for e in edges:
        i = comp_of[g.edge_src[e]]
        if comp_of[g.edge_dst[e]] == i:
            internal[i].append(e)
    return tuple((comp, tuple(es)) for comp, es in zip(comps, internal) if es)


def _work_limit_error(what: str, g: Graph, limit: int) -> PreconditionError:
    """The error for an enumeration whose results pass `limit` edge ids."""
    return PreconditionError(
        f"{what} of a graph with {len(g.vertices)} vertices and "
        f"{len(g.edges)} edges hold more than {limit} edge ids"
    )


# Most edge ids, summed over the cycles of every nontrivial SCC that is not
# itself one cycle, that one `cycles` call may return.  The loopless
# complete digraph K8 has 109,592, K9 986,400.
CYCLE_WORK_LIMIT = 500_000


def cycles(g: Graph):
    """All simple cycles, each a closed path in its least rotation, sorted by
    length and then by edge word, ids compared as strings (so `e10` comes
    before `e2`), whatever their declaration order.

    A nontrivial SCC with as many internal edges as vertices is one cycle,
    walked from its least edge in O(V + E); every SCC of a no-exit graph is
    one.  The others go to Johnson's algorithm (SIAM J. Comput. 4(1), 1975),
    one search per internal edge e in string order: CIRCUIT from the source
    of e, with e as the first edge, over the edges not yet dropped, after
    which e is dropped.  So e is the least edge of every cycle the search
    lists: each comes in its least rotation, and the depth-first order over
    ascending out-edges is word order.  An edge e into a vertex whose edges
    are all dropped lies on no cycle left, so e is dropped unsearched: on
    the complete digraph K_n, once v0's edges are searched every edge into
    v0 goes so, and so on down, which takes one Tarjan pass and n(n - 1)/2
    searches, none of them empty.  A search that does list nothing splits
    the edges left into SCCs once, and each nontrivial one is taken up in
    turn; its first search lists a cycle through its least edge, so failed
    searches are no more than the others, and the time stays
    O((V + E)(C + 1)) for C cycles.  Raises `PreconditionError` once the
    cycles of the SCCs that are not one cycle, self-loops and cycles left
    alone by a split included, hold more than `CYCLE_WORK_LIMIT` edge ids
    in total; the sum does not depend on the order of the search, and each
    cycle is charged as the search closes it, so the call stops there.
    """
    words = []
    budget = CYCLE_WORK_LIMIT
    for comp, internal in _nontrivial_sccs(g):
        if len(internal) == len(comp):
            words.append(_cycle_word(g, internal))
            continue
        budget = _simple_cycles(g, comp, internal, words, budget)
        if budget < 0:
            raise _work_limit_error("simple cycles", g, CYCLE_WORK_LIMIT)
    return _closed_paths(g, words)


def _cycle_word(g: Graph, internal) -> tuple:
    """The edge word, from its least edge, of a component that is one cycle
    with edges `internal`."""
    step = {g.edge_src[e]: e for e in internal}
    word = [min(internal)]
    for _ in range(len(internal) - 1):
        word.append(step[g.edge_dst[word[-1]]])
    return tuple(word)


def _simple_cycles(g: Graph, comp, internal, words: list, budget: int) -> int:
    """Append to `words` every simple cycle of one nontrivial SCC that is
    not one cycle, as its edge word from its least edge: the searches, the
    edges dropped unsearched, the splits and the walks of `cycles`.
    Returns `budget` less the edge ids appended, or a negative number as
    soon as they pass it, when it stops.
    """
    src, dst = g.edge_src, g.edge_dst
    pending = [(comp, internal)]
    while pending:
        comp, internal = pending.pop()
        if len(internal) == len(comp):  # left alone by a split
            words.append(_cycle_word(g, internal))
            budget -= len(internal)
            if budget < 0:
                return budget
            continue
        letters, local, out = _component_table(g, comp, internal)
        blocked = [False] * len(local)
        for i, e in enumerate(letters):
            start, end = local[src[e]], local[dst[e]]
            if not out[end]:  # every edge out of `end` is searched and dropped
                out[start].pop()
                continue
            listed = len(words)
            budget = _circuits(e, start, end, out, blocked, words, budget)
            if budget < 0:
                return budget
            out[start].pop()
            if len(words) == listed:
                rest = letters[i + 1:]
                heads = dict.fromkeys(src[f] for f in rest)
                left = {v: [] for v in local}
                for f in reversed(rest):
                    left[src[f]].append(f)
                sub = _tarjan(heads, left, dst)
                pending += _with_internal_edges(g, sub, rest)
                break
    return budget


def _component_table(g: Graph, comp, internal):
    """The table that `cycles` and `closed_paths_up_to` walk one nontrivial
    SCC by: its internal edges sorted as strings, a local number for each
    vertex of `comp` (in its iteration order), and for each local number
    the (edge, local range) pairs leaving it, in descending string order so
    that the least edge is last.  The local numbers only index the lists;
    every order comes from the edge ids.
    """
    letters = sorted(internal)
    local = dict(zip(comp, range(len(comp))))
    out = [[] for _ in local]
    src, dst = g.edge_src, g.edge_dst
    for e in reversed(letters):
        out[local[src[e]]].append((e, local[dst[e]]))
    return letters, local, out


def _closed_paths(g: Graph, words: list) -> list:
    """The closed paths of nonempty closed edge words, in (length, word)
    order: `path_sort_key`'s order, since a closed word fixes its base.
    Sorts `words` in place, by word and then stably by length, both in C,
    which beats one sort keyed on (length, word), whose key runs in Python.
    Each path is built by `tuple.__new__`, not namedtuple's Python-level
    `__new__`.
    """
    words.sort()
    words.sort(key=len)
    src, new = g.edge_src, tuple.__new__
    return [new(PathSeq, (src[w[0]], src[w[0]], w)) for w in words]


def _circuits(first, start, v, out, blocked, words, budget):
    """Johnson's CIRCUIT, iterative: every simple cycle that leaves local
    vertex `start` by edge `first` to local vertex `v`, over the (edge,
    range) lists `out` of `_component_table`, held in descending order and
    read ascending, each appended to `words` as an edge-id tuple.  Returns
    `budget` less the edge ids appended, or a negative number as soon as
    they pass it, when it stops at once, with vertices still blocked.

    A vertex stays blocked while every path from it back to the source
    meets the current trail; `blocked_by[w]` lists the vertices to unblock
    with w.  `blocked` holds a bool per local vertex, all False on entry
    and again on exit: a frame that closes a cycle unblocks its vertex, and
    the search ends by clearing the source and the vertices of the frames
    that closed none.  So a search costs nothing per vertex it never
    reaches.
    """
    if v == start:
        words.append((first,))
        return budget - 1
    trail = [first]  # edges from `start` to the vertex of the top frame
    frames = [(v, reversed(out[v]))]
    closed = [False]  # whether a cycle was found below each frame
    stuck = [start]  # vertices that may still be blocked when the search ends
    blocked[start] = blocked[v] = True
    blocked_by = {}
    while frames:
        v, remaining = frames[-1]
        for eid, w in remaining:
            if blocked[w]:
                if w == start:
                    words.append((*trail, eid))
                    budget -= len(trail) + 1
                    if budget < 0:
                        return budget
                    closed[-1] = True
            else:
                trail.append(eid)
                frames.append((w, reversed(out[w])))
                closed.append(False)
                blocked[w] = True
                break
        else:
            frames.pop()
            trail.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                blocked[v] = False
                if v in blocked_by:  # most frames that close unblock no other
                    unblock = [*blocked_by.pop(v)]
                    while unblock:
                        u = unblock.pop()
                        if blocked[u]:
                            blocked[u] = False
                            unblock += blocked_by.pop(u, ())
            else:
                stuck.append(v)
                for _, w in out[v]:
                    if w in blocked_by:
                        blocked_by[w].add(v)
                    else:
                        blocked_by[w] = {v}
    for u in stuck:
        blocked[u] = False
    return budget


def is_no_exit(g: Graph) -> bool:
    """True iff every vertex on a cycle has out-degree exactly one."""
    return cycle_with_exit_witness(g) is None


def cycle_with_exit_witness(g: Graph):
    """A (cycle, exit edge) pair witnessing failure of no-exit, or None.

    `_exit_witness` finds it on the first call, which keeps it on `g` for
    every later one.
    """
    if g._exit is None:
        g._exit = (_exit_witness(g),)
    return g._exit[0]


def _exit_error(g: Graph) -> PreconditionError:
    """The error for a graph where a cycle has an exit, naming the pair
    that `cycle_with_exit_witness` finds."""
    cyc, exit_edge = cycle_with_exit_witness(g)
    return PreconditionError(
        f"graph is not no-exit: cycle {'/'.join(cyc.edges)} has exit {exit_edge}"
    )


def _exit_witness(g: Graph):
    """The first vertex of a nontrivial SCC with two or more out-edges lies
    on a cycle with an exit there; a breadth-first search inside the SCC
    back to the vertex finds a simple one (a tree path closed by one edge)
    in O(V + E).
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
                return _least_rotation_path(g, tuple(trail[::-1])), exit_edge
            if w in comp_of[base] and w not in reached_by:
                reached_by[w] = eid
                queue.append(w)


def infinite_paths_tame(g: Graph) -> bool:
    """Whether every infinite path is eventually trapped in a single cycle.

    For a finite graph this holds iff each nontrivial SCC is exactly one
    simple cycle: one internal out-edge per vertex.  In a nontrivial SCC
    every vertex has at least one internal out-edge, so that is the case
    exactly when the SCC has as many internal edges as vertices.
    """
    return all(len(internal) == len(comp) for comp, internal in _nontrivial_sccs(g))


# Most edge ids, summed over the paths built, that one `paths_into` call, or
# one `structure.decompose` over all its blocks, may return.  A chain of n
# double edges holds (n - 1) 2^(n+1) + 2 into its end: 917,506 at n = 15,
# 1,966,082 at n = 16.
PATHS_INTO_WORK_LIMIT = 10**6


def paths_into(g: Graph, v: str, forbid_full_cycle: PathSeq | None = None):
    """All paths ending at v, including the lazy path v itself.

    With `forbid_full_cycle=c`, a closed path at v, paths containing the
    edge word of c as a contiguous subword are excluded, which makes the
    enumeration finite when v sits on c in a no-exit graph.  Without it, the
    territory feeding v must be acyclic.  Raises `PreconditionError` once a
    path is longer than any finite enumeration allows, or once the paths
    hold more than `PATHS_INTO_WORK_LIMIT` edge ids in total, so a cyclic
    territory ends in one of the two.
    """
    start = vertex_path(g, v)
    word = None
    bound = len(g.vertices) + 1
    if forbid_full_cycle is not None:
        if forbid_full_cycle.src != v:
            raise PreconditionError(
                f"vertex {v!r} is not the base of the forbidden cycle"
            )
        word = forbid_full_cycle.edges
        bound += len(word)
    out = []
    size = 0
    frontier = [start]
    while frontier:
        p = frontier.pop()
        out.append(p)
        for eid in g.in_edges[p.src]:
            q = PathSeq(g.edge_src[eid], v, (eid,) + p.edges)
            # p holds no copy of the word, so a copy in q is its prefix
            if word is not None and q.edges[:len(word)] == word:
                continue
            if len(q.edges) > bound:
                raise PreconditionError(
                    f"paths into {v!r} exceed length bound {bound}; "
                    "enumeration would be infinite"
                )
            size += len(q.edges)
            if size > PATHS_INTO_WORK_LIMIT:
                raise _work_limit_error(f"paths into {v!r}", g, PATHS_INTO_WORK_LIMIT)
            frontier.append(q)
    out.sort(key=path_sort_key)
    return out


# ---------------------------------------------------------------------------
# Closed-path classes
# ---------------------------------------------------------------------------

# Most edge ids, summed over every prefix word that the walk of one
# `closed_paths_up_to` call reaches, built or not, that the call may spend;
# each prefix below the last level is a fresh tuple, so the sum bounds its
# time and memory.
CLOSED_PATH_WORK_LIMIT = 10**7


def closed_paths_up_to(g: Graph, max_len: int):
    """One closed path per rotation class of nonvertex closed paths of length
    <= max_len, each in its least rotation, sorted by length and then by
    edge word; edge ids are compared as strings throughout, so `e10` comes
    before `e2`, whatever their declaration order.

    The words are the necklaces of the Fredricksen-Kessler-Maiorana
    prenecklace tree, walked once per nontrivial SCC over its internal edges
    in string order (`_component_table`): a letter extends a prefix only if
    it composes with the prefix's last edge, and a prefix of length t and
    period p is a necklace iff p divides t.  A prefix of length max_len - 1
    builds only its children that close at the word's start.  Every prefix
    the walk reaches is charged its length, built or not, and the call
    raises `PreconditionError` once the charges pass
    `CLOSED_PATH_WORK_LIMIT` edge ids.
    """
    if max_len < 1:
        return []
    src, dst = g.edge_src, g.edge_dst
    words = []
    work = 0
    for comp, internal in _nontrivial_sccs(g):
        letters, local, out = _component_table(g, comp, internal)
        for first in letters:
            home = local[src[first]]
            # (prefix, its period, its local range); children are pushed in
            # descending order, so the stack pops them in increasing order
            stack = [((first,), 1, local[dst[first]])]
            while stack:
                word, period, v = stack.pop()
                t = len(word)
                work += t
                if t % period == 0 and v == home:
                    words.append(word)
                floor = word[t - period]
                if t + 1 == max_len:
                    # the last level: each child is charged as if built,
                    # and only the necklaces that close are
                    for e, w in out[v]:
                        if e < floor:
                            break
                        work += max_len
                        if w == home and (e > floor or max_len % period == 0):
                            words.append(word + (e,))
                elif t < max_len:
                    for e, w in out[v]:
                        if e > floor:
                            stack.append((word + (e,), t + 1, w))
                        elif e == floor:
                            stack.append((word + (e,), period, w))
                        else:
                            break
                if work > CLOSED_PATH_WORK_LIMIT:
                    raise PreconditionError(
                        f"closed paths up to length {max_len} need more than "
                        f"{CLOSED_PATH_WORK_LIMIT} edge ids of enumeration; "
                        "lower --max-len"
                    )
    return _closed_paths(g, words)

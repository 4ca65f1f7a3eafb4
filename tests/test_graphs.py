import hashlib
import itertools
import re
import time

import pytest

from lpatrace import graphs
from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import approx_canonical
from lpatrace.graphs import (
    Graph,
    PathSeq,
    _least_rotation,
    _nontrivial_sccs,
    closed_paths_up_to,
    cycle_with_exit_witness,
    cycles,
    edge_path,
    format_path,
    infinite_paths_tame,
    is_no_exit,
    parse_graph,
    paths_into,
    regular_vertices,
    sinks,
    strongly_connected_components,
    vertex_path,
)

from conftest import (
    GRAPHS,
    _reach,
    all_paths_up_to,
    complete_digraph,
    cycle_rep,
    cycles_reference,
    fresh_rng,
    is_no_exit_reference,
    is_tame_reference,
    path_concat,
    ring,
    small_graphs,
    two_cycle_chain_text,
)


def test_parse_graph_examples():
    g = parse_graph("v a\nv b\ne f a b")
    assert g.vertices == ("a", "b") and g.edges == ("f",)
    single = parse_graph("v a")
    assert sinks(single) == ("a",)
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("e f a b")
    # the edges are read once, so a generator is enough
    gen = Graph(["a", "b"], ((e, s, d) for e, s, d in [("e", "a", "b")]))
    assert gen.edges == ("e",) and gen.edge_src == {"e": "a"}
    assert gen.out_edges == {"a": ("e",), "b": ()}


def test_graph_ids_are_whole_strings():
    # a `$` anchor would also match before a final newline
    # `Graph` raises the texts of `parse_graph`, without a line number
    with pytest.raises(ValueError, match=re.escape(r"bad id 'v\n'")):
        Graph(["v\n"], [("e", "v\n", "v\n")])
    with pytest.raises(ValueError, match=re.escape(r"bad id 'e\n'")):
        Graph(["v"], [("e\n", "v", "v")])
    with pytest.raises(ValueError, match="bad id"):
        Graph(["v\n\n"], [])
    with pytest.raises(ValueError, match=re.escape("undeclared vertex 'w'")):
        Graph(["v"], [("e", "v", "w")])
    assert Graph(["v_1"], [("_e", "v_1", "v_1")]).edges == ("_e",)


def test_graph_edges_are_triples():
    for edge in [("e",), ("e", "a"), ("e", "a", "a", "a")]:
        with pytest.raises(ValueError):
            Graph(["a"], [edge])


def test_parse_graph_matches_each_id_once(id_matches):
    n = 2000
    text = "\n".join([f"v a{i}" for i in range(n)]
                     + [f"e e{i} a{i} a{(i + 1) % n}" for i in range(n)])
    g = parse_graph(text)
    assert len(g.vertices) == len(g.edges) == n
    assert id_matches == [f"a{i}" for i in range(n)] + [f"e{i}" for i in range(n)]


def test_small_graphs_are_every_multigraph():
    """Every graph with 1-3 vertices and at most 4 edges, loops and parallel
    edges allowed: C(k + m - 1, m) multisets of m of the k ordered pairs."""
    gs = small_graphs()
    assert len(gs) == 790
    assert len({(g.vertices, tuple(g.edge_src.items()), tuple(g.edge_dst.items()))
                for g in gs}) == 790
    assert [is_no_exit(g) for g in gs] == [is_no_exit_reference(g) for g in gs]
    assert sum(map(is_no_exit, gs)) == 274


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: duplicate"):
        parse_graph("v a\nv a")
    with pytest.raises(ParseError, match="line 3: undeclared"):
        parse_graph("v a\nv b\ne f a c")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("w a")
    # comments and blanks are fine
    g = parse_graph("# header\n\nv a  # trailing\nv b\ne f a b\n")
    assert g.edges == ("f",)


def test_sinks_and_regular_vertices():
    line = GRAPHS["line2"]
    assert sinks(line) == ("b",) and regular_vertices(line) == ("a",)
    loop = GRAPHS["one_loop"]
    assert sinks(loop) == () and regular_vertices(loop) == ("v",)
    isolated = parse_graph("v a")
    assert sinks(isolated) == ("a",)


def test_cycles_examples():
    assert cycles(GRAPHS["line3"]) == []
    loop_cycles = cycles(GRAPHS["one_loop"])
    assert [c.edges for c in loop_cycles] == [("e",)]
    rose_cycles = cycles(GRAPHS["rose2"])
    assert sorted(c.edges for c in rose_cycles) == [("e",), ("f",)]
    two = cycles(GRAPHS["two_cycle"])
    assert [c.edges for c in two] == [("e1", "e2")]


def test_cycle_canonical_rotation_invariance():
    for name in ("one_loop", "two_cycle", "rose2", "mixed", "tail_loop"):
        g = GRAPHS[name]
        for c in cycles(g):
            word = c.edges
            for i in range(len(word)):
                rotated = word[i:] + word[:i]
                assert cycle_rep(g, rotated) == c


def test_cycle_rep_rejects_nonsimple():
    g = GRAPHS["one_loop"]
    with pytest.raises(ValueError):
        cycle_rep(g, ("e", "e"))
    line = GRAPHS["line2"]
    with pytest.raises(ValueError):
        cycle_rep(line, ("f",))


def test_is_no_exit_examples():
    assert is_no_exit(GRAPHS["one_loop"])
    assert not is_no_exit(GRAPHS["rose2"])
    assert is_no_exit(GRAPHS["line2"])
    assert is_no_exit(GRAPHS["tail_loop"])
    assert not is_no_exit(GRAPHS["loop_exit"])
    cyc, exit_edge = cycle_with_exit_witness(GRAPHS["loop_exit"])
    assert cyc.edges == ("e",) and exit_edge == "x"


def test_infinite_paths_tame_examples():
    assert infinite_paths_tame(GRAPHS["one_loop"])
    assert not infinite_paths_tame(GRAPHS["rose2"])
    assert infinite_paths_tame(GRAPHS["line3"])


def test_no_exit_implies_tame_on_corpus():
    for name, g in GRAPHS.items():
        if is_no_exit(g):
            assert infinite_paths_tame(g), name


def test_paths_into_examples():
    line = GRAPHS["line2"]
    got = paths_into(line, "b")
    assert [format_path(p) for p in got] == ["b", "f"]

    loop = GRAPHS["one_loop"]
    (c,) = cycles(loop)
    assert [format_path(p) for p in paths_into(loop, "v", c)] == ["v"]

    line3 = GRAPHS["line3"]
    assert [format_path(p) for p in paths_into(line3, "c")] == ["c", "g", "f/g"]


def test_paths_into_guards_against_infinite_enumeration():
    loop = GRAPHS["one_loop"]
    with pytest.raises(PreconditionError):
        paths_into(loop, "v")
    tail = GRAPHS["tail_loop"]
    with pytest.raises(PreconditionError):
        paths_into(tail, "v")
    k20 = parse_graph(
        "".join(f"v a{i}\n" for i in range(20))
        + "".join(f"e e{i}_{j} a{i} a{j}\n"
                  for i in range(20) for j in range(20) if i != j)
    )
    with pytest.raises(PreconditionError):
        paths_into(k20, "a0")
    # a0 => a1 => ... => a16, with a loop at a16
    chain = parse_graph(
        "".join(f"v a{i}\n" for i in range(17))
        + "".join(f"e {x}{i} a{i} a{i + 1}\n" for i in range(16) for x in "fg")
        + "e loop a16 a16"
    )
    with pytest.raises(PreconditionError):
        paths_into(chain, "a16")


def test_paths_into_limit_counts_edge_ids_of_paths_built(monkeypatch):
    # a => b => c => d => e: 31 paths into e holding 3 * 2^5 + 2 = 98 edge ids
    g = parse_graph(
        "v a\nv b\nv c\nv d\nv e\n"
        + "".join(f"e {x}{i} {s} {d}\n" for i, (s, d) in enumerate(
            ["ab", "bc", "cd", "de"]) for x in "fg")
    )
    monkeypatch.setattr(graphs, "PATHS_INTO_WORK_LIMIT", 98)
    got = paths_into(g, "e")
    assert len(got) == 31 and sum(len(p) for p in got) == 98
    monkeypatch.setattr(graphs, "PATHS_INTO_WORK_LIMIT", 97)
    with pytest.raises(PreconditionError, match=re.escape(
        "paths into 'e' of a graph with 5 vertices and 8 edges hold more than "
        "97 edge ids"
    )):
        paths_into(g, "e")


def test_cycles_limit_counts_edge_ids_of_cycles_listed(monkeypatch):
    g = parse_graph("v u\nv w\ne e1 u w\ne e2 w u\ne e3 u u")  # 3 edge ids
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 3)
    assert sum(map(len, cycles(g))) == 3
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 2)
    with pytest.raises(PreconditionError, match=re.escape(
        "simple cycles of a graph with 2 vertices and 3 edges hold more than "
        "2 edge ids"
    )):
        cycles(g)
    # p's search lists p/q; q is dropped unsearched, since p was a's one
    # edge, and r's search lists r/s, which counts too: 4 edge ids
    g = parse_graph("v a\nv b\nv c\ne p a b\ne q b a\ne r b c\ne s c b")
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 4)
    assert [c.edges for c in cycles(g)] == [("p", "q"), ("r", "s")]
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 3)
    with pytest.raises(PreconditionError, match="simple cycles of a graph"):
        cycles(g)


def test_cycles_limit_counts_a_cycle_that_a_split_leaves_alone(
    monkeypatch, cycle_search_work
):
    # p's search lists p/q and p/r/s; q is dropped unsearched, as a has no
    # edge left; r's search lists nothing, and the split of s, t, u leaves
    # t/u as one cycle, which counts too: 2 + 3 + 2 = 7 edge ids
    g = parse_graph(
        "v a\nv b\nv c\nv d\n"
        "e p a b\ne q b a\ne r b c\ne s c a\ne t c d\ne u d c"
    )
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 7)
    assert [c.edges for c in cycles(g)] == [("p", "q"), ("t", "u"), ("p", "r", "s")]
    assert cycle_search_work == {"tarjan": [4, 2], "searches": [2, 0], "components": [1, 1]}
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 6)
    with pytest.raises(PreconditionError, match=re.escape(
        "simple cycles of a graph with 4 vertices and 6 edges hold more than "
        "6 edge ids"
    )):
        cycles(g)


def test_cycles_limit_stops_the_search_where_the_sum_passes_it(
    monkeypatch, cycle_search_work
):
    # each cycle is charged as it closes: K6's first search, from e0_1,
    # stops at its fourth cycle (2 + 3 + 4 + 5 = 14 edge ids), where it
    # would list all 65 cycles through e0_1
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 10)
    with pytest.raises(PreconditionError, match="more than 10 edge ids"):
        cycles(complete_digraph(6))
    assert cycle_search_work["searches"] == [4]


def test_closed_paths_limit_counts_every_prefix_reached(monkeypatch):
    """Every prefix the necklace walk reaches is charged its length, built
    or not: at each threshold the call returns the brute-force classes, and
    one below it raises."""
    rose3 = parse_graph("v v\ne a v v\ne b v v\ne c v v")
    three = parse_graph(
        "v a\nv b\nv c\ne p a b\ne q b a\ne r b c\ne s c b\ne t c c\ne u a a"
    )
    cases = [
        (complete_digraph(4), 5, 1492),
        (complete_digraph(5), 5, 6750),
        (rose3, 4, 185),
        (three, 3, 50),
        (three, 6, 508),
    ]
    for g, max_len, limit in cases:
        monkeypatch.setattr(graphs, "CLOSED_PATH_WORK_LIMIT", limit)
        got = closed_paths_up_to(g, max_len)
        assert [p.edges for p in got] == _closed_classes_reference(g, max_len)
        monkeypatch.setattr(graphs, "CLOSED_PATH_WORK_LIMIT", limit - 1)
        with pytest.raises(PreconditionError, match=re.escape(
            f"closed paths up to length {max_len} need more than {limit - 1} "
            "edge ids of enumeration; lower --max-len"
        )):
            closed_paths_up_to(g, max_len)


def test_paths_into_endpoints_and_filter():
    for name in ("line2", "line3", "tree", "disjoint", "mixed"):
        g = GRAPHS[name]
        for s in sinks(g):
            for p in paths_into(g, s):
                assert p.dst == s
    for name in ("one_loop", "two_cycle", "tail_loop", "mixed"):
        g = GRAPHS[name]
        for c in cycles(g):
            word = c.edges
            for p in paths_into(g, c.src, c):
                assert p.dst == c.src and not _holds(p.edges, word)


def test_paths_into_with_forbidden_cycle_is_complete():
    # in a no-exit graph a path into a cycle's base that avoids the cycle's
    # word runs down an acyclic tail, then less than once round the cycle,
    # so every such path is shorter than V + |word| edges
    def check(g, c):
        cap = len(g.vertices) + len(c.edges)
        want = [
            p for p in all_paths_up_to(g, cap)
            if p.dst == c.src and not _holds(p.edges, c.edges)
        ]
        assert all(len(p) < cap for p in want)
        assert paths_into(g, c.src, c) == want

    checked = 0
    for g in small_graphs():
        if is_no_exit_reference(g):
            checked += 1
            for word in cycles_reference(g):
                check(g, edge_path(g, word))
    assert checked == 274
    # a 5-cycle c0 => ... => c4 => c0, entered at c2 by t0 => ... => t29 => c2
    g = parse_graph(
        "".join(f"v c{i}\n" for i in range(5))
        + "".join(f"v t{i}\n" for i in range(30))
        + "".join(f"e x{i} c{i} c{(i + 1) % 5}\n" for i in range(5))
        + "".join(f"e y{i} t{i} t{i + 1}\n" for i in range(29))
        + "e y29 t29 c2"
    )
    (c,) = cycles(g)
    assert c.src == "c0"
    check(g, c)


def _holds(edges, word):
    n = len(word)
    return any(edges[i: i + n] == word for i in range(len(edges) - n + 1))


def test_path_building_and_concat():
    g = GRAPHS["line3"]
    p = edge_path(g, ["f"])
    q = edge_path(g, ["g"])
    assert path_concat(p, q).edges == ("f", "g")
    with pytest.raises(ValueError):
        path_concat(q, p)
    with pytest.raises(ValueError):
        edge_path(g, ["f", "f"])
    v = vertex_path(g, "a")
    assert v.is_vertex and v.is_closed


def test_paths_into_forbid_base_must_match():
    g = GRAPHS["two_cycle"]
    (c,) = cycles(g)
    assert c.src == "u"
    with pytest.raises(PreconditionError):
        paths_into(g, "w", c)


def test_cycles_with_parallel_edges():
    g = parse_graph(
        "v u\nv w\ne e1 u w\ne e3 u w\ne e2 w u"
    )
    found = sorted(c.edges for c in cycles(g))
    assert found == [("e1", "e2"), ("e2", "e3")]
    assert not is_no_exit(g)
    cyc, exit_edge = cycle_with_exit_witness(g)
    assert exit_edge in ("e1", "e3")


def test_exit_witness_is_a_simple_cycle_with_an_exit():
    k9 = complete_digraph(9)
    start = time.perf_counter()
    cycle_with_exit_witness(k9)
    # finding it by listing all 125664 simple cycles of K9 takes about 2 s
    assert time.perf_counter() - start < 0.5
    corpus = dict(GRAPHS, K9=k9, parallel=parse_graph(
        "v u\nv w\ne e1 u w\ne e3 u w\ne e2 w u"
    ))
    for name, g in corpus.items():
        witness = cycle_with_exit_witness(g)
        assert (witness is None) == is_no_exit(g), name
        if witness is None:
            continue
        cyc, exit_edge = witness
        edges = cyc.edges
        sources = [g.edge_src[e] for e in edges]
        assert all(
            g.edge_dst[e] == sources[(i + 1) % len(edges)]
            for i, e in enumerate(edges)
        ), name
        assert len(set(sources)) == len(sources), name
        assert g.edge_src[exit_edge] in sources and exit_edge not in edges, name


# Declared out of string order: "e10" < "e2" and "a" < "b" as strings.
_EDGE_IDS = ("b", "a", "e2", "e10", "e1", "e20", "x", "e3", "f", "e11")


def _random_graph(rng):
    """Up to 5 vertices and 9 edges, out-degree at most 2, with self-loops,
    parallel edges, several SCCs and acyclic tails all likely."""
    vs = [f"v{i}" for i in range(rng.randint(1, 5))]
    ids = list(_EDGE_IDS)
    rng.shuffle(ids)
    free = vs * 2  # each vertex may be the source of two edges
    edges = []
    for eid in ids[: rng.randint(0, min(9, len(free)))]:
        src = free.pop(rng.randrange(len(free)))
        edges.append((eid, src, rng.choice(vs)))
    return Graph(vs, edges)


def _oracle_corpus(rng, n_random):
    corpus = dict(GRAPHS)
    corpus["b_before_a"] = parse_graph(
        "v u\nv w\ne b u w\ne a w u\ne e10 u u\ne e2 u u\ne e1 w w"
    )
    corpus["rose3"] = parse_graph("v v\ne e2 v v\ne e10 v v\ne a v v")
    corpus["two_sccs_tails"] = parse_graph(
        "v s\nv u\nv w\nv x\nv y\nv t\n"
        "e e2 s u\ne e10 u w\ne b w u\ne a w u\ne c w x\n"
        "e e1 x y\ne d y x\ne d2 y y\ne z y t"
    )
    for i in range(n_random):
        corpus[f"random{i}"] = _random_graph(rng)
    return corpus


def test_no_exit_and_tameness_match_brute_force_references():
    rng = fresh_rng(61)
    for _ in range(3000):
        vs = [f"v{i}" for i in range(rng.randint(1, 7))]
        g = Graph(vs, [
            (f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(0, 12))
        ])
        assert is_no_exit(g) == is_no_exit_reference(g), g
        assert infinite_paths_tame(g) == is_tame_reference(g), g


def test_nontrivial_sccs_match_per_scc_edge_scan():
    for name, g in _oracle_corpus(fresh_rng(60), 300).items():
        scan = []
        for comp in strongly_connected_components(g):
            internal = tuple(
                e for e in g.edges
                if g.edge_src[e] in comp and g.edge_dst[e] in comp
            )
            if internal:
                scan.append((comp, internal))
        # the readers of the kept SCCs leave them as they were
        found = cycles(g)
        closed_paths_up_to(g, 4)
        assert _nontrivial_sccs(g) == tuple(scan), name
        assert cycles(g) == found, name
    n = 4000
    loops = Graph(
        [f"v{i}" for i in range(n)],
        [(f"e{i}", f"v{i}", f"v{i}") for i in range(n)],
    )
    start = time.perf_counter()
    assert is_no_exit(loops)
    # scanning every edge once per SCC took 0.9-1.4 s on a 2-CPU Xeon
    assert time.perf_counter() - start < 0.5


def test_closed_paths_up_to_matches_brute_force():
    for name, g in _oracle_corpus(fresh_rng(61), 150).items():
        for max_len in range(-1, 8):
            got = closed_paths_up_to(g, max_len)
            words = {
                _least_rotation(p.edges)
                for p in all_paths_up_to(g, max_len)
                if p.edges and p.is_closed
            }
            want = sorted(words, key=lambda w: (len(w), w))
            assert [p.edges for p in got] == want, (name, max_len)
            for p in got:
                assert p.is_closed and approx_canonical(g, p) == p, (name, p)


def test_least_rotation_matches_brute_force():
    rng = fresh_rng(67)
    words = [("a",), ("e10",), ("a",) * 9, ("a", "b") * 6, ("b", "a", "a", "b", "a")]
    words += [("a",) * k + ("b",) for k in (1, 2, 3, 50, 1999)]
    words += [("b",) + ("a",) * k for k in (1, 7, 1999)]
    for n in (2, 3, 5, 8, 13, 40, 300, 2000):
        letters = [f"e{i}" for i in range(n)]
        rng.shuffle(letters)
        words.append(tuple(letters))  # distinct letters: a unique least one
        for alphabet in ("ab", "abc", "abcd"):
            words.append(tuple(rng.choice(alphabet) for _ in range(n)))
        block = tuple(rng.choice("ab") for _ in range(rng.randint(1, 5)))
        words.append((block * n)[:n])  # near-periodic words
    for word in words:
        want = min(word[i:] + word[:i] for i in range(len(word)))
        assert _least_rotation(word) == want, word[:20]


def test_cycles_match_brute_force():
    for name, g in _oracle_corpus(fresh_rng(62), 300).items():
        assert [c.edges for c in cycles(g)] == cycles_reference(g), name


def test_cycles_on_every_small_graph():
    """Single-cycle SCCs are walked and the rest searched; on every graph
    with at most 3 vertices and 4 edges, and on each with its edge ids in
    reverse declaration order, both give the brute-force list, as does
    `closed_paths_up_to` up to length 4; every entry of either list is a
    PathSeq, closed at its first edge's source."""
    for g in small_graphs():
        n = len(g.edges)
        for renamed in (g, Graph(g.vertices, [
            (f"e{n - 1 - i}", g.edge_src[e], g.edge_dst[e])
            for i, e in enumerate(g.edges)
        ])):
            got, closed = cycles(renamed), closed_paths_up_to(renamed, 4)
            assert [c.edges for c in got] == cycles_reference(renamed)
            assert [p.edges for p in closed] == _closed_classes_reference(renamed, 4)
            for p in got + closed:
                assert type(p) is PathSeq
                assert p.src == p.dst == renamed.edge_src[p.edges[0]]


def test_cycles_limit_skips_single_cycle_sccs(monkeypatch):
    # 11 disjoint loops and a 3-cycle walk in linear time and never count;
    # the two cycles of the {u, w} SCC come from the search and do
    loops = "".join(f"v x{i}\ne l{i} x{i} x{i}\n" for i in range(11))
    g = parse_graph(
        loops + "v a\nv b\nv c\ne p a b\ne q b c\ne r c a\n"
        "v u\nv w\ne e1 u w\ne e2 w u\ne e3 u u"
    )
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 3)
    assert [c.edges for c in cycles(g)] == cycles_reference(g)
    assert len(cycles(g)) == 14
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 2)
    with pytest.raises(PreconditionError, match="simple cycles of a graph"):
        cycles(g)


def test_cycles_search_tracks_output_on_long_rings():
    # a DFS that only skips vertices before the start pushes trails of
    # (n - 1) n (n + 1) / 6 edge ids on one n-cycle declared in cycle order
    for n in (145, 2000):
        start = time.perf_counter()
        (c,) = cycles(ring(n))
        assert len(c.edges) == n and c.src == "v0"
        assert time.perf_counter() - start < 1
    chorded = cycles(ring(2000, chord=True))
    assert [len(c.edges) for c in chorded] == [1001, 2000]


def test_cycle_search_splits_only_after_a_search_lists_nothing(cycle_search_work):
    """Counted, not timed.  On a chain of 1,000 2-cycles whose back edges
    sort first, on one of 300 whose forward edges do (each of its searches
    walks to the end of the chain, so it is kept short), and on a chorded
    2000-cycle, the vertices that re-splits hand to `_tarjan` number at most
    V + E; a split after every dropped vertex hands about n^2 / 2 on a
    chain.  There and on K5 and every small graph, the searches number at
    most the cycles plus the nontrivial components, those of the graph and
    those of re-splits, and no more of them list nothing than list a cycle."""
    long_ones = [
        parse_graph(two_cycle_chain_text(1000)),
        parse_graph(two_cycle_chain_text(300, forward="b", back="f")),
        ring(2000, chord=True),
    ]
    for g in [*long_ones, complete_digraph(5), *small_graphs()]:
        components = len(_nontrivial_sccs(g))
        for counts in cycle_search_work.values():
            counts.clear()
        found = cycles(g)
        components += sum(cycle_search_work["components"])
        searches = cycle_search_work["searches"]
        failed = searches.count(0)
        assert len(searches) <= len(found) + components
        assert failed <= len(searches) - failed
        if g in long_ones:
            assert sum(cycle_search_work["tarjan"]) <= len(g.vertices) + len(g.edges)
    assert [len(c) for c in cycles(long_ones[0])] == [2] * 1000


def test_complete_digraph_cycles_take_one_scc_pass_and_no_empty_search(
    cycle_search_work,
):
    """Counted, not timed.  On K_n the searches from v0's edges list every
    cycle through v0 and drop them all; from then on each edge into an
    exhausted vertex is dropped unsearched.  So the one `_tarjan` pass is
    the graph's, and the n (n - 1) / 2 searches, one per edge v_i -> v_j
    with i < j, all list a cycle: no search lists nothing, so none splits."""
    for n in range(3, 9):
        for counts in cycle_search_work.values():
            counts.clear()
        found = cycles(complete_digraph(n))
        assert cycle_search_work["tarjan"] == [n], n
        assert len(cycle_search_work["searches"]) == n * (n - 1) // 2, n
        assert 0 not in cycle_search_work["searches"], n
        assert sum(cycle_search_work["searches"]) == len(found), n
    assert len(found) == 16064  # K8's simple cycles


def _closed_classes_reference(g, max_len):
    """One word per rotation class of nonvertex closed paths, by brute force."""
    words = {
        _least_rotation(p.edges)
        for p in all_paths_up_to(g, max_len)
        if p.edges and p.is_closed
    }
    return sorted(words, key=lambda w: (len(w), w))


def test_cycle_lists_sort_edge_ids_as_strings():
    """Both lists come in (length, word) order with ids compared as strings
    (e10 before e2), whatever the declaration order, on K4, K5 and a rose
    of 12 parallel petals; each entry is a closed PathSeq at its first
    edge's source."""
    petals = [f"e{i}" for i in range(12)]
    corpus = {
        "K4": complete_digraph(4),
        "K5": complete_digraph(5),
        "rose12": Graph(["v"], [(e, "v", "v") for e in petals]),
        "numbered_K4": Graph(
            [f"v{i}" for i in range(4)],
            [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(
                (i, j) for i in range(4) for j in range(4) if i != j
            )],
        ),
    }
    for name, g in corpus.items():
        for max_len, got in ((None, cycles(g)), (2, closed_paths_up_to(g, 2)),
                             (4, closed_paths_up_to(g, 4))):
            want = cycles_reference(g) if max_len is None else _closed_classes_reference(g, max_len)
            assert [p.edges for p in got] == want, (name, max_len)
            assert all(type(p) is PathSeq for p in got), name
            assert all(p.src == p.dst == g.edge_src[p.edges[0]] for p in got), name
    assert len(cycles(corpus["K5"])) == 84
    rose = [p.edges for p in cycles(corpus["rose12"])]
    assert rose[:4] == [("e0",), ("e1",), ("e10",), ("e11",)]
    assert [p.edges for p in closed_paths_up_to(corpus["rose12"], 2)][12:15] == [
        ("e0", "e0"), ("e0", "e1"), ("e0", "e10"),
    ]


def _relabelled(g, rng):
    """g with its vertices renamed and declared, and its edges declared, in
    a seeded order; the names sort otherwise than they are declared, and the
    edge ids stay, so every edge word does too."""
    order = list(g.vertices)
    rng.shuffle(order)
    ranks = list(range(len(order)))
    while len(ranks) > 1 and ranks == sorted(ranks, key=str):
        rng.shuffle(ranks)
    name = {v: f"x{r}" for v, r in zip(order, ranks)}
    edges = [(e, name[g.edge_src[e]], name[g.edge_dst[e]]) for e in g.edges]
    rng.shuffle(edges)
    return Graph([name[v] for v in order], edges)


def _complete_digraph_cycles(n):
    """The edge words of the simple cycles of `complete_digraph(n)`, one per
    cyclic order of each set of two or more vertices, sorted as
    `cycles_reference` sorts them; far cheaper than it on K6."""
    words = []
    for k in range(2, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            for order in itertools.permutations(rest):
                walk = (first, *order, first)
                words.append(_least_rotation(tuple(
                    f"e{i}_{j}" for i, j in zip(walk, walk[1:])
                )))
    return sorted(words, key=lambda w: (len(w), w))


def test_local_vertex_numbers_leave_no_trace():
    """Both walks number a component's vertices in its frozenset's
    iteration order, which follows the names and the hash seed.  On seeded
    relabellings of K4-K6, of a graph with two nontrivial SCCs and of a
    chain of 2-cycles in both namings, `cycles` and `closed_paths_up_to(g,
    5)` still give the brute-force lists; K6's simple cycles come from
    `_complete_digraph_cycles`, checked here against `cycles_reference` on
    K4 and K5."""
    rng = fresh_rng(71)
    corpus = {
        "K4": complete_digraph(4),
        "K5": complete_digraph(5),
        "K6": complete_digraph(6),
        "two_sccs": parse_graph(
            "v a\nv b\nv c\nv d\nv e\ne p a b\ne q b a\ne l a a\ne j b c\n"
            "e r c d\ne s d e\ne t e c\ne u d c"
        ),
        "chain_back_first": parse_graph(two_cycle_chain_text(4)),
        "chain_forward_first": parse_graph(
            two_cycle_chain_text(4, forward="b", back="f")
        ),
    }
    for n in (4, 5):
        assert _complete_digraph_cycles(n) == cycles_reference(corpus[f"K{n}"])
    for name, base in corpus.items():
        if name == "K6":
            want_cycles = _complete_digraph_cycles(6)
        else:
            want_cycles = cycles_reference(base)
        want_classes = _closed_classes_reference(base, 5)
        for _ in range(3):
            g = _relabelled(base, rng)
            assert [c.edges for c in cycles(g)] == want_cycles, name
            got = closed_paths_up_to(g, 5)
            assert [p.edges for p in got] == want_classes, name
            assert all(p.src == g.edge_src[p.edges[0]] for p in got), name


# Each declaration fault as an ordered list of declarations, a vertex (id,)
# or an edge (id, src, dst), with the message and line that `parse_graph`
# gives for their text; recorded while a separate checker, with its own map
# of declared ids, read the declarations ahead of the tables.
DECLARATION_FAULTS = {
    "bad vertex id": ([("1a",)], "bad id '1a'", 1),
    "bad edge id": ([("a",), ("e-1", "a", "a")], "bad id 'e-1'", 2),
    "bad edge id with undeclared endpoints": (
        [("a",), ("é", "x", "y")], "bad id 'é'", 2),
    "duplicate vertex id": ([("a",), ("b",), ("a",)], "duplicate id 'a'", 3),
    "duplicate edge id": (
        [("a",), ("b",), ("f", "a", "b"), ("f", "b", "a")], "duplicate id 'f'", 4),
    "edge id redeclared as a vertex": (
        [("a",), ("f", "a", "a"), ("f",)], "duplicate id 'f'", 3),
    "vertex id redeclared as an edge": (
        [("a",), ("b",), ("a", "a", "b")], "duplicate id 'a'", 3),
    "source names an edge": (
        [("a",), ("f", "a", "a"), ("g", "f", "a")], "undeclared vertex 'f'", 3),
    "range names an edge": (
        [("a",), ("f", "a", "a"), ("g", "a", "f")], "undeclared vertex 'f'", 3),
    "edge names itself": ([("a",), ("f", "a", "f")], "undeclared vertex 'f'", 2),
    "source declared later": (
        [("f", "a", "b"), ("a",), ("b",)], "undeclared vertex 'a'", 1),
    "range declared later": (
        [("a",), ("f", "a", "b"), ("b",)], "undeclared vertex 'b'", 2),
    "bad endpoint": ([("a",), ("f", "a", "1x")], "undeclared vertex '1x'", 2),
    "both endpoints undeclared": (
        [("a",), ("f", "x", "y")], "undeclared vertex 'x'", 2),
}


def test_declaration_faults_read_the_same_from_graph_and_text():
    """`parse_graph` names the first faulty line, checking the id's
    grammar, then that it is new, then the source and the range; `Graph`
    raises the same text wherever it can take the declarations in their
    order, that is, with every vertex before every edge."""
    for name, (decls, message, line) in DECLARATION_FAULTS.items():
        text = "\n".join(("v " if len(d) == 1 else "e ") + " ".join(d) for d in decls)
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert (str(info.value), info.value.line) == (f"line {line}: {message}", line), name
        vertices = [d[0] for d in decls if len(d) == 1]
        edges = [d for d in decls if len(d) == 3]
        if decls == [(v,) for v in vertices] + edges:
            with pytest.raises(ValueError) as info:
                Graph(vertices, edges)
            assert str(info.value) == message, name
    # ids that no text can hold
    for vertices, edges, message in [
        (["a", ""], [], "bad id ''"),
        (["a"], [("f", "a", "a\n")], r"undeclared vertex 'a\n'"),
        (["a"], [("f", "a", "a"), ("f\n", "a", "a")], r"bad id 'f\n'"),
    ]:
        with pytest.raises(ValueError) as info:
            Graph(vertices, edges)
        assert str(info.value) == message


def _scc_oracle(g):
    """The SCCs of g as a set of frozensets, by mutual reachability and no
    `lpatrace` code: a pivot's component is what a breadth-first search from
    it and one towards it both reach inside the part at hand, and the rest
    of the part splits into what only the first reached, what only the
    second reached and the others, which no component crosses (the
    forward-backward split of Fleischer, Hendrickson and Pinar, 2000).  A
    pivot from the middle of its part keeps a line to O(V log V) steps."""
    succ = {v: [] for v in g.vertices}
    pred = {v: [] for v in g.vertices}
    for e in g.edges:
        succ[g.edge_src[e]].append(g.edge_dst[e])
        pred[g.edge_dst[e]].append(g.edge_src[e])

    def reached(pivot, step, part):
        seen = {pivot}
        queue = [pivot]
        for u in queue:
            for w in step[u]:
                if w in part and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    comps = set()
    parts = [list(g.vertices)]
    while parts:
        part = parts.pop()
        if not part:
            continue
        inside = set(part)
        pivot = part[len(part) // 2]
        ahead, behind = reached(pivot, succ, inside), reached(pivot, pred, inside)
        comps.add(frozenset(ahead & behind))
        parts += [
            [v for v in part if v in ahead and v not in behind],
            [v for v in part if v in behind and v not in ahead],
            [v for v in part if v not in ahead and v not in behind],
        ]
    return comps


# sha256 of the component lists, each component sorted, on the graphs of
# the next test in its order; recorded while Tarjan's pass kept an on-stack
# set and a counter cell
SCC_LISTS_DIGEST = "7046ced01dfa1c10b082d8bd9c2870d4a2ff7e5078eb82a7b96d6e944f441f04"


def test_sccs_match_mutual_reachability_in_reverse_topological_order():
    """On every small graph as declared and with its edge ids reversed, a
    5,000-vertex line, a 3,000-ring with a chord and the 1,000-link chain
    of 2-cycles in both namings: the components are the oracle's, each edge
    between two of them leaves one listed later than the one it enters, and
    the lists are the ones recorded in `SCC_LISTS_DIGEST`.  A pass from the
    first vertex alone, which reaches vertices numbered past the one root
    it was handed, as a re-split in `cycles` does, lists the components
    that vertex reaches, in the same order."""
    corpus = []
    for g in small_graphs():
        n = len(g.edges)
        corpus += [g, Graph(g.vertices, [
            (f"e{n - 1 - i}", g.edge_src[e], g.edge_dst[e])
            for i, e in enumerate(g.edges)
        ])]
    n = 5000
    corpus += [
        Graph([f"v{i}" for i in range(n)],
              [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]),
        ring(3000, chord=True),
        parse_graph(two_cycle_chain_text(1000)),
        parse_graph(two_cycle_chain_text(1000, forward="b", back="f")),
    ]
    digest = hashlib.sha256()
    for g in corpus:
        comps = strongly_connected_components(g)
        assert all(type(c) is frozenset for c in comps), g
        assert len(set(comps)) == len(comps) and set(comps) == _scc_oracle(g), g
        place = {v: i for i, comp in enumerate(comps) for v in comp}
        assert all(place[g.edge_src[e]] >= place[g.edge_dst[e]] for e in g.edges), g
        digest.update(repr([sorted(c) for c in comps]).encode())
        first = g.vertices[0]
        reach = _reach(g, first) | {first}
        assert graphs._tarjan([first], g.out_edges, g.edge_dst) == [
            c for c in comps if c <= reach
        ], g
    assert digest.hexdigest() == SCC_LISTS_DIGEST

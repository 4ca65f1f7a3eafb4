import time

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import approx_canonical
from lpatrace.graphs import (
    Graph,
    _least_rotation,
    _nontrivial_sccs,
    closed_paths_up_to,
    cycle_rep,
    cycle_with_exit_witness,
    cycles,
    edge_path,
    format_path,
    infinite_paths_tame,
    is_no_exit,
    parse_graph,
    path_concat,
    paths_into,
    regular_vertices,
    sinks,
    strongly_connected_components,
    vertex_path,
)

from conftest import GRAPHS, all_paths_up_to, fresh_rng


def test_parse_graph_examples():
    g = parse_graph("v a\nv b\ne f a b")
    assert g.vertices == ("a", "b") and g.edges == ("f",)
    single = parse_graph("v a")
    assert sinks(single) == ("a",)
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("e f a b")


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
            for p in paths_into(g, c.base, c):
                assert p.dst == c.base
                n = len(word)
                assert not any(
                    p.edges[i: i + n] == word
                    for i in range(len(p.edges) - n + 1)
                )


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
    assert c.base == "u"
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


def _complete_digraph(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(
        vs,
        [(f"e{i}_{j}", vs[i], vs[j]) for i in range(n) for j in range(n) if i != j],
    )


def test_exit_witness_is_a_simple_cycle_with_an_exit():
    k9 = _complete_digraph(9)
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


def test_nontrivial_sccs_match_per_scc_edge_scan():
    for name, g in _oracle_corpus(fresh_rng(60), 300).items():
        scan = []
        for comp in strongly_connected_components(g):
            internal = [
                e for e in g.edges
                if g.edge_src[e] in comp and g.edge_dst[e] in comp
            ]
            if internal:
                scan.append((comp, internal))
        assert _nontrivial_sccs(g) == scan, name
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


def test_cycles_match_brute_force():
    for name, g in _oracle_corpus(fresh_rng(62), 300).items():
        words = {
            _least_rotation(p.edges)
            for p in all_paths_up_to(g, len(g.vertices))
            if p.edges and p.is_closed
            and len({g.edge_src[e] for e in p.edges}) == len(p.edges)
        }
        want = sorted(words, key=lambda w: (len(w), w))
        assert [c.edges for c in cycles(g)] == want, name


def _ring(n, chord=False):
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    if chord:
        edges.append(("c", vs[n // 2], vs[0]))
    return Graph(vs, edges)


def test_cycles_search_tracks_output_on_long_rings():
    # a DFS that only skips vertices before the start pushes trails of
    # (n - 1) n (n + 1) / 6 edge ids on one n-cycle declared in cycle order
    for n in (145, 2000):
        start = time.perf_counter()
        (c,) = cycles(_ring(n))
        assert len(c.edges) == n and c.base == "v0"
        assert time.perf_counter() - start < 1
    chorded = cycles(_ring(2000, chord=True))
    assert [len(c.edges) for c in chorded] == [1001, 2000]

import copy
import pickle
from itertools import product

import pytest

from lpatrace import gis
from lpatrace.gis import (
    GIS_ZERO,
    CycleWord,
    CycleWordStar,
    MonPair,
    VertexClass,
    ZERO_CLASS,
    ZeroClass,
    approx_canonical,
    classify_eq,
    gis_mul,
    gis_star,
)
from lpatrace.graphs import _MEMO_CAP, Graph, PathSeq, edge_path, parse_graph, vertex_path
from lpatrace.path_algebras import COHN, PathAlgebra
from lpatrace.scalars import IDENTITY, Q
from lpatrace.semigroups import (
    FreeVector,
    build_semigroup,
    in_commutator_span,
    is_minimal_sg_trace,
    minimal_trace,
    sg_element,
    sg_mul,
    sim_classes,
    sim_witness_chain,
)
from lpatrace.traces import minimal_trace_cohn

from conftest import (
    GIS_CORPUS,
    GRAPH_TEXTS,
    GRAPHS,
    all_paths_up_to,
    classify_eq_reference,
    fresh_rng,
    gis_table,
    path_concat,
    random_monpair,
    random_path,
    random_scalar,
    random_sg_element,
    rose,
    sim_equivalent,
    small_graphs,
)


def _edge_elem(g, eid):
    p = edge_path(g, [eid])
    return MonPair(p, vertex_path(g, p.dst))


def _edge_star(g, eid):
    p = edge_path(g, [eid])
    return MonPair(vertex_path(g, p.dst), p)


def test_ck1_examples():
    g = GRAPHS["line2"]
    e = _edge_elem(g, "f")
    estar = _edge_star(g, "f")
    vb = vertex_path(g, "b")
    assert gis_mul(estar, e) == MonPair(vb, vb)

    tree = GRAPHS["tree"]
    f, gstar = _edge_elem(tree, "f"), _edge_star(tree, "g")
    assert gis_mul(gstar, f) is GIS_ZERO


def test_mul_prefix_case():
    g = GRAPHS["line3"]
    p = edge_path(g, ["f"])
    q = edge_path(g, ["g"])
    fg = edge_path(g, ["f", "g"])
    # (p q*) (q s*) = p s*
    a = MonPair(fg, q)
    b = MonPair(q, q)
    assert gis_mul(a, b) == MonPair(fg, q)
    # e* . e = r(e), via the vertex-prefix case
    assert gis_mul(MonPair(q, fg), MonPair(fg, fg)) == MonPair(q, fg)


def test_gis_mul_matches_the_three_case_definition():
    # every product of monomials with paths of length <= 3, against the
    # module docstring's cases; a prefix is found by trying every remainder
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        paths = all_paths_up_to(g, 3)
        rest = {}  # (a, b) -> the path t with b = a t
        for a in paths:
            for t in paths:
                if t.src == a.dst:
                    rest[a, path_concat(a, t)] = t
        mons = [MonPair(p, q) for p in paths for q in paths if p.dst == q.dst]
        for x in mons:
            for y in mons:
                (p, q), (r, s) = x, y
                if (q, r) in rest:  # r = q t
                    want = MonPair(path_concat(p, rest[q, r]), s)
                elif (r, q) in rest:  # q = r t
                    want = MonPair(p, path_concat(s, rest[r, q]))
                else:
                    want = GIS_ZERO
                got = gis_mul(x, y)
                assert got == want, (name, x, y)
                assert type(got) is type(want)
                if got is not GIS_ZERO:
                    assert {type(got.p), type(got.q)} == {PathSeq}


def test_mon_pair_requires_matching_ranges():
    g = GRAPHS["tree"]
    with pytest.raises(ValueError):
        MonPair(edge_path(g, ["f"]), edge_path(g, ["g"]))


def test_make_and_replace_keep_each_type_and_its_check():
    """`_make` and `_replace` build through `__new__`: a `PathSeq` of any
    length comes back equal and of its type (namedtuple's own `_make`
    checks `len`, which counts edges, and raised on all but 3-edge paths),
    and a `MonPair` whose paths end apart raises as its constructor does."""
    g = GRAPHS["line3"]
    f, fg, g_ = edge_path(g, ["f"]), edge_path(g, ["f", "g"]), edge_path(g, ["g"])
    a, c = vertex_path(g, "a"), vertex_path(g, "c")
    for p in (a, f, fg):
        made = PathSeq._make(p)
        assert made == p and type(made) is PathSeq and len(made) == len(p.edges)
    moved = fg._replace(src="b", edges=("g",))
    assert moved == g_ and type(moved) is PathSeq and len(moved) == 1
    assert a._replace() == a and len(f._replace(dst="b")) == 1
    with pytest.raises(TypeError):
        PathSeq._make(("a", "b"))
    with pytest.raises(ValueError, match="unexpected field names"):
        fg._replace(length=2)
    m = MonPair._make((fg, g_))
    assert m == MonPair(fg, g_) and type(m) is MonPair
    assert m._replace(q=c) == MonPair(fg, c) and type(m._replace(p=g_)) is MonPair
    with pytest.raises(ValueError, match="ranges differ: f vs a"):
        MonPair._make((f, a))
    with pytest.raises(ValueError, match="ranges differ: f/g vs a"):
        m._replace(q=a)


def test_gis_star_examples():
    assert gis_star(GIS_ZERO) is GIS_ZERO
    g = GRAPHS["line2"]
    e = _edge_elem(g, "f")
    assert gis_star(e) == _edge_star(g, "f")
    line3 = GRAPHS["line3"]
    fg = edge_path(line3, ["f", "g"])
    gg = edge_path(line3, ["g"])
    m = MonPair(fg, gg)
    assert gis_star(m) == MonPair(gg, fg)
    assert gis_star(gis_star(m)) == m


def test_approx_canonical_examples():
    g = GRAPHS["two_cycle"]
    v = vertex_path(g, "u")
    assert approx_canonical(g, v) == v
    c1 = edge_path(g, ["e1", "e2"])
    c2 = edge_path(g, ["e2", "e1"])
    assert approx_canonical(g, c1) == approx_canonical(g, c2)
    assert approx_canonical(g, c1).edges == ("e1", "e2")
    with pytest.raises(ValueError):
        approx_canonical(g, edge_path(g, ["e1"]))


def test_classify_eq_examples():
    loop = GRAPHS["one_loop"]
    e = _edge_elem(loop, "e")
    assert classify_eq(loop, e) == CycleWord(("e",))
    assert classify_eq(loop, gis_star(e)) == CycleWordStar(("e",))
    v = vertex_path(loop, "v")
    assert classify_eq(loop, MonPair(v, v)) == VertexClass("v")

    tree = GRAPHS["tree"]
    rng = fresh_rng(20)
    for _ in range(50):
        p = random_path(tree, rng)
        assert classify_eq(tree, MonPair(p, p)) == VertexClass(p.dst)
    assert classify_eq(GRAPHS["one_loop"], GIS_ZERO) == ZeroClass()
    # the three id kinds of one word are three keys in one dict
    assert CycleWord(("e",)) != CycleWordStar(("e",))
    ids = {VertexClass("e"): 1, CycleWord(("e",)): 2, CycleWordStar(("e",)): 3}
    assert len(ids) == 3 and ids[CycleWordStar(("e",))] == 3
    assert repr(list(ids)) == "[[e], [e], [e*]]" and repr(ZeroClass()) == "[0]"
    assert ZeroClass()


def test_classify_eq_matches_the_four_case_definition():
    # every monomial with paths of length <= 3, against the four cases of
    # the docstring; the reference finds a remainder by trying every split
    kinds = set()
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        paths = all_paths_up_to(g, 3)
        for x in [MonPair(p, q) for p in paths for q in paths if p.dst == q.dst]:
            got, want = classify_eq(g, x), classify_eq_reference(g, x)
            assert got == want and type(got) is type(want), (name, x)
            kinds.add(type(got))
    assert kinds == {VertexClass, CycleWord, CycleWordStar, ZeroClass}
    # a vertex path against a path into it from another source: the paths
    # end alike but start apart, so neither is a prefix of the other
    line = GRAPHS["line3"]
    c, fg = vertex_path(line, "c"), edge_path(line, ["f", "g"])
    for x in (MonPair(c, fg), MonPair(fg, c)):
        assert classify_eq(line, x) is ZERO_CLASS == classify_eq_reference(line, x)


def test_classify_eq_incomparable_is_zero_class():
    # p and q with the same range but neither a prefix of the other
    tree = GRAPHS["tree"]
    # no such pair exists on the tree (distinct sinks), use the rose
    rose = GRAPHS["rose2"]
    p = edge_path(rose, ["e", "f"])
    q = edge_path(rose, ["f", "f"])
    assert classify_eq(rose, MonPair(p, q)) == ZeroClass()


def _counted_rotations(monkeypatch):
    """A list that grows by one word at each `_least_rotation` call that
    `classify_eq` makes."""
    words = []
    real = gis._least_rotation
    monkeypatch.setattr(gis, "_least_rotation", lambda w: words.append(w) or real(w))
    return words


def test_classify_eq_rotates_each_closing_word_once_per_graph(monkeypatch):
    # clock-free: a closing word met again, through another monomial or the
    # same one, plain or starred, costs no rotation; another graph has its
    # own memo
    rotated = _counted_rotations(monkeypatch)
    g = parse_graph(GRAPH_TEXTS["rose2"])
    v, e, f_e = vertex_path(g, "v"), edge_path(g, ["e"]), edge_path(g, ["f", "e"])
    efe = edge_path(g, ["e", "f", "e"])
    plain = [MonPair(f_e, v), MonPair(efe, e)]  # closing word f/e
    starred = [MonPair(v, f_e), MonPair(e, efe)]
    assert classify_eq(g, plain[0]) == CycleWord(("e", "f"))
    assert classify_eq(g, starred[0]) == CycleWordStar(("e", "f"))
    assert rotated == [("f", "e")] * 2
    for x in plain + starred:
        assert classify_eq(g, x) == classify_eq_reference(g, x)
    assert len(rotated) == 2
    assert g._rotations == {(CycleWord, ("f", "e")): CycleWord(("e", "f")),
                            (CycleWordStar, ("f", "e")): CycleWordStar(("e", "f"))}
    # vertex and zero classes read no memo
    classify_eq(g, MonPair(e, e))
    classify_eq(g, MonPair(f_e, edge_path(g, ["e", "e"])))
    assert len(rotated) == 2 and len(g._rotations) == 2
    other = parse_graph(GRAPH_TEXTS["rose2"])
    assert classify_eq(other, plain[1]) == CycleWord(("e", "f")) and len(rotated) == 3


def test_rotation_memo_stops_at_its_cap(monkeypatch):
    # more distinct closing words than the cap, plain and starred: the memo
    # keeps the first `_MEMO_CAP`, and every class, kept or not, is the
    # reference's, on a second pass too
    rotated = _counted_rotations(monkeypatch)
    g = rose(3)
    v = vertex_path(g, "v")
    words = [edge_path(g, w) for n in range(1, 7) for w in product(g.edges, repeat=n)]
    assert len(words) * 2 > _MEMO_CAP
    monomials = [x for p in words for x in (MonPair(p, v), MonPair(v, p))]
    for _ in range(2):
        for x in monomials:
            assert classify_eq(g, x) == classify_eq_reference(g, x), x
    assert len(g._rotations) == _MEMO_CAP
    # the first pass rotated every word; the second only those not kept
    assert len(rotated) == 2 * len(monomials) - _MEMO_CAP
    for (kind, word), cls in g._rotations.items():
        p = edge_path(g, word)
        x = MonPair(p, v) if kind is CycleWord else MonPair(v, p)
        assert cls == classify_eq_reference(g, x), x


def test_copied_and_pickled_graphs_classify_alike():
    g = parse_graph(GRAPH_TEXTS["rose2"])
    paths = all_paths_up_to(g, 3)
    monomials = [MonPair(p, q) for p in paths for q in paths]
    want = [classify_eq(g, x) for x in monomials]
    assert g._rotations
    shallow, pickled = copy.copy(g), pickle.loads(pickle.dumps(g))
    # a shallow copy shares the memo; a pickle carries an equal one
    assert shallow._rotations is g._rotations and pickled._rotations == g._rotations
    for h in (shallow, pickled, parse_graph(GRAPH_TEXTS["rose2"])):
        assert [classify_eq(h, x) for x in monomials] == want


def test_sim_equivalent_examples():
    loop = GRAPHS["one_loop"]
    v = vertex_path(loop, "v")
    e = edge_path(loop, ["e"])
    # conjugating a closed path by a path keeps the class: p t p* ~ t
    t_elem = MonPair(e, v)
    conj = MonPair(edge_path(loop, ["e", "e"]), e)  # e e (e)* = e-class again
    assert sim_equivalent(loop, t_elem, conj)
    # a closed word and its star are inequivalent
    assert not sim_equivalent(loop, t_elem, gis_star(t_elem))
    assert sim_equivalent(loop, MonPair(v, v), MonPair(v, v))


def test_conjugation_preserves_class():
    rng = fresh_rng(21)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for _ in range(100):
            a = random_monpair(g, rng)
            p = random_path(g, rng)
            u = MonPair(p, vertex_path(g, p.dst))
            conj = gis_mul(gis_mul(u, a), gis_star(u))
            if conj is not GIS_ZERO:
                assert classify_eq(g, conj) == classify_eq(g, a)


def test_gis_associativity_random():
    rng = fresh_rng(22)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for _ in range(500):
            a, b, c = (random_monpair(g, rng) for _ in range(3))
            assert gis_mul(gis_mul(a, b), c) == gis_mul(a, gis_mul(b, c))


def test_inverse_semigroup_laws_random():
    rng = fresh_rng(23)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for _ in range(200):
            x = random_monpair(g, rng)
            xi = gis_star(x)
            assert gis_mul(gis_mul(x, xi), x) == x
            assert gis_mul(gis_mul(xi, x), xi) == xi


def test_star_antimultiplicative_random():
    rng = fresh_rng(24)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for _ in range(200):
            a, b = random_monpair(g, rng), random_monpair(g, rng)
            left = gis_star(gis_mul(a, b))
            right = gis_mul(gis_star(b), gis_star(a))
            assert left == right


def test_classify_is_central_random():
    rng = fresh_rng(25)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for _ in range(500):
            a, b = random_monpair(g, rng), random_monpair(g, rng)
            assert classify_eq(g, gis_mul(a, b)) == classify_eq(g, gis_mul(b, a))


def _check_gis_semigroup(g, rng, samples):
    """G(E) of the acyclic graph g, built by `gis_table` and read by the
    semigroup code: `build_semigroup` accepts it, `sim_classes` is
    `classify_eq`'s partition, the independent product is `gis_mul`'s, the
    minimal trace is minimal, and on `samples` seeded draws each `sg_mul`,
    `in_commutator_span` and `sim_witness_chain` answer agrees with the
    Cohn algebra or with `gis_mul`.  Returns (G, span answers seen)."""
    elements, table = gis_table(g)
    G = build_semigroup(table, 0)
    n = G.size
    index = {m: i for i, m in enumerate(elements)}
    by_class = {}
    for i, m in enumerate(elements):
        by_class.setdefault(classify_eq(g, m), []).append(i)
    assert sim_classes(G).classes == tuple(map(tuple, by_class.values())), g
    for a, row in zip(elements, table):
        assert [gis_mul(a, b) for b in elements] == [elements[k] for k in row], g
    assert is_minimal_sg_trace(G, minimal_trace(G)), g

    C = PathAlgebra(g, Q, IDENTITY, COHN)

    def in_cohn(x):
        return C.from_terms({elements[i]: c for i, c in x.terms.items()})

    spans = set()
    for k in range(samples):
        x, y = random_sg_element(G, rng), random_sg_element(G, rng)
        product = in_cohn(x) * in_cohn(y)
        assert sg_mul(G, x, y) == FreeVector(
            None, {index[m]: c for m, c in product.terms.items()}), g
        if k % 2:
            x = FreeVector(None, {})
            for _ in range(rng.randint(1, 3)):
                u, v = rng.randrange(n), rng.randrange(n)
                c = random_scalar(rng, nonzero=True)
                x = x + sg_element(G, {table[u][v]: c}) - sg_element(G, {table[v][u]: c})
        span = in_commutator_span(G, x)
        assert span == (not minimal_trace_cohn(g, in_cohn(x))), g
        assert span or not k % 2, g
        spans.add(span)
        start = rng.randrange(n)
        end = rng.choice(by_class[classify_eq(g, elements[start])])
        here = elements[start]
        for u, v in sim_witness_chain(G, start, end):
            assert gis_mul(elements[u], elements[v]) == here, g
            here = gis_mul(elements[v], elements[u])
        assert here == elements[end], g
    return G, spans


def test_gis_of_acyclic_small_graphs_through_the_semigroup_code():
    """Every acyclic small graph: 131 of them, 3,284 nonzero elements."""
    rng = fresh_rng(28)
    sizes, spans = [], set()
    for g in small_graphs():
        # acyclic: no path has as many edges as g has vertices
        if len(all_paths_up_to(g, len(g.vertices))[-1]) < len(g.vertices):
            G, seen = _check_gis_semigroup(g, rng, 10)
            sizes.append(G.size - 1)
            spans |= seen
    assert (len(sizes), sum(sizes), max(sizes)) == (131, 3284, 59)
    assert spans == {False, True}


def test_gis_past_256_elements_through_the_semigroup_code():
    """a => b => c => d, two edges each step: 1 + 9 + 49 + 225 pairs p q*
    and zero, past the 256 elements that `build_semigroup` packs in bytes;
    its nonzero classes are the four vertices."""
    vertices = "abcd"
    g = Graph(vertices, [
        (f"{x}{k}", x, y) for x, y in zip(vertices, vertices[1:]) for k in (1, 2)
    ])
    G, _ = _check_gis_semigroup(g, fresh_rng(29), 20)
    assert G.size == 285
    assert len(sim_classes(G).nonzero_class_ids) == 4

import pytest

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
from lpatrace.graphs import PathSeq, edge_path, vertex_path

from conftest import (
    GIS_CORPUS,
    GRAPHS,
    all_paths_up_to,
    classify_eq_reference,
    fresh_rng,
    path_concat,
    random_monpair,
    random_path,
    sim_equivalent,
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

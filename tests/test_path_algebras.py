import copy
import pickle
import re
from fractions import Fraction
from itertools import product

import pytest

from lpatrace import path_algebras
from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import GIS_ZERO, MonPair, gis_mul
from lpatrace.graphs import (
    _MEMO_CAP,
    PathSeq,
    edge_path,
    format_path,
    parse_graph,
    vertex_path,
)
from lpatrace.path_algebras import (
    COHN,
    LEAVITT,
    PathAlgebra,
    alg_star,
    format_element,
    parse_element,
    transfer,
)
from lpatrace.scalars import (
    CONJUGATION,
    IDENTITY,
    QI,
    FieldElem,
    Q,
    fe,
    fe_one,
)

from conftest import (
    GIS_CORPUS,
    GRAPH_TEXTS,
    GRAPHS,
    all_paths_up_to,
    alg_star_reference,
    fe_i,
    fresh_rng,
    mul_reference,
    outcome,
    random_element,
    random_monpair,
    random_path_into,
    random_raw_terms,
    random_scalar,
    random_scalar_text,
    randomized_normalize,
    reference_parse_element,
    small_graphs,
)


def _vertex_mon(g, v):
    vp = vertex_path(g, v)
    return MonPair(vp, vp)


def test_linear_ops_examples():
    A = PathAlgebra(GRAPHS["line2"], Q, IDENTITY, LEAVITT)
    x = A.vertex("a")
    assert not (x + (-x))
    assert 2 * x + 3 * x == 5 * x
    assert not (0 * x)


def test_mode_and_algebra_mismatch_errors():
    A = PathAlgebra(GRAPHS["line2"], Q, IDENTITY, LEAVITT)
    B = PathAlgebra(GRAPHS["line2"], Q, IDENTITY, COHN)
    with pytest.raises(ValueError):
        A.vertex("a") + B.vertex("a")


def test_ck1_in_both_modes():
    for mode in (COHN, LEAVITT):
        A = PathAlgebra(GRAPHS["line2"], Q, IDENTITY, mode)
        e = A.path(["f"])
        assert alg_star(e) * e == A.vertex("b")


def test_single_edge_vertex_relation():
    # on a -> b the element v_a - f f* is zero in Leavitt mode, nonzero in Cohn
    g = GRAPHS["line2"]
    f_mon = MonPair(edge_path(g, ["f"]), edge_path(g, ["f"]))
    for mode in (COHN, LEAVITT):
        A = PathAlgebra(g, Q, IDENTITY, mode)
        x = A.from_terms({_vertex_mon(g, "a"): 1, f_mon: -1})
        if mode == LEAVITT:
            assert not x
        else:
            assert x
        # in both modes (v_a - f f*) f = f - f = 0
        assert not (x * A.path(["f"]))


def test_alg_star_examples():
    g = GRAPHS["line3"]
    A = PathAlgebra(g, QI, CONJUGATION, LEAVITT)
    fg = edge_path(g, ["f", "g"])
    gg = edge_path(g, ["g"])
    x = A.monomial(fg, gg, fe(1, 2, QI))
    assert alg_star(x) == A.monomial(gg, fg, fe(1, -2, QI))
    v = A.vertex("a")
    assert alg_star(v) == v
    # identity involution keeps the i coefficient
    B = PathAlgebra(g, QI, IDENTITY, LEAVITT)
    y = B.vertex("a") + fe_i() * B.vertex("b")
    assert alg_star(y) == y


def test_leavitt_normalize_examples():
    # v - sum(ee*) over a regular vertex normalizes to zero
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for v in g.vertices:
            if not g.out_edges[v]:
                continue
            raw = {_vertex_mon(g, v): fe_one(Q)}
            for eid in g.out_edges[v]:
                p = edge_path(g, [eid])
                raw[MonPair(p, p)] = fe(-1)
            assert not A.from_terms(raw), (name, v)

    loop = GRAPHS["one_loop"]
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    e = edge_path(loop, ["e"])
    assert A.from_terms({MonPair(e, e): 1}) == A.vertex("v")

    # a non-special shared last edge is left alone
    rose = GRAPHS["rose2"]
    R = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    f = edge_path(rose, ["f"])  # special edge of v is e, not f
    x = R.from_terms({MonPair(f, f): 1})
    assert x.terms == {MonPair(f, f): fe_one(Q)}


def test_relation_soundness_on_generators():
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for v in g.vertices:
            for w in g.vertices:
                prod = A.vertex(v) * A.vertex(w)
                assert prod == (A.vertex(v) if v == w else A.zero())
        for eid in g.edges:
            e = A.path([eid])
            estar = alg_star(e)
            src, dst = g.edge_src[eid], g.edge_dst[eid]
            assert A.vertex(src) * e == e == e * A.vertex(dst)
            assert A.vertex(dst) * estar == estar == estar * A.vertex(src)
            for fid in g.edges:
                prod = alg_star(A.path([eid])) * A.path([fid])
                if eid == fid:
                    assert prod == A.vertex(dst)
                else:
                    assert not prod


def test_ring_axioms_random():
    rng = fresh_rng(30)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        for mode in (COHN, LEAVITT):
            A = PathAlgebra(g, Q, IDENTITY, mode)
            for _ in range(300):
                x, y, z = (random_element(A, rng) for _ in range(3))
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z


def test_involution_laws_random():
    rng = fresh_rng(31)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        A = PathAlgebra(g, QI, CONJUGATION, LEAVITT)
        for _ in range(200):
            x, y = random_element(A, rng), random_element(A, rng)
            assert alg_star(alg_star(x)) == x
            assert alg_star(x * y) == alg_star(y) * alg_star(x)


def test_commutator_examples():
    loop = GRAPHS["one_loop"]
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    e = A.path(["e"])
    assert not e * e - e * e
    assert not e * alg_star(e) - alg_star(e) * e  # ee* = e*e = v

    line = GRAPHS["line2"]
    B = PathAlgebra(line, Q, IDENTITY, COHN)
    f = B.path(["f"])
    ff = B.from_terms({MonPair(edge_path(line, ["f"]), edge_path(line, ["f"])): 1})
    # [ff*, f] = ff*f - f ff* = f - 0 = f
    assert ff * f - f * ff == f


def test_confluence_under_random_redex_orders():
    rng = fresh_rng(32)
    for name in ("line3", "tree", "one_loop", "rose2"):
        g = GRAPHS[name]
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for _ in range(50):
            raw = random_raw_terms(g, rng, Q, n_terms=3, max_len=4)
            expected = A.from_terms(raw).terms
            for _ in range(10):
                assert randomized_normalize(A, raw, rng) == expected


def test_long_redex_normal_form_matches_repeated_rewrite_steps():
    g = GRAPHS["rose2"]
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    p = edge_path(g, ("e",) * 1200)
    mon = MonPair(p, p)
    expected, pending = {}, [(mon, 1)]
    while pending:
        m, k = pending.pop()
        if A.redex_edge(m) is None:
            expected[m] = expected.get(m, 0) + k
        else:
            pending.extend((m2, k * k2) for m2, k2 in A.rewrite_step(m).items())
    expected = {m: fe(k) for m, k in expected.items() if k}
    assert len(expected) == 1201  # v minus e^k f f* e^k* for k < 1200
    assert A.monomial(p, p).terms == expected
    # one chain: v with 1, and the 1200 siblings e^k f f* e^k* with -1
    nf = A._nf(mon)
    v = _vertex_mon(g, "v")
    assert len(nf) == 1201 and nf[v] == 1
    assert all(k == -1 for m, k in nf.items() if m != v)


def _special_suffix(A, mon):
    """Length of the longest shared final run of special edges of p and q."""
    p, q, n = mon.p.edges, mon.q.edges, 0
    while n < min(len(p), len(q)) and p[-1 - n] == q[-1 - n] and \
            A.special_edges.get(A.graph.edge_src[p[-1 - n]]) == p[-1 - n]:
        n += 1
    return n


def _drop_last(g, path):
    """The path without its final edge."""
    return PathSeq(path.src, g.edge_src[path.edges[-1]], path.edges[:-1])


def test_rewrite_step_invariant_and_one_step_per_chain_level(monkeypatch):
    rng = fresh_rng(36)
    for name, g in GRAPHS.items():
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        steps = []
        real_step = A.rewrite_step
        monkeypatch.setattr(
            A, "rewrite_step", lambda m: steps.append(m) or real_step(m))
        for _ in range(40):
            mon = random_monpair(g, rng, max_len=3)
            # extend both paths along special edges; a sink end leaves no redex
            p, q = mon.p, mon.q
            for _ in range(rng.randint(1, 4)):
                f = A.special_edges.get(p.dst)
                if f is None:
                    break
                p = edge_path(g, p.edges + (f,))
                q = edge_path(g, q.edges + (f,))
            m = MonPair(p, q)
            depth = _special_suffix(A, m)
            if not depth:
                continue
            steps.clear()
            nf = A._nf(m)
            assert len(steps) == depth, (name, m)
            assert all(A.redex_edge(k) is None for k in nf), (name, m)
            assert list(nf.values()).count(1) == 1, (name, m)
            for redex in list(steps):
                first, *rest = real_step(redex).items()
                shorter = MonPair(_drop_last(g, redex.p), _drop_last(g, redex.q))
                assert first == (shorter, 1), (name, redex)
                assert all(k == -1 and A.redex_edge(s) is None
                           for s, k in rest), (name, redex)


def _meeting_operands(A, rng):
    """Seeded canonical x and y where x holds p q* and y holds q s*, with p
    and s extended along one special edge f: their product p s* is the
    redex (p0 f)(s0 f)* unless the rewrite of x or y moved those terms."""
    g = A.graph
    f = rng.choice(sorted(A.special_edges.values()))
    u, w = g.edge_src[f], g.edge_dst[f]
    p, s = (random_path_into(g, rng, u) for _ in range(2))
    p, s = (PathSeq(t.src, w, t.edges + (f,)) for t in (p, s))
    q = random_path_into(g, rng, w)
    x_raw = random_raw_terms(g, rng, A.field, n_terms=3, max_len=3)
    y_raw = random_raw_terms(g, rng, A.field, n_terms=3, max_len=3)
    x_raw[MonPair(p, q)] = random_scalar(rng, A.field, nonzero=True)
    y_raw[MonPair(q, s)] = random_scalar(rng, A.field, nonzero=True)
    return A.from_terms(x_raw), A.from_terms(y_raw)


def _redex_meets(A, x, y):
    """The products of pairs of terms of x and y with q = r that are redexes."""
    return {prod for m1, m2 in product(x.terms, y.terms)
            if m1.q == m2.p and A.redex_edge(prod := gis_mul(m1, m2)) is not None}


@pytest.mark.parametrize("field,involution", [(Q, IDENTITY), (QI, CONJUGATION)])
@pytest.mark.parametrize("mode", [COHN, LEAVITT])
def test_products_and_stars_match_the_normalize_every_term_reference(
        mode, field, involution):
    # terms with their order, on all ten graphs, under the least special
    # edges and under the greatest
    rng = fresh_rng(41)
    redexes = 0
    for name, g in GRAPHS.items():
        greatest = {v: max(es) for v, es in g.out_edges.items() if es}
        for special in (None, greatest):
            A = PathAlgebra(g, field, involution, mode, special_edges=special)
            pairs = [_meeting_operands(A, rng) for _ in range(30)]
            if name == "rose2":  # e e* = v - f f*, whose f f* the product v f f* cancels
                pairs.append((parse_element("e + v", A), parse_element("e' + f.f'", A)))
            for x, y in pairs:
                for a, b in ((x, y), (y, x)):
                    z, want = a * b, mul_reference(a, b)
                    assert list(z.terms.items()) == list(want.terms.items()), (name, a, b)
                    redexes += len(_redex_meets(A, a, b))
                    star = alg_star(z)
                    want = alg_star_reference(z)
                    assert list(star.terms.items()) == list(want.terms.items()), (name, z)
    assert redexes >= 500, redexes


def _chains(log, context):
    """{monomial: rewrite steps} of each `_nf` call that `context` made, in
    call order, from a log of (context, "nf" or "step", monomial) records."""
    chains, start = {}, None
    for ctx, kind, mon in log:
        if ctx is not context:
            continue
        if kind == "nf":
            assert mon not in chains, mon  # at most one expansion each
            chains[start := mon] = 0
        else:
            chains[start] += 1
    return chains


def test_products_stars_and_parses_skip_what_the_canonical_form_settles(monkeypatch):
    # clock-free counts: a product expands by `_nf` only its distinct
    # nonzero products of pairs with q = r that its context's memo does not
    # hold yet, each with as many rewrite steps as the reference, built on
    # a fresh context, takes for it; the reference expands every nonzero
    # product; a star expands nothing; a second parse of one text resolves
    # no path text again
    rng = fresh_rng(42)
    log, reads = [], []
    expanded = held = read = 0
    real_read = path_algebras._read_path
    real_nf, real_step = PathAlgebra._nf, PathAlgebra.rewrite_step
    monkeypatch.setattr(path_algebras, "_read_path",
                        lambda g, t: reads.append(t) or real_read(g, t))
    monkeypatch.setattr(PathAlgebra, "_nf", lambda self, m: log.append(
        (self, "nf", m)) or real_nf(self, m))
    monkeypatch.setattr(PathAlgebra, "rewrite_step", lambda self, m: log.append(
        (self, "step", m)) or real_step(self, m))
    for name, text in GRAPH_TEXTS.items():
        g = parse_graph(text)  # a graph of its own, whose path memo starts empty
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for _ in range(20):
            x, y = _meeting_operands(A, rng)
            raw, meets = {}, set()
            for m1, m2 in product(x.terms, y.terms):
                prod = gis_mul(m1, m2)
                if prod is not GIS_ZERO:
                    raw[prod] = raw.get(prod, A.scalar(0)) + x.terms[m1] * y.terms[m2]
                    if m1.q == m2.p:
                        meets.add(prod)
            known = set(A._expansions)
            log.clear()
            z = x * y
            mine = _chains(log, A)
            assert sorted(mine) == sorted(m for m in meets if raw[m] and m not in known), name
            assert len(log) == len(mine) + sum(mine.values()), name
            expanded += len(mine)
            held += len({m for m in meets if raw[m]} & known)
            log.clear()
            assert mul_reference(x, y) == z, name
            contexts = {entry[0] for entry in log}  # the reference's own, if any
            assert A not in contexts and len(contexts) <= 1, name
            theirs = _chains(log, *contexts) if contexts else {}
            assert sorted(theirs) == sorted(m for m in raw if raw[m]), name
            assert mine == {m: theirs[m] for m in mine}, name
            log.clear()
            alg_star(x)
            alg_star(z)
            assert not log, name
            expression = _random_expression(A, rng)[0]
            reads.clear()
            known = set(g._paths)
            first = parse_element(expression, A)
            assert len(reads) == len(set(reads)), (name, expression)
            assert set(reads) == set(g._paths) - known, (name, expression)
            read += len(reads)
            reads.clear()
            second = parse_element(expression, A)
            assert not reads and list(second.terms.items()) == list(first.terms.items())
    # nonzero meets, expanded on a miss or read from the memo
    assert expanded + held >= 200 and min(expanded, held) >= 50, (expanded, held)
    assert read >= 50, read


def test_path_memo_keeps_only_resolved_texts_up_to_its_cap():
    g = parse_graph(GRAPH_TEXTS["tree"])
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    parse_element("f + 2*a + g'", A)
    held = dict(g._paths)
    assert held == {"f": edge_path(g, ["f"]), "a": vertex_path(g, "a"),
                    "g": edge_path(g, ["g"])}
    for text, message in (("unknown_id", "unknown edge 'unknown_id' in path"),
                          ("a + f/g", "edges 'f' and 'g' do not compose"),
                          ("f/g.b'", "edges 'f' and 'g' do not compose")):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_element(text, A)
            errors.append(str(info.value))
        assert errors == [message] * 2 and g._paths == held, text
    # spaces around `/` make another text for the same path
    rose = parse_graph(GRAPH_TEXTS["rose2"])
    B = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    assert parse_element("e / f", B) == parse_element("e/f", B) == B.path(["e", "f"])
    assert rose._paths["e / f"] == rose._paths["e/f"]
    # more distinct texts than the cap: the memo stops at the cap
    words = [w for n in range(1, 12) for w in product("ef", repeat=n)]
    words = words[:_MEMO_CAP + 100]
    for _ in range(2):
        for w in words:
            assert parse_element("/".join(w), B) == B.path(w)
    assert len(rose._paths) == _MEMO_CAP
    # a pickled graph carries its memo and parses to the same elements
    copied = pickle.loads(pickle.dumps(rose))
    assert copied._paths == rose._paths
    C = PathAlgebra(copied, Q, IDENTITY, LEAVITT)
    for text in ("e / f", "v + e.f/e'", "2*f/f/e'", "/".join(words[-1])):
        want = parse_element(text, B)
        assert list(parse_element(text, C).terms.items()) == list(want.terms.items())
    assert copy.deepcopy(rose) is rose


def test_expansion_and_scalar_memos_replay_fresh_results_up_to_their_cap(monkeypatch):
    # clock-free: on a context warmed by seeded operands, parses and
    # products equal a fresh context's, term order included; run again,
    # they call neither `_nf` nor `_scalar_value`; each memo stops at the
    # cap; a scalar that fails is never kept and fails the same way again
    rng = fresh_rng(44)
    nfs, values = [], []
    real_nf, real_value = PathAlgebra._nf, path_algebras._scalar_value
    monkeypatch.setattr(PathAlgebra, "_nf",
                        lambda self, m: nfs.append(m) or real_nf(self, m))
    monkeypatch.setattr(path_algebras, "_scalar_value",
                        lambda *groups: values.append(groups) or real_value(*groups))

    def run(texts, context):
        out = []
        for s, t in texts:
            A = context()
            x, y = parse_element(s, A), parse_element(t, A)
            out += [list(z.terms.items()) for z in (x, y, x * y, y * x)]
        return out

    expanded = settled = converted = 0
    for name, g in GRAPHS.items():
        for field, involution in ((Q, IDENTITY), (QI, CONJUGATION)):
            A = PathAlgebra(g, field, involution, LEAVITT)
            texts = []
            for _ in range(4):
                x, y = _meeting_operands(A, rng)  # from_terms warms `_expansions`
                texts.append((format_element(x), format_element(y)))
                texts.append((_random_expression(A, rng)[0],
                               _random_expression(A, rng)[0]))
            nfs.clear()
            values.clear()
            warm = run(texts, lambda: A)
            expanded += len(nfs)
            converted += len(values)
            nfs.clear()
            fresh = run(texts, lambda: PathAlgebra(g, field, involution, LEAVITT))
            assert warm == fresh, (name, field)
            settled += len(nfs)
            nfs.clear()
            values.clear()
            assert run(texts, lambda: A) == warm and not nfs and not values, name
    # expansions on the warm context's first run, and on fresh contexts
    assert expanded >= 50 and settled >= 600 and converted >= 400, (
        expanded, settled, converted)
    # more distinct monomials and scalar texts than the cap
    rose = GRAPHS["rose2"]
    A = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    paths = all_paths_up_to(rose, 5)
    texts = [f"{k}*{format_path(p)}.{format_path(q)}'"
             for k, (p, q) in enumerate(product(paths, repeat=2), 1)][:_MEMO_CAP + 100]
    for _ in range(2):
        for text in texts:
            want = reference_parse_element(text, A)
            assert list(parse_element(text, A).terms.items()) == list(want.terms.items())
    assert len(A._expansions) == len(A._scalars) == _MEMO_CAP
    # failing scalars
    B = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    parse_element("3/4*v - 2*e", B)
    held = dict(B._scalars)
    for text, message in (("1/0*v", "zero denominator in scalar '1/0'"),
                          ("2i*v", "imaginary scalar '2i' not allowed over Q"),
                          ("9" * 5000 + "*v", "has an integer of more than")):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError, match=re.escape(message)) as info:
                parse_element(text, B)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and B._scalars == held, text[:20]


def test_equality_verdicts_match_under_different_special_edges():
    rng = fresh_rng(33)
    for name in ("tree", "rose2", "mixed"):
        g = GRAPHS[name]
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        other_choice = {
            v: max(g.out_edges[v]) for v in g.vertices if g.out_edges[v]
        }
        B = PathAlgebra(g, Q, IDENTITY, LEAVITT, special_edges=other_choice)
        ideal_gen = {}
        for _ in range(70):
            x_raw = random_raw_terms(g, rng, Q, n_terms=2, max_len=3)
            if rng.random() < 0.5:
                # y differs from x by an element of the defining ideal
                v = rng.choice([w for w in g.vertices if g.out_edges[w]])
                gen = {_vertex_mon(g, v): fe_one(Q)}
                for eid in g.out_edges[v]:
                    p = edge_path(g, [eid])
                    gen[MonPair(p, p)] = fe(-1)
                y_raw = dict(x_raw)
                for m, c in gen.items():
                    y_raw[m] = y_raw.get(m, fe(0)) + c
            else:
                y_raw = random_raw_terms(g, rng, Q, n_terms=2, max_len=3)
            verdict_a = A.from_terms(x_raw) == A.from_terms(y_raw)
            verdict_b = B.from_terms(x_raw) == B.from_terms(y_raw)
            assert verdict_a == verdict_b


def test_acyclic_leavitt_basis_has_the_matrix_block_dimension():
    # For acyclic E, L(E) is the sum over sinks w of M_n(w)(K), n(w) the
    # number of paths ending at w (Abrams, Aranda Pino and Siles Molina,
    # J. Pure Appl. Algebra 209, 2007): the monomials pq* with r(p) = r(q)
    # left alone by the rewrite rule must number the sum of n(w)^2, for
    # any choice of special edges.
    rng = fresh_rng(36)
    checked = 0
    for g in small_graphs():
        paths = all_paths_up_to(g, len(g.vertices))
        if any(p.edges and p.src == p.dst for p in paths):
            continue  # a cycle has a simple closed path of length <= |V|
        sinks = [v for v in g.vertices if not g.out_edges[v]]
        want = sum(sum(p.dst == w for p in paths) ** 2 for w in sinks)
        seeded = {v: rng.choice(es) for v, es in g.out_edges.items() if es}
        for special_edges in (None, seeded):
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT, special_edges=special_edges)
            basis = sum(
                A.redex_edge(MonPair(p, q)) is None
                for p in paths for q in paths if p.dst == q.dst
            )
            assert basis == want, (g.vertices, g.edges, special_edges)
        checked += 1
    assert checked == 131


def test_quotient_is_a_homomorphism():
    rng = fresh_rng(34)
    for name in GIS_CORPUS:
        g = GRAPHS[name]
        C = PathAlgebra(g, Q, IDENTITY, COHN)
        L = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for _ in range(35):
            x, y = random_element(C, rng), random_element(C, rng)
            lhs = transfer(x * y, L)
            rhs = transfer(x, L) * transfer(y, L)
            assert lhs == rhs


def test_one_loop_basis_shape():
    rng = fresh_rng(35)
    loop = GRAPHS["one_loop"]
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    for _ in range(100):
        x = random_element(A, rng) * random_element(A, rng)
        for mon in x.terms:
            assert mon.p.is_vertex or mon.q.is_vertex  # v, e^n or (e*)^n


def test_degree_cap_guards_runaway_products():
    loop = GRAPHS["one_loop"]
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    e = A.path(["e"])
    x = e
    # e^(2^7) is the first square longer than DEGREE_CAP = 64
    with pytest.raises(PreconditionError, match="degree cap 64"):
        for _ in range(10):
            x = x * x


def test_parse_element_examples():
    loop = GRAPHS["one_loop"]
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    assert parse_element("v + 2*e", A) == A.vertex("v") + 2 * A.path(["e"])
    e = edge_path(loop, ["e"])
    assert parse_element("e.e'", A) == A.from_terms({MonPair(e, e): 1})

    tree = GRAPHS["tree"]
    B = PathAlgebra(tree, Q, IDENTITY, LEAVITT)
    # bare scalars are multiples of the identity
    assert parse_element("2", B) == 2 * B.one()
    assert parse_element("b - b", B) == B.zero()


def test_parse_gaussian_coefficients():
    line = GRAPHS["line2"]
    A = PathAlgebra(line, QI, IDENTITY, LEAVITT)
    x = parse_element("a + 1i*b", A)
    assert x == A.vertex("a") + fe_i() * A.vertex("b")
    # the Gaussian literal binds as one token: coefficient 1/2 - 3i
    y = parse_element("1/2-3i*a", A)
    assert y == A.from_terms({_vertex_mon(line, "a"): fe(Fraction(1, 2), -3, QI)})


def test_format_element_round_trip():
    rng = fresh_rng(36)
    g = GRAPHS["mixed"]
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    for _ in range(50):
        x = random_element(A, rng)
        assert parse_element(format_element(x), A) == x or not x


def _random_literal(rng, field):
    """A scalar literal (no sign, as the grammar reads it) and its value."""
    re = Fraction(rng.randint(0, 4), rng.randint(1, 3))
    if field == Q or rng.random() < 0.5:
        return str(re), FieldElem(re, Fraction(0), field)
    im = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    if rng.random() < 0.3:
        return f"{im}i", FieldElem(Fraction(0), im, field)
    sign = rng.choice((1, -1))
    text = f"{re}{'+' if sign > 0 else '-'}{im}i"
    return text, FieldElem(re, sign * im, field)


def _random_mono_text(g, rng):
    """A monomial written as `p.q'`, or as `p` or `q'` where that applies."""
    mon = random_monpair(g, rng, max_len=2)
    forms = [("p.q'", f"{format_path(mon.p)}.{format_path(mon.q)}'")]
    if mon.q.is_vertex:
        forms.append(("p", format_path(mon.p)))
    if mon.p.is_vertex:
        forms.append(("q'", f"{format_path(mon.q)}'"))
    form, text = rng.choice(forms)
    return form, text, mon


def _random_expression(A, rng):
    """Expression text, the same element summed term by term through
    `from_terms` and scalar multiplication, and the grammar forms drawn."""
    forms = set()
    terms = []  # (sign, literal or None, monomial text or None, MonPair or None)
    for _ in range(rng.randint(1, 4)):
        sign = rng.choice((1, -1))
        kind = rng.choice(("scalar", "scaled", "mono"))
        literal = _random_literal(rng, A.field) if kind != "mono" else None
        text = mon = None
        if kind == "scalar":
            forms.add("bare scalar")
        else:
            form, text, mon = _random_mono_text(A.graph, rng)
            forms.add(form)
        terms.append((sign, literal, text, mon))
        if rng.random() < 0.3:  # the same monomial again, cancelling it
            terms.append((-sign, literal, text, mon))
            forms.add("repeat")
    pieces, expected = [], A.zero()
    for i, (sign, literal, text, mon) in enumerate(terms):
        body = "*".join(t for t in (literal and literal[0], text) if t)
        if i == 0:
            lead = "-" if sign < 0 else rng.choice(("", "+"))
            if lead:
                forms.add("leading sign")
            pieces.append(lead + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
        element = A.one() if mon is None else A.from_terms({mon: 1})
        coeff = A.scalar(sign) * (literal[1] if literal else fe_one(A.field))
        expected = expected + coeff * element
    return " ".join(pieces), expected, forms


@pytest.mark.parametrize("field", [Q, QI])
@pytest.mark.parametrize("mode", [COHN, LEAVITT])
def test_parse_element_matches_term_by_term_sum(mode, field):
    rng = fresh_rng(37)
    forms, zeros = set(), 0
    for name in ("mixed", "rose2", "loop_exit", "tail_loop"):
        A = PathAlgebra(GRAPHS[name], field, IDENTITY, mode)
        for _ in range(60):
            text, expected, drawn = _random_expression(A, rng)
            got = parse_element(text, A)
            assert got == expected, (name, text)
            forms |= drawn
            zeros += not got
    assert forms == {"leading sign", "bare scalar", "p", "q'", "p.q'", "repeat"}
    assert zeros > 0  # some expressions cancel to zero
    A = PathAlgebra(GRAPHS["rose2"], field, IDENTITY, mode)
    assert parse_element("2*e.f' - v + 3 - 2*e.f' - 2*v", A) == A.zero()


@pytest.mark.parametrize("mode", [COHN, LEAVITT])
def test_element_does_not_depend_on_summation_order(mode):
    rng = fresh_rng(38)
    for name in ("mixed", "rose2", "loop_exit"):
        A = PathAlgebra(GRAPHS[name], QI, IDENTITY, mode)
        for _ in range(30):
            raw = random_raw_terms(A.graph, rng, QI, n_terms=6)
            parts = [A.from_terms({mon: c}) for mon, c in raw.items()]
            forward = sum(parts, A.zero())
            shuffled = parts[:]
            rng.shuffle(shuffled)
            backward = sum(reversed(parts), A.zero())
            for other in (backward, sum(shuffled, A.zero()), A.from_terms(raw)):
                assert other == forward, name
                assert hash(other) == hash(forward), name
                assert repr(other) == repr(forward), name


def test_parse_element_errors():
    A = PathAlgebra(GRAPHS["tree"], Q, IDENTITY, LEAVITT)
    cases = {
        "unknown_id": "unknown edge 'unknown_id' in path",
        "f/g": "edges 'f' and 'g' do not compose",
        "f.g'": "ranges differ",
        "2*f.": "expected an id",
        "f.f": "expected ' to close",
        "1/0*f": "zero denominator",
        "1i*f": "imaginary scalar",
        "f f": "expected \\+ or - before 'f'",
        "f +": "expected a term",
        "f ; g": "unexpected character",
        # a scalar directly before an id is a bare scalar and then an id
        "3f": "expected \\+ or - before 'f'",
        "2*": "expected an id, got None",
        "f/": "expected an id after '/', got None",
        # whitespace may separate any two tokens, inside p/q too
        " f\t/ g": "edges 'f' and 'g' do not compose",
        "f . g '": "ranges differ",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError, match=message):
            parse_element(text, A)


def test_parse_element_reads_scalar_text_as_the_reference():
    # elements, exception types and texts; the strings mix scalars, ids,
    # operators, non-ASCII digits, Unicode whitespace and long integers
    rng = fresh_rng(39)
    A = PathAlgebra(GRAPHS["loop_exit"], QI, CONJUGATION, LEAVITT)
    parsed = 0
    for _ in range(3000):
        text = " ".join(random_scalar_text(rng) for _ in range(rng.randint(1, 3)))
        got = outcome(parse_element, text, A)
        assert got == outcome(reference_parse_element, text, A), text[:40]
        parsed += got[0] == "ok"
    assert parsed > 250


# whitespace between two tokens: none, which may merge them, ASCII, tab or
# ideographic space
_GAPS = ("", " ", " ", "  ", "\t", "\u3000")
# pieces a mutation inserts, and whole texts read as they are
_ODD_PIECES = ("\u0663", "\u00b2", ";", "9" * 5000, "/0", "'", "*", ".", "/", "+", "-", "f", "3")
_FIXED_TEXTS = (
    "3f", "2*", "f/", "f.g", "'", "--f", "+", "", " ", "\t\u3000 ",
    "f . g '", "2 * f / g", "e' .", "1/0*f", "2 i*v", "f /", "f. '",
)


def _expression_tokens(A, rng):
    """The tokens of a workload-shaped expression: signed terms `c*p.q'`,
    some with their scalar or `.q` left out."""
    tokens = []
    for i in range(rng.randint(1, 5)):
        if i or rng.random() < 0.5:
            tokens.append(rng.choice("+-"))
        if rng.random() < 0.8:
            tokens += [_random_literal(rng, A.field)[0], "*"]
        mon = random_monpair(A.graph, rng, max_len=3)
        tokens += format_path(mon.p).replace("/", " / ").split()
        if rng.random() < 0.8:
            tokens += ["."] + format_path(mon.q).replace("/", " / ").split() + ["'"]
    return tokens


def _mutate(tokens, rng):
    """Drop, duplicate, swap or insert tokens, a few times at random."""
    tokens = tokens[:]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(tokens) + 1)
        kind = rng.choice(("drop", "duplicate", "swap", "insert"))
        if kind == "insert" or not tokens:
            tokens.insert(i, rng.choice(_ODD_PIECES))
        elif kind == "drop":
            del tokens[i - 1]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i - 1])
        else:
            j = rng.randrange(len(tokens))
            tokens[i - 1], tokens[j] = tokens[j], tokens[i - 1]
    return tokens


def _error_kind(result):
    """The message of an error outcome up to its first quote, digit or colon."""
    return None if result[0] == "ok" else re.split(r"['\d:]", result[1])[0]


@pytest.mark.parametrize("field,involution", [(Q, IDENTITY), (QI, CONJUGATION)])
@pytest.mark.parametrize("mode", [COHN, LEAVITT])
def test_parse_element_matches_the_token_list_parser(mode, field, involution):
    # elements with their term order, exception types and texts, on
    # workload-shaped expressions, their mutations and fixed edge cases
    rng = fresh_rng(40)
    kinds = set()
    for name in ("tree", "mixed", "rose2", "loop_exit", "tail_loop"):
        A = PathAlgebra(GRAPHS[name], field, involution, mode)
        texts = list(_FIXED_TEXTS)
        for _ in range(300):
            tokens = _mutate(_expression_tokens(A, rng), rng)
            gaps = [rng.choice(_GAPS) for _ in range(len(tokens) + 1)]
            texts.append("".join(g + t for g, t in zip(gaps, tokens + [""])))
        for text in texts:
            got = outcome(parse_element, text, A)
            want = outcome(reference_parse_element, text, A)
            assert got == want, (name, text[:60])
            if got[0] == "ok":
                assert list(got[1].terms.items()) == list(want[1].terms.items())
            kinds.add(_error_kind(got))
    expected = {
        None, "unexpected character ", "empty expression", "expected a term",
        "expected an id, got ", "expected an id after ", "expected + or - before ",
        "expected ", "unknown edge ", "edges ", "ranges differ",
        "zero denominator in scalar ", "scalar ",
    }
    assert expected <= kinds, expected - kinds


def test_transfer_normalizes_cohn_elements():
    g = GRAPHS["line2"]
    C = PathAlgebra(g, Q, IDENTITY, COHN)
    L = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    f = edge_path(g, ["f"])
    cohn_elem = C.from_terms({MonPair(f, f): 1})
    assert cohn_elem != C.vertex("a")  # distinct in the Cohn algebra
    assert transfer(cohn_elem, L) == L.vertex("a")


def test_transfer_requires_same_graph():
    A = PathAlgebra(GRAPHS["line2"], Q, IDENTITY, COHN)
    B = PathAlgebra(GRAPHS["tree"], Q, IDENTITY, LEAVITT)
    with pytest.raises(ValueError):
        transfer(A.vertex("a"), B)


def test_path_algebra_constructor_validation():
    g = GRAPHS["tree"]
    with pytest.raises(ValueError):
        PathAlgebra(g, Q, IDENTITY, "weird-mode")
    with pytest.raises(ValueError):
        PathAlgebra(g, Q, IDENTITY, LEAVITT, special_edges={"b": "f"})
    # choosing the other outgoing edge is fine
    B = PathAlgebra(g, Q, IDENTITY, LEAVITT, special_edges={"a": "g"})
    assert B.special_edges["a"] == "g"
    with pytest.raises(ValueError):
        A = PathAlgebra(g, "R", IDENTITY, LEAVITT)


def test_partial_special_edges_keep_the_default_elsewhere():
    # v -> w by e and f: v = e e* + f f* whichever edge is special
    g = parse_graph("v v\nv w\ne e v w\ne f v w")
    for chosen in (None, {}, {"v": "e"}, {"v": "f"}):
        A = PathAlgebra(g, special_edges=chosen)
        assert not parse_element("v - e.e' - f.f'", A), chosen
    # u -> v by a and b, then v -> w by e and f
    g = parse_graph("v u\nv v\nv w\ne a u v\ne b u v\ne e v w\ne f v w")
    default = PathAlgebra(g)
    paths = all_paths_up_to(g, 2)
    pairs = [MonPair(p, q) for p in paths for q in paths if p.dst == q.dst]
    empty = PathAlgebra(g, special_edges={})
    assert empty.special_edges == default.special_edges == {"u": "a", "v": "e"}
    for mon in pairs:
        assert empty.from_terms({mon: 1}).terms == default.from_terms({mon: 1}).terms
    partial = PathAlgebra(g, special_edges={"u": "b"})
    assert partial.special_edges == {"u": "b", "v": "e"}
    for mon in pairs:
        got = partial.from_terms({mon: 1}).terms
        if "u" not in (mon.p.src, mon.q.src):  # no edge out of u in p or q
            assert got == default.from_terms({mon: 1}).terms, mon
    # the given entry applies: a a* is a redex only where a is special
    aa = MonPair(edge_path(g, ["a"]), edge_path(g, ["a"]))
    assert partial.from_terms({aa: 1}).terms == {aa: fe_one(Q)}
    assert default.from_terms({aa: 1}) == parse_element("u - b.b'", default)


def test_vertex_paths_are_checked_like_edge_paths():
    # on v -> w, (v, w, ()) names no path: it is neither vertex v nor vertex w
    g = parse_graph("v v\nv w\ne e v w")
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    w = vertex_path(g, "w")
    for bad in (PathSeq("v", "w", ()), PathSeq("w", "v", ())):
        text = f"path {format_path(bad)} is not a path of this graph"
        with pytest.raises(ValueError, match=re.escape(text)):
            A.monomial(bad, w)
        with pytest.raises(ValueError, match=re.escape(text)):
            A.from_terms({MonPair(bad, bad): 1})
    with pytest.raises(ValueError, match="unknown vertex 'u'"):
        A.monomial(PathSeq("u", "u", ()), w)
    assert A.monomial(w, w) == A.vertex("w")


def test_from_terms_rejects_foreign_paths():
    g = GRAPHS["line2"]
    other = GRAPHS["tree"]
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    foreign = edge_path(other, ["g"])
    with pytest.raises(ValueError):
        A.from_terms({MonPair(foreign, foreign): 1})

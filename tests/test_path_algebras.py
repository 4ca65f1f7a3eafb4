from fractions import Fraction

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import MonPair
from lpatrace.graphs import edge_path, format_path, vertex_path
from lpatrace.path_algebras import (
    COHN,
    LEAVITT,
    PathAlgebra,
    alg_commutator,
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
    fe_i,
    fe_one,
)

from conftest import (
    GIS_CORPUS,
    GRAPHS,
    fresh_rng,
    random_element,
    random_monpair,
    random_raw_terms,
    randomized_normalize,
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
    assert not alg_commutator(e, e)
    assert not alg_commutator(e, alg_star(e))  # ee* = e*e = v

    line = GRAPHS["line2"]
    B = PathAlgebra(line, Q, IDENTITY, COHN)
    f = B.path(["f"])
    ff = B.from_terms({MonPair(edge_path(line, ["f"]), edge_path(line, ["f"])): 1})
    # [ff*, f] = ff*f - f ff* = f - 0 = f
    assert alg_commutator(ff, f) == f


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
    # every monomial on the way is cached, the redex itself included
    assert A._nf(mon) is A._nf_cache[mon]
    assert len(A._nf_cache) == 1200 + 1201


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
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT, degree_cap=8)
    e = A.path(["e"])
    x = e
    with pytest.raises(PreconditionError):
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
    }
    for text, message in cases.items():
        with pytest.raises(ParseError, match=message):
            parse_element(text, A)


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


def test_from_terms_rejects_foreign_paths():
    g = GRAPHS["line2"]
    other = GRAPHS["tree"]
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    foreign = edge_path(other, ["g"])
    with pytest.raises(ValueError):
        A.from_terms({MonPair(foreign, foreign): 1})

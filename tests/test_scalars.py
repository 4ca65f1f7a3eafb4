import copy
import pickle
from fractions import Fraction
from itertools import product

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import CycleWord, CycleWordStar, MonPair, VertexClass, ZERO_CLASS
from lpatrace.graphs import edge_path, parse_graph, vertex_path
from lpatrace.path_algebras import LEAVITT, PathAlgebra, format_element, parse_element
from lpatrace.scalars import (
    CONJUGATION,
    IDENTITY,
    QI,
    Q,
    FieldElem,
    fe,
    fe_one,
    fe_zero,
    field_star,
    format_scalar,
    is_positive_definite,
    is_positive_nonzero,
    laurent,
    laurent_a0,
    laurent_star,
    parse_scalar,
)
from lpatrace.semigroups import (
    endo_semigroup,
    matrix_units_semigroup,
    minimal_trace,
    sg_element,
    sim_classes,
)
from lpatrace.structure import decompose, phi
from lpatrace.traces import (
    faithful_trace_exists,
    is_minimal_cohn,
    parse_trace_spec,
    positivity_screen,
    trace_eval,
    trace_spec,
    validate_trace_spec,
    vertex_trace_space,
)

from conftest import (
    fe_i,
    fresh_rng,
    laurent_one,
    outcome,
    random_scalar,
    random_scalar_text,
    reference_parse_scalar,
)


def test_field_star_examples():
    assert field_star(fe(Fraction(3, 4)), IDENTITY) == fe(Fraction(3, 4))
    assert field_star(fe(1, 2, QI), CONJUGATION) == fe(1, -2, QI)
    assert field_star(fe(1, 2, QI), IDENTITY) == fe(1, 2, QI)


def test_field_star_is_an_involution():
    rng = fresh_rng(1)
    for _ in range(100):
        a = random_scalar(rng, QI)
        assert field_star(field_star(a, CONJUGATION), CONJUGATION) == a


def test_q_rejects_imaginary_part():
    with pytest.raises(ValueError):
        fe(1, 1, Q)


def test_field_axioms_random():
    rng = fresh_rng(2)
    for field in (Q, QI):
        for _ in range(100):
            a, b, c = (random_scalar(rng, field) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * (fe_one(field) / a) == fe_one(field)


def test_star_is_additive_and_multiplicative():
    rng = fresh_rng(3)
    for inv in (IDENTITY, CONJUGATION):
        for _ in range(100):
            a, b = random_scalar(rng, QI), random_scalar(rng, QI)
            assert field_star(a + b, inv) == field_star(a, inv) + field_star(b, inv)
            assert field_star(a * b, inv) == field_star(b, inv) * field_star(a, inv)


def test_positive_definiteness_of_the_two_good_configurations():
    rng = fresh_rng(4)
    for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
        assert is_positive_definite(field, inv)
        for _ in range(100):
            tup = [random_scalar(rng, field) for _ in range(rng.randint(1, 4))]
            total = fe_zero(field)
            for a in tup:
                total = total + a * field_star(a, inv)
            if not any(tup):
                assert not total
            else:
                assert total


def test_qi_identity_is_not_positive_definite():
    assert not is_positive_definite(QI, IDENTITY)
    one, i = fe_one(QI), fe_i()
    # the witness tuple (1, i): 1*1 + i*i = 0
    total = one * field_star(one, IDENTITY) + i * field_star(i, IDENTITY)
    assert not total


def test_is_positive_nonzero_examples():
    assert is_positive_nonzero(fe(Fraction(5, 3)), IDENTITY)
    assert not is_positive_nonzero(fe_zero(Q), IDENTITY)
    assert not is_positive_nonzero(fe(-1), IDENTITY)
    with pytest.raises(PreconditionError):
        is_positive_nonzero(fe_one(QI), IDENTITY)


def test_laurent_star_examples():
    assert laurent_star(laurent(QI, {}), CONJUGATION) == laurent(QI, {})
    p = laurent(QI, {1: fe(1, 2, QI)})
    assert laurent_star(p, CONJUGATION) == laurent(QI, {-1: fe(1, -2, QI)})
    q = laurent(Q, {2: fe_one(Q), 0: fe(3)})
    assert laurent_star(q, IDENTITY) == laurent(Q, {-2: fe_one(Q), 0: fe(3)})


def test_laurent_a0_examples():
    p = laurent(Q, {0: fe(3), 1: fe(2), -1: fe(-1)})
    assert laurent_a0(p) == fe(3)
    assert laurent_a0(laurent(Q, {})) == fe_zero(Q)
    # a0 of (1+x)(1+x)^* over Q: expand (1+x)(1+x^-1) = x^-1 + 2 + x
    one_plus_x = laurent_one(Q) + laurent(Q, {1: fe_one(Q)})
    assert laurent_a0(one_plus_x * laurent_star(one_plus_x, IDENTITY)) == fe(2)


def test_laurent_a0_matches_coefficient_norm_sum():
    rng = fresh_rng(5)
    for _ in range(100):
        coeffs = {
            rng.randint(-3, 3): random_scalar(rng, QI)
            for _ in range(rng.randint(0, 4))
        }
        p = laurent(QI, coeffs)
        expected = fe_zero(QI)
        for _, c in p.coeffs:
            expected = expected + c * field_star(c, CONJUGATION)
        assert laurent_a0(p * laurent_star(p, CONJUGATION)) == expected


def test_laurent_star_involution_and_antimultiplicative():
    rng = fresh_rng(6)
    for _ in range(100):
        def rand_poly():
            return laurent(QI, {
                rng.randint(-3, 3): random_scalar(rng, QI)
                for _ in range(rng.randint(0, 3))
            })
        p, q = rand_poly(), rand_poly()
        assert laurent_star(laurent_star(p, CONJUGATION), CONJUGATION) == p
        assert laurent_star(p * q, CONJUGATION) == \
            laurent_star(q, CONJUGATION) * laurent_star(p, CONJUGATION)


def test_laurent_strips_zero_coefficients():
    p = laurent(Q, {0: fe_zero(Q), 2: fe(1)})
    assert p.coeffs == ((2, fe_one(Q)),)
    assert not laurent(Q, {5: fe_zero(Q)})
    # repeated exponents are summed; exponents are integers
    assert not laurent(Q, [(1, 1), (1, -1)])
    assert laurent(Q, [(1, 1), (1, 2)]).coeffs == ((1, fe(3)),)
    with pytest.raises(TypeError):
        laurent(Q, {1.5: 1})


def test_scalar_parse_and_format():
    cases = ["3", "-3", "1/2", "-7/3", "0"]
    for text in cases:
        assert format_scalar(parse_scalar(text, Q)) == text
    qi_cases = ["1/2-3i", "2+2i", "0+1i", "-1+1/2i"]
    for text in qi_cases:
        assert format_scalar(parse_scalar(text, QI)) == text
    assert parse_scalar("3i", QI) == fe(0, 3, QI)
    with pytest.raises(ParseError):
        parse_scalar("1+2i", Q)
    with pytest.raises(ParseError):
        parse_scalar("x", Q)
    with pytest.raises(ParseError):
        parse_scalar("1/2/3", Q)


def test_format_round_trip_random():
    rng = fresh_rng(7)
    for _ in range(200):
        a = random_scalar(rng, QI)
        assert parse_scalar(format_scalar(a), QI) == a


# ---------------------------------------------------------------------------
# FieldElem against a (Fraction, Fraction) reference
# ---------------------------------------------------------------------------


def _random_pair(rng, field):
    """A reference value: (re, im) Fractions, im = 0 over Q."""
    def part():
        return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 12, 35)))
    return part(), part() if field == QI else Fraction(0)


def _view(x):
    assert type(x.re) is Fraction and type(x.im) is Fraction
    return x.re, x.im


def _ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm,
            (a[1] * b[0] - a[0] * b[1]) / norm)


def test_field_elem_matches_fraction_pair_reference():
    rng = fresh_rng(8)
    for field in (Q, QI):
        for _ in range(300):
            a, b = _random_pair(rng, field), _random_pair(rng, field)
            x, y = fe(*a, field), fe(*b, field)
            k = rng.randint(-7, 7)
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert _view(x) == a
            assert _view(x + y) == (a[0] + b[0], a[1] + b[1])
            assert _view(x - y) == (a[0] - b[0], a[1] - b[1])
            assert _view(-x) == (-a[0], -a[1])
            assert _view(x * y) == _ref_mul(a, b)
            for s in (k, r):  # int and Fraction operands, on both sides
                assert _view(x + s) == _view(s + x) == (a[0] + s, a[1])
                assert _view(x - s) == (a[0] - s, a[1])
                assert _view(s - x) == (s - a[0], -a[1])
                assert _view(x * s) == _view(s * x) == (a[0] * s, a[1] * s)
                if s:
                    assert _view(x / s) == (a[0] / s, a[1] / s)
            if y:
                assert _view(x / y) == _ref_div(a, b)
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
            with pytest.raises(ZeroDivisionError):
                x / 0
            with pytest.raises(ZeroDivisionError):
                x / Fraction(0)
            with pytest.raises(ZeroDivisionError, match="zero field element"):
                x / fe_zero(field)
            assert bool(x) == (a != (0, 0))


def test_equal_values_built_by_different_routes_are_equal_and_hash_equal():
    routes = [
        (fe(2) / fe(4), fe(Fraction(1, 2))),
        (fe(Fraction(3, 6)), fe(1) - fe(Fraction(1, 2))),
        (fe(1, 1, QI) * fe(1, -1, QI), fe(2, 0, QI)),
        (fe(2, 4, QI) / 4, fe(Fraction(1, 2), 1, QI)),
        (fe(Fraction(1, 3), Fraction(1, 6), QI) * 6, fe(2, 1, QI)),
        (fe(5) - fe(5), fe_zero(Q)),
        (fe(0, 7, QI) - fe(0, 7, QI), fe_zero(QI)),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)
    assert fe(1, 0, QI) != fe(1, 0, Q)
    assert fe(1) != 1 and fe_one(Q) != Fraction(1)
    assert fe(Fraction(4, 6)).re == Fraction(2, 3)
    assert fe(Fraction(-4, 6), Fraction(5, 10), QI).im.denominator == 2


def test_field_elem_errors():
    x = fe(1, 2, QI)
    for name in ("re", "im", "field", "_v", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == fe(1, 2, QI)
    for op in (
        lambda a, b: a + b, lambda a, b: a - b,
        lambda a, b: a * b, lambda a, b: a / b,
    ):
        with pytest.raises(ValueError, match="mixed fields"):
            op(fe(1), fe(1, 0, QI))
    with pytest.raises(ValueError):
        FieldElem(Fraction(1), Fraction(1, 2), Q)
    with pytest.raises(ValueError):
        fe(1, 0, "R")
    with pytest.raises(TypeError):
        fe(0.5)
    with pytest.raises(TypeError):
        FieldElem(1, 0.5, QI)
    for op in (
        lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
        lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a,
        lambda a, b: a / b,
    ):
        with pytest.raises(TypeError):
            op(x, 1.5)


def test_every_coefficient_argument_follows_one_field_rule():
    # an int or Fraction is converted; a FieldElem must already lie in the field
    g = parse_graph("v v\ne e v v")
    G = matrix_units_semigroup(1)  # 0 is the zero, 1 the unit e_11
    callers = {
        "laurent": lambda c, field: laurent(field, {0: c}).coeff(0),
        "PathAlgebra.scalar": lambda c, field: PathAlgebra(g, field).scalar(c),
        "trace_spec": lambda c, field: trace_spec(g, field, vertex_values={"v": c})
        .values[VertexClass("v")],
        "sg_element": lambda c, field: sg_element(G, {1: c}, field).terms[1],
    }
    for name, coerce in callers.items():
        assert coerce(Fraction(1, 2), Q) == fe(Fraction(1, 2)), name
        assert coerce(2, QI) == fe(2, 0, QI), name
        assert coerce(fe(1, 1, QI), QI) == fe(1, 1, QI), name
        with pytest.raises(ValueError, match=r"^scalar field Qi != Q$"):
            coerce(fe(1, 1, QI), Q)
        with pytest.raises(ValueError, match=r"^scalar field Q != Qi$"):
            coerce(fe(1), QI)
        with pytest.raises(TypeError):
            coerce(0.5, Q)


def test_pickle_and_deepcopy_round_trips():
    g = parse_graph("v v\ne e v v\ne f v v")
    path = edge_path(g, ["e", "f"])
    x = parse_element("1/2+3i*e/f.e' - f'", PathAlgebra(g, QI, CONJUGATION))
    h = parse_graph("v a\nv b\nv v\ne f a b\ne e v v")
    leavitt = PathAlgebra(h, QI, CONJUGATION, LEAVITT)
    dec = decompose(h)
    y = parse_element("2*f - a + e/e + v", leavitt)
    image = phi(dec, y)
    values = [
        fe(Fraction(-3, 4)),
        fe(Fraction(1, 2), -5, QI),
        laurent(QI, {-2: fe(1, 1, QI), 3: fe(Fraction(2, 7), 0, QI)}),
        path,
        MonPair(path, vertex_path(g, "v")),
        x,
        image,
    ]
    # the value types: class ids, verdicts, partitions, maps and tables
    spec = parse_trace_spec("field Qi\nvertex v 1\ncycle e/f 2 1-1i\n", g)
    endo = endo_semigroup(2)
    values += [
        VertexClass("v"), CycleWord(("e", "f")), CycleWordStar(("e", "f")),
        ZERO_CLASS, spec, validate_trace_spec(g, spec),
        vertex_trace_space(g, QI), is_minimal_cohn(g, spec, list(spec.values)),
        *positivity_screen(h, parse_trace_spec("vertex a -1\n", h)),
        faithful_trace_exists(g), faithful_trace_exists(h),
        sim_classes(endo), minimal_trace(endo), endo,  # its `_sim` is filled
    ]
    for v in values:
        for copied in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert type(copied) is type(v)
            if v is x:  # a pickle copies the algebra, which compares by identity
                assert copied.terms == x.terms
                assert format_element(copied) == format_element(x)
                for mon in copied.terms:
                    assert type(mon) is MonPair
                    assert type(mon.p) is type(mon.q) is type(path)
            elif v is image:  # and the decomposition and its graph
                assert copied.blocks == image.blocks
                assert repr(copied) == repr(image)
            else:
                assert copied == v and hash(copied) == hash(v)
    # graphs, algebras and decompositions are fixed once built, so a deep
    # copy keeps them and combines with the original; a pickle does not
    for context in (g, h, x.algebra, leavitt, dec):
        assert copy.deepcopy(context) is context
    assert x + copy.deepcopy(x) == x + x
    assert phi(dec, copy.deepcopy(y)) == image
    valid = parse_trace_spec("field Qi\ncycle e/f 2 1-1i\n", g)
    assert trace_eval(copy.deepcopy(g), valid, x) == trace_eval(g, valid, x)
    assert image + copy.deepcopy(image) == image + image
    with pytest.raises(ValueError, match="^elements belong to different algebras$"):
        x + pickle.loads(pickle.dumps(x))
    # a warm context: its pickle carries the expansion and scalar memos, and
    # parses and multiplies as the original does, term order included
    texts = ("2*f - a + e/e + v", "e/e.e' - 1/2+1i*e' + 3", "e.e/e' + e/e'")
    elements = [parse_element(t, leavitt) for t in texts]
    for a in elements:
        for b in elements:
            a * b
    assert leavitt._expansions and leavitt._scalars
    warm = pickle.loads(pickle.dumps(leavitt))
    assert warm._expansions == leavitt._expansions
    assert warm._scalars == leavitt._scalars
    assert warm.special_edges == leavitt.special_edges
    copies = [parse_element(t, warm) for t in texts]
    for a, a2 in zip(elements, copies):
        assert list(a2.terms.items()) == list(a.terms.items())
    for (a, a2), (b, b2) in product(zip(elements, copies), repeat=2):
        assert list((a2 * b2).terms.items()) == list((a * b).terms.items())
    assert copy.deepcopy(leavitt) is leavitt


def test_parse_scalar_matches_the_fraction_reference():
    # values, exception types and texts, over Q and Q(i)
    rng = fresh_rng(2)
    parsed = 0
    for _ in range(3000):
        text = random_scalar_text(rng)
        for field in (Q, QI):
            got = outcome(parse_scalar, text, field)
            assert got == outcome(reference_parse_scalar, text, field), (text[:40], field)
            parsed += got[0] == "ok"
    assert parsed > 1000


def test_parse_scalar_reads_the_real_part_first():
    # the real part's zero denominator is met before the imaginary part's
    # digit limit, as Fraction(real) is built before Fraction(imaginary)
    text = "1/0+" + "9" * 5000 + "i"
    with pytest.raises(ParseError, match="zero denominator"):
        parse_scalar(text, QI)
    assert outcome(parse_scalar, text, QI) == outcome(reference_parse_scalar, text, QI)
    with pytest.raises(ParseError, match="more than"):
        parse_scalar("9" * 5000 + "+1/0i", QI)

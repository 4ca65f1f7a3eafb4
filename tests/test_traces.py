import time
from fractions import Fraction
from itertools import product

import pytest

from lpatrace import traces
from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import ZERO_CLASS, CycleWord, CycleWordStar, MonPair, VertexClass
from lpatrace.graphs import Graph, edge_path, parse_graph, vertex_path
from lpatrace.linalg import rank
from lpatrace.path_algebras import (
    COHN,
    LEAVITT,
    PathAlgebra,
    alg_star,
    parse_element,
)
from lpatrace.scalars import (
    CONJUGATION,
    IDENTITY,
    QI,
    Q,
    fe,
    fe_one,
    fe_zero,
    is_positive_nonzero,
)
from lpatrace.semigroups import augmentation_trace, group_with_zero, kaplansky_trace
from lpatrace.traces import (
    TraceSpec,
    build_faithful_trace,
    faithful_trace_exists,
    is_minimal_cohn,
    minimal_trace_cohn,
    parse_trace_spec,
    positivity_screen,
    trace_eval,
    trace_spec,
    validate_trace_spec,
    vertex_trace_space,
)

from conftest import (
    CATALOG10,
    GRAPH_TEXTS,
    GRAPHS,
    NO_EXIT_NAMES,
    SEMIGROUPS,
    comb,
    complete_digraph,
    disjoint_union,
    fe_i,
    fraction_rank,
    fresh_rng,
    is_no_exit_reference,
    outcome,
    positivity_screen_reference,
    random_element,
    random_nonzero_element,
    random_raw_terms,
    random_validated_spec,
    ring,
    rose,
    small_graphs,
    trace_eval_reference,
    vertex_constraint_rows_reference,
)


def _vertex_mon(g, v):
    vp = vertex_path(g, v)
    return MonPair(vp, vp)


def test_validate_trace_spec_examples():
    loop = GRAPHS["one_loop"]
    spec = trace_spec(loop, Q, IDENTITY, vertex_values={"v": fe(1)})
    assert validate_trace_spec(loop, spec)

    rose = GRAPHS["rose2"]
    bad = trace_spec(rose, Q, IDENTITY, vertex_values={"v": fe(1)})
    check = validate_trace_spec(rose, bad)
    assert not check and check.violations[0][0] == "v"

    line = GRAPHS["line2"]
    for c in (fe(0), fe(2), fe(Fraction(-1, 3))):
        spec = trace_spec(line, Q, IDENTITY, vertex_values={"a": c, "b": c})
        assert validate_trace_spec(line, spec)


def test_trace_spec_keys_classes_once():
    rose = GRAPHS["rose2"]
    spec = trace_spec(rose, Q, IDENTITY, vertex_values={"v": fe(0)},
                      cycle_values={("e", "f"): 2, ("f", "e"): 2})
    assert spec == trace_spec(rose, Q, IDENTITY, cycle_values={("e", "f"): 2})
    assert spec.values == {CycleWord(("e", "f")): fe(2)}
    # a zero and a nonzero value for one class conflict in either order
    for table in ({("e", "f"): 0, ("f", "e"): 3}, {("e", "f"): 3, ("f", "e"): 0}):
        for kind in ("cycle_values", "cycle_star_values"):
            with pytest.raises(ValueError, match="conflicting values for rotation class e/f"):
                trace_spec(rose, Q, IDENTITY, **{kind: table})


def test_vertex_trace_space_examples():
    assert vertex_trace_space(GRAPHS["rose2"], Q).dimension == 0
    assert vertex_trace_space(GRAPHS["one_loop"], Q).dimension == 1
    space = vertex_trace_space(GRAPHS["line2"], Q)
    assert space.dimension == 1
    (assignment,) = space.assignments()
    assert assignment["a"] == assignment["b"]
    # a disjoint union has one dimension per component here
    assert vertex_trace_space(GRAPHS["disjoint"], Q).dimension == 2


@pytest.mark.parametrize("field", [Q, QI])
def test_vertex_trace_space_on_every_small_graph(field):
    # the vertex values of the traces on L(E) are the solutions of
    # delta(v) = sum of delta(r(e)) over e leaving v, at each regular v: the
    # basis solves every constraint, is independent, and has V - rank vectors
    for g in small_graphs():
        space = vertex_trace_space(g, field)
        rows = vertex_constraint_rows_reference(g)
        # the system is rational, so its echelon basis is too; rational
        # vectors are independent over Q(i) exactly when they are over Q
        assert all(x.field == field and x.im == 0
                   for vec in space.basis for x in vec), g
        basis = [[x.re for x in vec] for vec in space.basis]
        assert all(len(vec) == len(g.vertices) for vec in basis), g
        for vec in basis:
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0, (g, vec)
        assert fraction_rank(basis) == space.dimension, g
        assert space.dimension == len(g.vertices) - fraction_rank(rows), g


@pytest.mark.parametrize("field", [Q, QI])
def test_vertex_trace_space_dimension_in_closed_form(field):
    # delta(v) = sum of delta(r(e)) over e leaving v, solved by hand: on K_n
    # every delta(v) is half the total, so all vanish unless n = 2; a rose
    # of k loops has delta(v) = k delta(v); a comb's sinks are free and fix
    # its line; a ring is constant, and its chord doubles that constant
    expected = [(complete_digraph(n), int(n == 2)) for n in range(2, 10)]
    expected += [(rose(k), int(k == 1)) for k in range(1, 6)]
    expected += [(comb(n), n) for n in (1, 2, 3, 40, 300)]
    expected += [(ring(3000, chord=True), 0)]
    # a disjoint union adds up the dimensions of its parts
    expected += [
        (disjoint_union(complete_digraph(2), complete_digraph(5), rose(1),
                        rose(3), comb(40), ring(30, chord=True)), 1 + 0 + 1 + 0 + 40 + 0),
        (disjoint_union(rose(1), rose(1), complete_digraph(2)), 1 + 1 + 1),
    ]
    for g, dimension in expected:
        space = vertex_trace_space(g, field)
        assert space.dimension == dimension, (len(g.vertices), len(g.edges))
        assert all(x.field == field for vec in space.basis for x in vec)


def test_vertex_trace_space_hands_over_sparse_rows(nullspace_cells):
    # one entry per out-edge and one for v itself: at most V + E cells,
    # where dense rows would hand over V^2
    n = 2000
    g = Graph([f"a{i}" for i in range(n)],
              [(f"e{i}", f"a{i}", f"a{(i + 1) % n}") for i in range(n)])
    assert vertex_trace_space(g, Q).dimension == 1
    (cells,) = nullspace_cells
    assert cells <= len(g.vertices) + len(g.edge_src)


def test_full_rank_vertex_systems_take_no_field_arithmetic(
        monkeypatch, field_ops):
    # the loopless complete digraphs K4-K9 put a pivot in every column, so
    # their trace space is 0: their integer rows are eliminated in ints,
    # and `nullspace` returns before the substitution pass, the one place
    # that meets the field
    handed = []
    solve = traces.nullspace

    def kept(rows, ncols, field):
        handed.append(rows)
        return solve(rows, ncols, field)

    monkeypatch.setattr(traces, "nullspace", kept)
    for n in range(4, 10):
        g = complete_digraph(n)
        for field in (Q, QI):
            assert vertex_trace_space(g, field).dimension == 0, (n, field)
        rows = handed[-1]
        assert all(type(x) is int for row in rows for x in row.values()), n
        # `rank` is forward elimination alone, on the same rows
        assert rank(rows) == n
    assert field_ops == []
    # the counter sees a dimension-1 system's substitution pass, and the
    # division steps of field rows
    assert vertex_trace_space(GRAPHS["line2"], Q).dimension == 1
    assert field_ops
    field_ops.clear()
    assert rank([{0: fe(1), 1: fe(2)}, {0: fe(3), 1: fe(4)}]) == 2
    assert "__truediv__" in field_ops


def test_trace_eval_one_loop_example():
    loop = GRAPHS["one_loop"]
    spec = trace_spec(
        loop, QI, CONJUGATION,
        vertex_values={"v": fe_one(QI)},
        cycle_values={("e",): fe_i()},
        cycle_star_values={("e",): fe_i()},
    )
    A = PathAlgebra(loop, QI, CONJUGATION, LEAVITT)
    x = parse_element("v + e", A)
    prod = x * alg_star(x)
    assert trace_eval(loop, spec, prod) == fe(2, 2, QI)


def test_trace_eval_class_reads():
    line3 = GRAPHS["line3"]
    spec = trace_spec(
        line3, Q, IDENTITY,
        vertex_values={"a": fe(1), "b": fe(1), "c": fe(1)},
    )
    A = PathAlgebra(line3, Q, IDENTITY, LEAVITT)
    # t(p p*) = delta(r(p))
    fg = edge_path(line3, ["f", "g"])
    assert trace_eval(line3, spec, A.from_terms({MonPair(fg, fg): 1})) == fe(1)
    # incomparable pairs evaluate to zero
    rose = GRAPHS["rose2"]
    rspec = trace_spec(rose, Q, IDENTITY, vertex_values={"v": fe(0)})
    R = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    p = edge_path(rose, ["e", "f"])
    q = edge_path(rose, ["f", "f"])
    assert trace_eval(rose, rspec, R.from_terms({MonPair(p, q): 1})) == fe_zero(Q)


def test_trace_eval_rejects_invalid_spec_in_leavitt_mode():
    rose = GRAPHS["rose2"]
    bad = trace_spec(rose, Q, IDENTITY, vertex_values={"v": fe(1)})
    R = PathAlgebra(rose, Q, IDENTITY, LEAVITT)
    with pytest.raises(PreconditionError, match="'v'"):
        trace_eval(rose, bad, R.vertex("v"))
    # the same spec is fine on the Cohn algebra
    C = PathAlgebra(rose, Q, IDENTITY, COHN)
    assert trace_eval(rose, bad, C.vertex("v")) == fe(1)


@pytest.mark.parametrize("field,involution", [(Q, IDENTITY), (QI, CONJUGATION)])
@pytest.mark.parametrize("mode", [COHN, LEAVITT])
def test_trace_eval_matches_the_every_term_reference(mode, field, involution):
    # values and errors of the valued-classes-only sum and of the loop that
    # multiplies every term, on validated specs and on hand-built ones with
    # zero values, a zero-class key, a mixed field or a broken vertex value
    rng = fresh_rng(41)
    other = QI if field == Q else Q
    results = set()
    for name in ("rose2", "loop_exit", "two_cycle", "tail_loop", "mixed"):
        g = GRAPHS[name]
        A = PathAlgebra(g, field, involution, mode)
        valid = random_validated_spec(g, rng, field, involution)
        zeros = {VertexClass(v): fe_zero(field) for v in g.vertices}
        specs = [
            valid,
            random_validated_spec(g, rng, field, involution),
            TraceSpec(field, involution, {**zeros, ZERO_CLASS: fe(3, 0, field)}),
            TraceSpec(field, involution, {**valid.values, **zeros}),
            TraceSpec(field, involution, {**valid.values, ZERO_CLASS: fe(1, 0, other)}),
            TraceSpec(field, involution, {**valid.values, ZERO_CLASS: fe_zero(other)}),
            TraceSpec(field, involution, {**valid.values, VertexClass(g.vertices[0]): fe(5, 0, field)}),
        ]
        for spec in specs:
            for _ in range(15):
                x = random_element(A, rng, n_terms=5)
                got = outcome(trace_eval, g, spec, x)
                assert got == outcome(trace_eval_reference, g, spec, x), (name, spec)
                results.add(got[0] if got[0] != "ok" else bool(got[1]))
            copy = parse_graph(GRAPH_TEXTS[name])  # an equal graph, not the same one
            foreign = TraceSpec(other, involution, spec.values)
            for args in ((copy, spec, x), (g, foreign, x)):
                got = outcome(trace_eval, *args)
                assert got[0] is ValueError
                assert got == outcome(trace_eval_reference, *args)
    # nonzero and zero values, mixed-field errors, and in Leavitt mode the
    # broken vertex values
    assert {True, False, ValueError} <= results
    assert (PreconditionError in results) == (mode == LEAVITT)


def test_minimal_trace_cohn_examples():
    line = GRAPHS["line2"]
    C = PathAlgebra(line, Q, IDENTITY, COHN)
    v = C.vertex("a")
    vec = minimal_trace_cohn(line, v)
    assert vec.terms == {VertexClass("a"): fe_one(Q)}

    # ff* - b = [f, f*] is a commutator: ff* falls in the class of its
    # range vertex, so the minimal trace kills the difference
    f = edge_path(line, ["f"])
    x = C.from_terms({MonPair(f, f): 1, _vertex_mon(line, "b"): -1})
    assert not minimal_trace_cohn(line, x)
    # whereas a - b straddles two vertex classes and is not in the span
    y = C.vertex("a") - C.vertex("b")
    vec = minimal_trace_cohn(line, y)
    assert vec.terms == {VertexClass("a"): fe_one(Q), VertexClass("b"): fe(-1)}

    rng = fresh_rng(40)
    for name in ("line3", "tree", "one_loop", "rose2"):
        g = GRAPHS[name]
        C = PathAlgebra(g, Q, IDENTITY, COHN)
        for _ in range(200):
            x, y = random_element(C, rng), random_element(C, rng)
            assert not minimal_trace_cohn(g, x * y - y * x)


def test_minimal_trace_cohn_requires_cohn_mode():
    line = GRAPHS["line2"]
    A = PathAlgebra(line, Q, IDENTITY, LEAVITT)
    with pytest.raises(PreconditionError):
        minimal_trace_cohn(line, A.vertex("a"))


def test_is_minimal_cohn_examples():
    single = GRAPHS["one_loop"]
    # cyclic graph needs an explicit class list
    with pytest.raises(PreconditionError):
        is_minimal_cohn(single, trace_spec(single, Q, IDENTITY))
    verdict = is_minimal_cohn(
        single,
        trace_spec(single, Q, IDENTITY, vertex_values={"v": fe(1)}),
        classes=[VertexClass("v")],
    )
    assert verdict and verdict.relative_to_supplied_list

    import lpatrace.graphs as graphs_mod

    isolated = graphs_mod.parse_graph("v a")
    assert is_minimal_cohn(
        isolated, trace_spec(isolated, Q, IDENTITY, vertex_values={"a": fe(1)})
    )
    two = graphs_mod.parse_graph("v a\nv b")
    spec = trace_spec(two, Q, IDENTITY, vertex_values={"a": fe(1), "b": fe(1)})
    assert not is_minimal_cohn(two, spec)
    line = GRAPHS["line2"]
    spec = trace_spec(line, Q, IDENTITY, vertex_values={"a": fe(1), "b": fe(1)})
    assert not is_minimal_cohn(line, spec)


def test_is_minimal_cohn_is_the_rank_of_the_value_column():
    # every class list of length 0-3 over two valued and two unvalued
    # classes, repeats included: the verdict is whether the one column of
    # values has full rank, with the rank taken by `linalg.rank`
    rose = GRAPHS["rose2"]
    for field, involution in ((Q, IDENTITY), (QI, CONJUGATION)):
        spec = trace_spec(rose, field, involution, vertex_values={"v": 2},
                          cycle_star_values={("e", "f"): fe(1, 1, field) if field == QI else -1})
        pool = [VertexClass("v"), CycleWordStar(("e", "f")), CycleWord(("e", "f")), ZERO_CLASS]
        for n in range(4):
            for classes in product(pool, repeat=n):
                verdict = is_minimal_cohn(rose, spec, classes)
                column = [{0: spec.class_value(cls)} for cls in classes]
                assert verdict.minimal is (rank(column) == n), classes
                assert verdict.classes == classes and verdict.relative_to_supplied_list
    # with no list, on acyclic graphs: the vertex classes
    for text in ("v a", "v a\nv b", GRAPH_TEXTS["line2"]):
        g = parse_graph(text)
        for values in product((0, 1), repeat=len(g.vertices)):
            spec = trace_spec(g, Q, IDENTITY, vertex_values=dict(zip(g.vertices, values)))
            verdict = is_minimal_cohn(g, spec)
            column = [{0: spec.class_value(VertexClass(v))} for v in g.vertices]
            assert verdict.minimal is (rank(column) == len(g.vertices)), (text, values)
            assert not verdict.relative_to_supplied_list


def test_is_minimal_cohn_refuses_cyclic_k9_quickly():
    vs = [f"v{i}" for i in range(9)]
    k9 = Graph(vs, [(f"e{i}_{j}", v, w) for i, v in enumerate(vs)
                    for j, w in enumerate(vs) if i != j])
    spec = trace_spec(k9, Q, IDENTITY)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="graph has cycles"):
        is_minimal_cohn(k9, spec)
    # listing all 125664 simple cycles of K9 takes about 2 s
    assert time.perf_counter() - start < 0.5


def test_positivity_screen_examples():
    loop = GRAPHS["one_loop"]
    good = trace_spec(loop, Q, IDENTITY, vertex_values={"v": fe(1)})
    assert positivity_screen(loop, good) == []

    neg = trace_spec(loop, Q, IDENTITY, vertex_values={"v": fe(-1)})
    conditions = {v.condition for v in positivity_screen(loop, neg)}
    assert 1 in conditions

    # monotonicity along reachability
    line = GRAPHS["line2"]
    spec = trace_spec(line, Q, IDENTITY, vertex_values={"a": fe(1), "b": fe(2)})
    conditions = {v.condition for v in positivity_screen(line, spec)}
    assert 2 in conditions and 3 in conditions

    with pytest.raises(PreconditionError):
        positivity_screen(loop, trace_spec(loop, QI, IDENTITY,
                                           vertex_values={"v": fe_one(QI)}))


def test_positivity_screen_keeps_declaration_order():
    # z is declared before y, against name order; values rise along both
    # edges, so both reachable pairs violate monotonicity
    g = parse_graph("v s\nv z\nv y\ne f s z\ne h s y")
    spec = trace_spec(g, Q, IDENTITY,
                      vertex_values={"s": fe(1), "z": fe(2), "y": fe(3)})
    pairs = [v.vertices for v in positivity_screen(g, spec) if v.condition == 2]
    assert pairs == [("s", "z"), ("s", "y")]


def _random_screen_case(rng):
    vs = [f"v{i}" for i in range(rng.randint(1, 8))]
    edges = [(f"e{i}", rng.choice(vs), rng.choice(vs))
             for i in range(rng.randint(0, 12))]
    g = Graph(vs, edges)
    field, involution = rng.choice([(Q, IDENTITY), (QI, CONJUGATION)])
    values = {}
    for v in vs:
        if rng.random() < 0.8:  # few distinct values, so ties and monotone runs
            re, im = rng.randint(-1, 4), 0
            if field is QI and rng.random() < 0.15:
                im = rng.choice((-1, 1))
            values[v] = fe(Fraction(re, rng.choice((1, 2))), im, field)
    return g, trace_spec(g, field, involution, vertex_values=values)


def test_positivity_screen_matches_the_pair_walk_reference():
    """The edge check decides whether any reachable pair violates condition
    2; the violation list, and its order, is the pair walk's."""
    rng = fresh_rng(21)
    walked = skipped = 0
    for _ in range(600):
        g, spec = _random_screen_case(rng)
        got = positivity_screen(g, spec)
        assert got == positivity_screen_reference(g, spec), (g.edges, spec)
        if any(v.condition == 2 for v in got):
            walked += 1
        elif g.edges and any(src != g.edge_dst[e] for e, src in g.edge_src.items()):
            skipped += 1
    assert walked > 50 and skipped > 50
    # a 600-vertex line whose values fall along it: every edge passes, so
    # the pair walk (180,000 pairs in the reference) is skipped
    n = 600
    line = Graph([f"v{i}" for i in range(n)],
                 [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    spec = trace_spec(line, Q, IDENTITY,
                      vertex_values={f"v{i}": fe(n - 2 - i) for i in range(n)})
    got = positivity_screen(line, spec)
    assert got == positivity_screen_reference(line, spec)
    assert [v.condition for v in got] == [1, 4, 4]


def test_screen_passes_on_the_insufficient_example():
    # the screen is necessary, not sufficient: this spec passes it although
    # the induced trace takes the value 2+2i on a positive element
    loop = GRAPHS["one_loop"]
    spec = trace_spec(
        loop, QI, CONJUGATION,
        vertex_values={"v": fe_one(QI)},
        cycle_values={("e",): fe_i()},
        cycle_star_values={("e",): fe_i()},
    )
    assert positivity_screen(loop, spec) == []
    A = PathAlgebra(loop, QI, CONJUGATION, LEAVITT)
    x = parse_element("v + e", A)
    value = trace_eval(loop, spec, x * alg_star(x))
    assert not (value.im == 0 and value.re >= 0)


def test_faithful_trace_exists_examples():
    assert faithful_trace_exists(GRAPHS["one_loop"], Q, IDENTITY)
    verdict = faithful_trace_exists(GRAPHS["rose2"], Q, IDENTITY)
    assert not verdict
    assert verdict.witness_cycle is not None and verdict.witness_exit is not None
    assert faithful_trace_exists(GRAPHS["line2"], QI, CONJUGATION)
    with pytest.raises(PreconditionError):
        faithful_trace_exists(GRAPHS["line2"], QI, IDENTITY)


def test_build_faithful_trace_examples():
    loop = GRAPHS["one_loop"]
    spec = build_faithful_trace(loop, Q, IDENTITY)
    A = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    assert trace_eval(loop, spec, A.vertex("v")) == fe(1)
    for k in (1, 2, 3):
        assert trace_eval(loop, spec, A.path(["e"] * k)) == fe_zero(Q)

    line = GRAPHS["line2"]
    lspec = build_faithful_trace(line, Q, IDENTITY)
    B = PathAlgebra(line, Q, IDENTITY, LEAVITT)
    assert trace_eval(line, lspec, B.vertex("a")) == fe(1)
    assert trace_eval(line, lspec, B.vertex("b")) == fe(1)
    assert trace_eval(line, lspec, B.vertex("a") + B.vertex("b")) == fe(2)

    x = parse_element("v + e", A)
    assert trace_eval(loop, spec, x * alg_star(x)) == fe(2)

    with pytest.raises(PreconditionError, match="graph is not no-exit: cycle e"):
        build_faithful_trace(GRAPHS["rose2"], Q, IDENTITY)


def test_built_trace_is_faithful_on_samples():
    rng = fresh_rng(41)
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
            spec = build_faithful_trace(g, field, inv)
            A = PathAlgebra(g, field, inv, LEAVITT)
            assert trace_eval(g, spec, A.zero()) == fe_zero(field)
            for _ in range(30):
                x = random_nonzero_element(A, rng)
                value = trace_eval(g, spec, x * alg_star(x))
                assert is_positive_nonzero(value, inv), (name, field)


def test_traciality_and_normalization_invariance():
    rng = fresh_rng(42)
    for name in ("line3", "tree", "one_loop", "two_cycle", "disjoint"):
        g = GRAPHS[name]
        for _ in range(8):
            spec = random_validated_spec(g, rng)
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
            C = PathAlgebra(g, Q, IDENTITY, COHN)
            for _ in range(15):
                x, y = random_element(A, rng), random_element(A, rng)
                assert trace_eval(g, spec, x * y) == trace_eval(g, spec, y * x)
            for _ in range(10):
                raw = random_raw_terms(g, rng, Q)
                cohn_val = trace_eval(g, spec, C.from_terms(raw))
                leavitt_val = trace_eval(g, spec, A.from_terms(raw))
                assert cohn_val == leavitt_val


def test_leavitt_trace_needs_no_normal_form():
    """A trace on L(E) is a trace on C(E) that vanishes on the relations
    v = sum of e e*.  So for a validated spec, `trace_eval` of a Leavitt
    element equals `trace_eval` of the Cohn element with the same raw terms,
    for x, xy and yxy; the Cohn side never rewrites, so this checks `_nf`
    and `_canonical_terms` on 300 seeded small graphs, with 5 specs each and
    the built faithful spec on a no-exit graph."""
    rng = fresh_rng(45)
    checked = 0
    for g in rng.sample(small_graphs(), 300):
        L = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        C = PathAlgebra(g, Q, IDENTITY, COHN)
        specs = [random_validated_spec(g, rng, max_cycle_len=2) for _ in range(5)]
        if is_no_exit_reference(g):
            specs.append(build_faithful_trace(g, Q, IDENTITY))
        for spec in specs:
            rx, ry = random_raw_terms(g, rng, Q), random_raw_terms(g, rng, Q)
            x, y = L.from_terms(rx), L.from_terms(ry)
            cx, cy = C.from_terms(rx), C.from_terms(ry)
            for lv, cv in ((x, cx), (x * y, cx * cy), (y * x * y, cy * cx * cy)):
                assert trace_eval(g, spec, lv) == trace_eval(g, spec, cv), g
                checked += 1
    assert checked >= 4500


def test_well_definedness_on_ideal_generators():
    rng = fresh_rng(43)
    for name in ("line3", "tree", "two_cycle"):
        g = GRAPHS[name]
        C = PathAlgebra(g, Q, IDENTITY, COHN)
        spec = random_validated_spec(g, rng)
        regulars = [v for v in g.vertices if g.out_edges[v]]
        for v in regulars:
            gen_raw = {_vertex_mon(g, v): fe_one(Q)}
            for eid in g.out_edges[v]:
                p = edge_path(g, [eid])
                gen_raw[MonPair(p, p)] = fe(-1)
            n = C.from_terms(gen_raw)
            for _ in range(35):
                x, y = random_element(C, rng), random_element(C, rng)
                assert trace_eval(g, spec, x * n * y) == fe_zero(Q)


def test_spec_round_trip_through_the_evaluator():
    rng = fresh_rng(44)
    for name in ("line3", "one_loop", "two_cycle"):
        g = GRAPHS[name]
        spec = random_validated_spec(g, rng)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        # read the spec back off the evaluator on class representatives
        vertex_values = {
            v: trace_eval(g, spec, A.vertex(v)) for v in g.vertices
        }
        cycle_values = {}
        star_values = {}
        for cls in spec.values:
            if type(cls) is CycleWord:
                p = edge_path(g, cls.edges)
                mon = MonPair(p, vertex_path(g, p.dst))
                cycle_values[cls.edges] = trace_eval(g, spec, A.from_terms({mon: 1}))
            elif type(cls) is CycleWordStar:
                p = edge_path(g, cls.edges)
                mon = MonPair(vertex_path(g, p.dst), p)
                star_values[cls.edges] = trace_eval(g, spec, A.from_terms({mon: 1}))
        rebuilt = trace_spec(
            g, Q, IDENTITY,
            vertex_values=vertex_values,
            cycle_values=cycle_values,
            cycle_star_values=star_values,
        )
        assert rebuilt == spec
        for _ in range(200):
            x = random_element(A, rng)
            assert trace_eval(g, rebuilt, x) == trace_eval(g, spec, x)


def test_catalog_faithful_iff_no_exit():
    from lpatrace.graphs import is_no_exit

    for name in CATALOG10:
        g = GRAPHS[name]
        for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
            assert bool(faithful_trace_exists(g, field, inv)) == is_no_exit(g)


def test_faithful_trace_exists_iff_no_exit_on_every_small_graph():
    # criterion 8's theorem, a faithful trace exists iff no cycle has an
    # exit, on all 790 small graphs against the brute-force no-exit test; a
    # refusal names a simple cycle and an edge leaving it
    for g in small_graphs():
        no_exit = is_no_exit_reference(g)
        for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
            verdict = faithful_trace_exists(g, field, inv)
            assert bool(verdict) == no_exit, g
            if not verdict:
                cyc, exit_edge = verdict.witness_cycle, verdict.witness_exit
                on_cycle = {g.edge_src[e] for e in cyc.edges}
                assert cyc.is_closed and len(on_cycle) == len(cyc.edges), g
                assert g.edge_src[exit_edge] in on_cycle, g
                assert exit_edge not in cyc.edges, g


def test_line_graph_identity_involution_counterexample():
    # over Qi with the identity involution every trace kills the positive
    # element (v + i w)(v + i w)^* = v - w, so no trace is faithful
    line = GRAPHS["line2"]
    space = vertex_trace_space(line, QI)
    assert space.dimension == 1
    B = PathAlgebra(line, QI, IDENTITY, LEAVITT)
    x = parse_element("a + 1i*b", B)
    arg = x * alg_star(x)
    assert arg  # nonzero element of the algebra
    expected = B.vertex("a") - B.vertex("b")
    assert arg == expected
    for assignment in space.assignments():
        spec = trace_spec(line, QI, IDENTITY, vertex_values=assignment)
        assert trace_eval(line, spec, arg) == fe_zero(QI)


def test_group_traces_examples():
    c2 = SEMIGROUPS["c2"]
    kap = kaplansky_trace(c2)
    assert [kap.values[i] for i in range(3)] == [fe_zero(Q), fe_one(Q), fe_zero(Q)]
    aug = augmentation_trace(c2)
    assert [aug.values[i] for i in range(3)] == [fe_zero(Q), fe_one(Q), fe_one(Q)]
    trivial = group_with_zero([[0]])
    assert kaplansky_trace(trivial).values == augmentation_trace(trivial).values
    with pytest.raises(PreconditionError):
        kaplansky_trace(SEMIGROUPS["mu2"])


def test_parse_trace_spec_file():
    loop = GRAPHS["one_loop"]
    text = (
        "# loop spec\n"
        "field Qi\n"
        "involution conjugation\n"
        "vertex v 1\n"
        "cycle e 1i 1i\n"
    )
    spec = parse_trace_spec(text, loop)
    assert spec.field == QI and spec.involution == CONJUGATION
    assert spec.class_value(VertexClass("v")) == fe_one(QI)
    assert spec.class_value(CycleWord(("e",))) == fe_i()
    assert spec.class_value(CycleWordStar(("e",))) == fe_i()
    # a setting line holds for the whole file, wherever it stands
    late = parse_trace_spec("vertex v 1i\nfield Qi\n", loop)
    assert late.field == QI and late.class_value(VertexClass("v")) == fe_i()

    two = GRAPHS["two_cycle"]
    rotated = parse_trace_spec("cycle e2/e1 3\n", two)
    assert rotated.class_value(CycleWord(("e1", "e2"))) == fe(3)
    assert rotated.class_value(CycleWordStar(("e1", "e2"))) == fe(0)

    with pytest.raises(ParseError, match="line 1"):
        parse_trace_spec("vertex bogus 1\n", loop)
    with pytest.raises(ParseError):
        parse_trace_spec("field R\n", loop)
    with pytest.raises(ParseError):
        parse_trace_spec("vertex v 1+2i\n", loop)  # imaginary over Q


@pytest.mark.parametrize("text, message", [
    ("cycle zz 1\nvertex q 1\n", "line 1: unknown edge 'zz'"),
    ("vertex v 1/0\nedge e 1\n", "line 1: zero denominator in scalar '1/0'"),
    # a malformed setting line sets nothing, so the field stays Q
    ("vertex v 1i\nfield R\n", "line 1: imaginary scalar '1i' not allowed over Q"),
])
def test_parse_trace_spec_names_the_first_faulty_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_trace_spec(text, GRAPHS["one_loop"])
    assert str(info.value) == message and info.value.line == 1

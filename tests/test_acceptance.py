"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact (integer/rational equality); run with `pytest -s`
to see the per-criterion lines and timings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from lpatrace.gis import MonPair, VertexClass
from lpatrace.graphs import edge_path, is_no_exit, vertex_path
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
from lpatrace.semigroups import (
    augmentation_trace,
    central_map,
    endo_semigroup,
    group_with_zero,
    in_commutator_span,
    is_central_map,
    is_minimal_sg_trace,
    kaplansky_trace,
    matrix_unit_index,
    matrix_units_semigroup,
    minimal_trace,
    sg_element,
    sim_classes,
    sim_witness_chain,
)
from lpatrace.structure import (
    decompose,
    phi,
    phi_inverse_unit,
    pull_back_trace,
)
from lpatrace.traces import (
    TraceSpec,
    build_faithful_trace,
    faithful_trace_exists,
    trace_eval,
    trace_spec,
    validate_trace_spec,
    vertex_trace_space,
)
from lpatrace.gis import GIS_ZERO, classify_eq, gis_mul, gis_star

from conftest import (
    CATALOG10,
    GIS_CORPUS,
    GRAPHS,
    NO_EXIT_NAMES,
    SEMIGROUPS,
    commutator_span_oracle,
    cyclic_group_table,
    endo4_semigroup,
    endo_map_index,
    fe_i,
    fresh_rng,
    matrix_identity,
    random_central_map,
    random_element,
    random_monpair,
    random_nonzero_element,
    random_raw_terms,
    random_sg_element,
    randomized_normalize,
    random_validated_spec,
    symmetric_group_table,
)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL          {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS {elapsed:6.2f}s  {description}")


def _usual_trace_map(n, c):
    G = matrix_units_semigroup(n)
    values = [fe_zero(Q)] * G.size
    for i in range(1, n + 1):
        values[matrix_unit_index(n, i, i)] = c
    return G, values


def test_criterion_1_matrix_units_minimality():
    with criterion(1, "matrix-units central maps are scalar multiples of the "
                      "usual trace; minimal iff the scalar is nonzero"):
        for n in (1, 2, 3, 4):
            G = matrix_units_semigroup(n)
            part = sim_classes(G)
            diagonal = tuple(sorted(
                matrix_unit_index(n, i, i) for i in range(1, n + 1)
            ))
            # exactly one nonzero class, the diagonal: so every central map
            # into Q is determined by one scalar c on it, i.e. c * tr
            assert [part.classes[c] for c in part.nonzero_class_ids] == [diagonal]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    values = [fe_zero(Q)] * G.size
                    values[matrix_unit_index(n, i, j)] = fe_one(Q)
                    assert not is_central_map(G, values)
            for c in (fe(0), fe(1), fe(2), fe(Fraction(-1, 2))):
                _, values = _usual_trace_map(n, c)
                assert is_central_map(G, values)
                delta = central_map(G, values, Q)
                assert is_minimal_sg_trace(G, delta) == bool(c)


def test_criterion_2_minimal_trace_kernel_is_commutator_span():
    with criterion(2, "minimal-trace kernel equals the brute-force "
                      "commutator span on every fixture semigroup"):
        rng = fresh_rng(101)
        fixtures = {**SEMIGROUPS, "endo4": endo4_semigroup()}
        for name, G in fixtures.items():
            assert G.size <= 300
            oracle = commutator_span_oracle(G)
            one = fe_one(Q)
            for idx in G.nonzero_elements():
                x = sg_element(G, {idx: one})
                assert in_commutator_span(G, x) == \
                    oracle.contains({idx: one}), (name, idx)
            for _ in range(100):
                x = random_sg_element(G, rng)
                assert in_commutator_span(G, x) == \
                    oracle.contains(x.terms), name


def test_criterion_3_endo_example_needs_a_longer_chain():
    with criterion(3, "End({1..4}) witness: dc ~ fe holds with no "
                      "single-step witness (exhaustive over all pairs)"):
        G = endo_semigroup(4)
        c = endo_map_index(4, (0, 0, 1, 3))
        d = endo_map_index(4, (0, 1, 1, 2))
        e = endo_map_index(4, (0, 0, 1, 2))
        f = endo_map_index(4, (0, 0, 0, 2))
        g, h = G.mul(d, c), G.mul(f, e)
        assert G.mul(c, d) == G.mul(e, f)  # cd = ef, giving the 2-step chain
        chain = sim_witness_chain(G, g, h)
        assert chain is not None and len(chain) >= 2
        current = g
        for a, b in chain:
            assert G.mul(a, b) == current
            current = G.mul(b, a)
        assert current == h
        n = G.size
        for a in range(n):
            row = G.table[a]
            for b in range(n):
                assert not (row[b] == g and G.table[b][a] == h)


def test_criterion_4_group_rings_have_no_scalar_minimal_trace():
    with criterion(4, "group rings C2, C3, S3: no central map into Q is "
                      "minimal, the class-module minimal trace is"):
        rng = fresh_rng(102)
        groups = {
            "c2": cyclic_group_table(2),
            "c3": cyclic_group_table(3),
            "s3": symmetric_group_table(3),
        }
        for name, table in groups.items():
            G = group_with_zero(table)
            part = sim_classes(G)
            k = len(part.nonzero_class_ids)
            assert k >= 2  # nontrivial group: identity class is a singleton
            assert not is_minimal_sg_trace(G, kaplansky_trace(G))
            assert not is_minimal_sg_trace(G, augmentation_trace(G))
            for _ in range(25):
                delta = random_central_map(G, rng)
                assert not delta.is_vector_valued
                assert not is_minimal_sg_trace(G, delta), name
            assert is_minimal_sg_trace(G, minimal_trace(G))


def test_criterion_5_gis_laws():
    with criterion(5, "graph inverse semigroup laws on the 6-graph corpus"):
        rng = fresh_rng(103)
        for name in GIS_CORPUS:
            g = GRAPHS[name]
            for _ in range(500):
                a, b, c = (random_monpair(g, rng) for _ in range(3))
                assert gis_mul(gis_mul(a, b), c) == gis_mul(a, gis_mul(b, c))
            for _ in range(200):
                x = random_monpair(g, rng)
                xi = gis_star(x)
                assert gis_mul(gis_mul(x, xi), x) == x
                assert gis_mul(gis_mul(xi, x), xi) == xi
            for eid in g.edges:
                e_path = edge_path(g, [eid])
                e_elem = MonPair(e_path, vertex_path(g, e_path.dst))
                for fid in g.edges:
                    f_path = edge_path(g, [fid])
                    f_elem = MonPair(f_path, vertex_path(g, f_path.dst))
                    prod = gis_mul(gis_star(e_elem), f_elem)
                    if eid == fid:
                        vb = vertex_path(g, e_path.dst)
                        assert prod == MonPair(vb, vb)
                    else:
                        assert prod is GIS_ZERO
            for _ in range(500):
                a, b = random_monpair(g, rng), random_monpair(g, rng)
                assert classify_eq(g, gis_mul(a, b)) == \
                    classify_eq(g, gis_mul(b, a))


def _vertex_mon(g, v):
    vp = vertex_path(g, v)
    return MonPair(vp, vp)


def _vertex_relation_raw(g, v):
    raw = {_vertex_mon(g, v): fe_one(Q)}
    for eid in g.out_edges[v]:
        p = edge_path(g, [eid])
        raw[MonPair(p, p)] = fe(-1)
    return raw


def test_criterion_6_leavitt_rewriting_soundness_and_confluence():
    with criterion(6, "vertex relations rewrite to zero; normal forms are "
                      "order- and choice-independent"):
        rng = fresh_rng(104)
        for name in CATALOG10:
            g = GRAPHS[name]
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
            for v in g.vertices:
                if g.out_edges[v]:
                    assert not A.from_terms(_vertex_relation_raw(g, v)), (name, v)
        confluence_names = ("line3", "tree", "rose2", "mixed")
        per_graph = 200 // len(confluence_names)
        for name in confluence_names:
            g = GRAPHS[name]
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
            other = PathAlgebra(
                g, Q, IDENTITY, LEAVITT,
                special_edges={
                    v: max(g.out_edges[v]) for v in g.vertices if g.out_edges[v]
                },
            )
            for i in range(per_graph):
                x_raw = random_raw_terms(g, rng, Q, n_terms=3, max_len=4)
                expected = A.from_terms(x_raw).terms
                for _ in range(10):
                    assert randomized_normalize(A, x_raw, rng) == expected
                if rng.random() < 0.5:
                    regulars = [v for v in g.vertices if g.out_edges[v]]
                    y_raw = dict(x_raw)
                    for m, c in _vertex_relation_raw(g, rng.choice(regulars)).items():
                        y_raw[m] = y_raw.get(m, fe(0)) + c
                else:
                    y_raw = random_raw_terms(g, rng, Q, n_terms=3, max_len=4)
                verdict_a = A.from_terms(x_raw) == A.from_terms(y_raw)
                verdict_b = other.from_terms(x_raw) == other.from_terms(y_raw)
                assert verdict_a == verdict_b, name


def test_criterion_7_trace_classification_round_trip():
    with criterion(7, "validated specs give tracial, normalization-invariant "
                      "functionals; invalid specs name the violating vertex"):
        rng = fresh_rng(105)
        fixtures = ("line3", "tree", "one_loop", "two_cycle", "mixed")
        for name in fixtures:
            g = GRAPHS[name]
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
            C = PathAlgebra(g, Q, IDENTITY, COHN)
            for _ in range(20):
                spec = random_validated_spec(g, rng)
                assert validate_trace_spec(g, spec)
                for _ in range(15):
                    x, y = random_element(A, rng), random_element(A, rng)
                    assert trace_eval(g, spec, x * y) == \
                        trace_eval(g, spec, y * x)
                for _ in range(10):
                    raw = random_raw_terms(g, rng, Q)
                    assert trace_eval(g, spec, C.from_terms(raw)) == \
                        trace_eval(g, spec, A.from_terms(raw))
            # breaking the constraint at one regular vertex is detected there
            regulars = [v for v in g.vertices if g.out_edges[v]]
            base = random_validated_spec(g, rng)
            for v in regulars:
                # net coefficients of the constraint row at v; a vertex with
                # a nonzero net coefficient can be bumped to break it (for a
                # lone self-loop the constraint is tautological: skip)
                row = {v: 1}
                for eid in g.out_edges[v]:
                    w = g.edge_dst[eid]
                    row[w] = row.get(w, 0) - 1
                bump_at = next((w for w, c in row.items() if c), None)
                if bump_at is None:
                    continue
                key = VertexClass(bump_at)
                bumped = dict(base.values)
                bumped[key] = base.class_value(key) + fe_one(Q)
                broken = TraceSpec(Q, IDENTITY, {k: c for k, c in bumped.items() if c})
                check = validate_trace_spec(g, broken)
                assert not check
                assert v in {violation[0] for violation in check.violations}


def test_criterion_8_faithful_traces_at_desk_scale():
    with criterion(8, "faithful trace exists iff no-exit over the 10-graph "
                      "catalog; built traces are positive on x x*"):
        rng = fresh_rng(106)
        for name in CATALOG10:
            g = GRAPHS[name]
            expected = is_no_exit(g)
            for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
                assert bool(faithful_trace_exists(g, field, inv)) == expected
        assert vertex_trace_space(GRAPHS["rose2"], Q).dimension == 0
        for name in NO_EXIT_NAMES:
            g = GRAPHS[name]
            for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
                spec = build_faithful_trace(g, field, inv)
                A = PathAlgebra(g, field, inv, LEAVITT)
                for _ in range(100):
                    x = random_nonzero_element(A, rng)
                    value = trace_eval(g, spec, x * alg_star(x))
                    assert is_positive_nonzero(value, inv), (name, field)


def test_criterion_9_counterexamples_exactly():
    with criterion(9, "the 2+2i screen-insufficiency witness and the "
                      "identity-involution line-graph counterexample"):
        # (a) one-loop over Qi with conjugation
        loop = GRAPHS["one_loop"]
        spec = trace_spec(
            loop, QI, CONJUGATION,
            vertex_values={"v": fe_one(QI)},
            cycle_values={("e",): fe_i()},
            cycle_star_values={("e",): fe_i()},
        )
        from lpatrace.traces import positivity_screen

        assert positivity_screen(loop, spec) == []
        A = PathAlgebra(loop, QI, CONJUGATION, LEAVITT)
        x = parse_element("v + e", A)
        value = trace_eval(loop, spec, x * alg_star(x))
        assert value == fe(2, 2, QI)
        assert not (value.im == 0 and value.re >= 0)  # not positive

        # (b) line graph over Qi with the identity involution
        line = GRAPHS["line2"]
        space = vertex_trace_space(line, QI)
        assert space.dimension == 1
        B = PathAlgebra(line, QI, IDENTITY, LEAVITT)
        xb = parse_element("a + 1i*b", B)
        arg = xb * alg_star(xb)
        assert arg == B.vertex("a") - B.vertex("b")
        assert arg  # nonzero, and positive by construction (it is x x*)
        for assignment in space.assignments():
            vspec = trace_spec(line, QI, IDENTITY, vertex_values=assignment)
            assert trace_eval(line, vspec, arg) == fe_zero(QI)


def test_criterion_10_structure_isomorphism():
    with criterion(10, "block isomorphism: homomorphism, star-compatibility, "
                       "injectivity on basis monomials, unit, pulled trace"):
        rng = fresh_rng(107)
        for name in NO_EXIT_NAMES:
            g = GRAPHS[name]
            dec = decompose(g)
            A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
            for _ in range(300):
                x, y = random_element(A, rng), random_element(A, rng)
                assert phi(dec, x + y) == phi(dec, x) + phi(dec, y)
                assert phi(dec, x * y) == phi(dec, x) * phi(dec, y)
            S = PathAlgebra(g, QI, CONJUGATION, LEAVITT)
            for _ in range(200):
                x = random_element(S, rng)
                assert phi(dec, alg_star(x)) == phi(dec, x).star(CONJUGATION)
            images = set()
            for b, block in enumerate(dec.blocks):
                ks = range(-4, 5) if dec.is_cycle_block(b) else (0,)
                for j in range(block.size):
                    for l in range(block.size):
                        if len(block.paths[j].edges) + len(block.paths[l].edges) > 8:
                            continue
                        for k in ks:
                            mono = phi_inverse_unit(dec, A, b, j, l, k)
                            img = phi(dec, mono)
                            nonzero = [
                                (bi, key, tuple(sorted(blk.items())))
                                for bi, blk in enumerate(img.blocks) if blk
                                for key in [tuple(sorted(blk))]
                            ]
                            assert len(nonzero) == 1
                            key = (
                                nonzero[0][0], nonzero[0][1], nonzero[0][2],
                            )
                            assert key not in images, (name, b, j, l, k)
                            images.add(key)
            assert phi(dec, A.one()) == matrix_identity(dec, Q)

        line = GRAPHS["line2"]
        dec = decompose(line)
        t = pull_back_trace(dec, Q, IDENTITY)
        B = PathAlgebra(line, Q, IDENTITY, LEAVITT)
        assert t(B.vertex("a")) == fe(1)
        assert t(B.vertex("b")) == fe(1)
        assert t(B.path(["f"])) == fe_zero(Q)

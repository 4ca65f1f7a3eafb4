import itertools
import re
from fractions import Fraction

import pytest

from lpatrace import graphs, structure
from lpatrace.errors import PreconditionError
from lpatrace.gis import MonPair, VertexClass
from lpatrace.graphs import (
    Graph,
    cycle_with_exit_witness,
    edge_path,
    format_path,
    is_no_exit,
    parse_graph,
)
from lpatrace.path_algebras import LEAVITT, PathAlgebra, alg_star, parse_element
from lpatrace.scalars import (
    CONJUGATION,
    IDENTITY,
    QI,
    Q,
    fe,
    fe_one,
    fe_zero,
    laurent,
)
from lpatrace.structure import (
    decompose,
    decomposition_report,
    phi,
    phi_inverse_unit,
    pull_back_trace,
)
from lpatrace.traces import (
    build_faithful_trace,
    positivity_screen,
    trace_eval,
    validate_trace_spec,
)

from conftest import (
    GRAPH_TEXTS,
    GRAPHS,
    NO_EXIT_NAMES,
    all_paths_up_to,
    comb,
    cycle_rep,
    decompose_reference,
    double_edge_chain_text,
    expand_monomial_reference,
    fresh_rng,
    matrix_identity,
    outcome,
    random_element,
    small_graphs,
)


def test_decompose_examples():
    line = decompose(GRAPHS["line2"])
    assert len(line.sink_blocks) == 1 and not line.cycle_blocks
    assert line.sink_blocks[0].size == 2
    assert [format_path(p) for p in line.sink_blocks[0].paths] == ["b", "f"]

    loop = decompose(GRAPHS["one_loop"])
    assert not loop.sink_blocks and len(loop.cycle_blocks) == 1
    assert loop.cycle_blocks[0].size == 1

    both = decompose(GRAPHS["disjoint"])
    assert both.block_sizes() == (2, 1)


def test_decompose_on_every_small_graph():
    """On every graph with at most 3 vertices and 4 edges, `decompose` gives
    the blocks built from the brute-force cycle list, or the same error; an
    exit witness is a simple cycle in least rotation and an edge leaving it.
    Each graph also runs with its edge ids in reverse declaration order, so
    a cycle's least rotation need not start at its first declared edge."""
    for g in small_graphs():
        edges = [(e, g.edge_src[e], g.edge_dst[e]) for e in g.edges]
        renamed = [(f"e{len(edges) - 1 - i}", s, d) for i, (_, s, d) in enumerate(edges)]
        _check_decompose(g, edges)
        _check_decompose(Graph(g.vertices, renamed), renamed)


def _check_decompose(g, edges):
    got = outcome(lambda: decompose(g).blocks)
    assert got == outcome(decompose_reference, g), edges
    witness = cycle_with_exit_witness(g)
    if witness is not None:
        cyc, exit_edge = witness
        assert cycle_rep(g, cyc.edges) == cyc, edges
        on_cycle = {g.edge_src[e] for e in cyc.edges}
        assert exit_edge not in cyc.edges and g.edge_src[exit_edge] in on_cycle


def test_decompose_requires_no_exit():
    with pytest.raises(PreconditionError, match="exit"):
        decompose(GRAPHS["rose2"])
    with pytest.raises(PreconditionError, match="exit"):
        decompose(GRAPHS["loop_exit"])


def _random_no_exit_graph(rng):
    """Disjoint simple cycles fed by a random DAG, parallel edges allowed."""
    lines, edges = [], []
    cycle_vertices = []
    for i in range(rng.randint(0, 3)):
        ring = [f"c{i}_{j}" for j in range(rng.randint(1, 3))]
        cycle_vertices += ring
        lines += [f"v {v}" for v in ring]
        edges += [(v, ring[(j + 1) % len(ring)]) for j, v in enumerate(ring)]
    dag = [f"d{i}" for i in range(rng.randint(1, 7))]
    lines += [f"v {v}" for v in dag]
    for i, v in enumerate(dag):
        targets = dag[i + 1:] + cycle_vertices
        for _ in range(rng.randint(0, 3) if targets else 0):
            edges.append((v, rng.choice(targets)))
    lines += [f"e x{k} {s} {d}" for k, (s, d) in enumerate(edges)]
    return parse_graph("\n".join(lines))


def test_decompose_families_are_disjoint_bases():
    rng = fresh_rng(61)
    corpus = [GRAPHS[name] for name in NO_EXIT_NAMES]
    corpus += [_random_no_exit_graph(rng) for _ in range(60)]
    for g in corpus:
        assert is_no_exit(g)
        dec = decompose(g)
        seen = set()
        for b, block in enumerate(dec.blocks):
            if dec.is_cycle_block(b):
                end, word = block.cycle.src, block.cycle.edges
            else:
                end, word = block.sink, None
            for p in block.paths:
                assert p not in seen, (g, p)
                seen.add(p)
                assert p.dst == end, (g, p)
                if word is not None:
                    n = len(word)
                    assert all(
                        p.edges[i: i + n] != word
                        for i in range(len(p.edges) - n + 1)
                    ), (g, p)
        assert {p.src for p in seen} == set(g.vertices), g
        assert validate_trace_spec(g, build_faithful_trace(g, Q, IDENTITY))


def _star_text(n):
    lines = ["v r"] + [f"v s{i}" for i in range(n)]
    lines += [f"e e{i} r s{i}" for i in range(n)]
    return "\n".join(lines)


def test_decompose_runs_a_fixed_number_of_scc_passes(scc_passes):
    counts = []
    for n in (10, 50):
        scc_passes.clear()
        dec = decompose(parse_graph(_star_text(n)))
        assert dec.block_sizes() == (2,) * n
        counts.append(len(scc_passes))
    assert counts == [1, 1]


def test_build_faithful_trace_runs_one_scc_pass(scc_passes):
    for name in NO_EXIT_NAMES:
        scc_passes.clear()
        build_faithful_trace(parse_graph(GRAPH_TEXTS[name]), Q, IDENTITY)
        assert len(scc_passes) == 1, name


def test_built_trace_counts_the_basis_paths_of_decompose():
    """The faithful trace's value N(v) comes from a recurrence over the SCCs,
    not from `decompose`: on every no-exit graph with at most 3 vertices and
    4 edges, and on the no-exit catalog graphs, it is the number of basis
    paths starting at v, in the declaration order of the vertices, for both
    field pairs; the values sum to the total block size, and the positivity
    screen passes."""
    no_exit = [g for g in small_graphs() if is_no_exit(g)]
    assert len(no_exit) == 274
    for g in no_exit + [GRAPHS[name] for name in NO_EXIT_NAMES]:
        dec = decompose(g)
        for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
            spec = build_faithful_trace(g, field, inv)
            assert (spec.field, spec.involution) == (field, inv)
            assert list(spec.values.items()) == [
                (VertexClass(v), fe(len(dec._basis_from[v]), 0, field))
                for v in g.vertices
            ], g
        total = sum(spec.values.values(), fe_zero(QI))
        assert total == fe(sum(dec.block_sizes()), 0, QI), g
        assert positivity_screen(g, spec) == [], g


def test_built_trace_has_closed_forms_past_the_decompose_limit():
    """N(a_i) = n - i on the n-tooth comb, and N(a_i) = 2^(n-i) on a chain
    of n double edges, whose basis paths `decompose` refuses to list; the
    values keep the declaration order of the vertices."""
    with pytest.raises(PreconditionError, match="basis paths of a graph"):
        decompose(comb(200))
    for n in (200, 1000):
        g = comb(n)
        spec = build_faithful_trace(g, Q, IDENTITY)
        assert list(spec.values) == [VertexClass(v) for v in g.vertices]
        assert [spec.values[VertexClass(f"a{i}")] for i in range(n)] == [
            fe(n - i) for i in range(n)]
        assert {spec.values[VertexClass(f"s{i}")] for i in range(n)} == {fe(1)}
    for n in (16, 40):
        g = parse_graph(double_edge_chain_text(n))
        spec = build_faithful_trace(g, Q, IDENTITY)
        assert list(spec.values.items()) == [
            (VertexClass(f"a{i}"), fe(2 ** (n - i))) for i in range(n + 1)]


def test_decompose_limit_counts_edge_ids_of_all_blocks(monkeypatch):
    # a => b -> s0, s1, s2: each sink block is s, x, f/x and g/x, 5 edge ids
    g = parse_graph(
        "v a\nv b\nv s0\nv s1\nv s2\ne f a b\ne g a b\n"
        + "".join(f"e x{i} b s{i}\n" for i in range(3))
    )
    paths_into = structure.paths_into
    calls = []

    def counted(*args):
        calls.append(args)
        return paths_into(*args)

    monkeypatch.setattr(structure, "paths_into", counted)
    monkeypatch.setattr(graphs, "PATHS_INTO_WORK_LIMIT", 15)
    assert decompose(g).block_sizes() == (4, 4, 4)
    monkeypatch.setattr(graphs, "PATHS_INTO_WORK_LIMIT", 14)
    with pytest.raises(PreconditionError, match=re.escape(
        "basis paths of a graph with 5 vertices and 5 edges hold more than "
        "14 edge ids"
    )):
        decompose(g)
    # the total is checked after each block: 10 edge ids pass 5 at block two
    monkeypatch.setattr(graphs, "PATHS_INTO_WORK_LIMIT", 5)
    calls.clear()
    with pytest.raises(PreconditionError, match="more than 5 edge ids"):
        decompose(g)
    assert len(calls) == 2


def test_decomposition_report_schema():
    report = decomposition_report(decompose(GRAPHS["disjoint"]))
    assert report == {
        "sink_blocks": [{"sink": "b", "size": 2, "paths": ["b", "f"]}],
        "cycle_blocks": [{"cycle": "e", "size": 1, "paths": ["v"]}],
    }


def test_phi_line_graph_orientation():
    g = GRAPHS["line2"]
    dec = decompose(g)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    one = fe_one(Q)
    # family order is (b, f): rows from the left path
    assert phi(dec, A.vertex("b")).blocks == ({(0, 0): one},)
    assert phi(dec, A.vertex("a")).blocks == ({(1, 1): one},)
    assert phi(dec, A.path(["f"])).blocks == ({(1, 0): one},)
    assert phi(dec, alg_star(A.path(["f"]))).blocks == ({(0, 1): one},)
    assert phi(dec, A.zero()).blocks == ({},)


def test_phi_one_loop_powers():
    g = GRAPHS["one_loop"]
    dec = decompose(g)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    assert phi(dec, A.vertex("v")).blocks == ({(0, 0): laurent(Q, {0: fe(1)})},)
    assert phi(dec, A.path(["e", "e"])).blocks == ({(0, 0): laurent(Q, {2: fe(1)})},)
    estar = alg_star(A.path(["e"]))
    assert phi(dec, estar).blocks == ({(0, 0): laurent(Q, {-1: fe(1)})},)


def test_phi_two_cycle_rolls_to_base():
    g = GRAPHS["two_cycle"]
    dec = decompose(g)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    # paths into the base u avoiding the cycle: (u, e2)
    img = phi(dec, A.vertex("w"))
    assert img.blocks == ({(1, 1): laurent(Q, {0: fe(1)})},)
    img = phi(dec, A.path(["e1", "e2"]))
    assert img.blocks == ({(0, 0): laurent(Q, {1: fe(1)})},)
    img = phi(dec, A.path(["e1"]))  # u -> w: ends at w, rolls by e2
    assert img.blocks == ({(0, 1): laurent(Q, {1: fe(1)})},)


def test_matrix_image_repr_and_sparse_terms_rules():
    g = GRAPHS["disjoint"]
    dec = decompose(g)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    x = parse_element("2*f - 1/3*a + e/e + v", A)
    img = phi(dec, x)
    assert repr(img) == (
        "MatrixImage(b0[1,0]=FieldElem('2', Q), b0[1,1]=FieldElem('-1/3', Q), "
        "b1[0,0]=LaurentPoly((1)x^0 + (1)x^2))"
    )
    assert repr(phi(dec, A.zero())) == "MatrixImage(0)"
    assert repr(dec.blocks) == (
        "(SinkBlock(sink='b', paths=(<b>, <f>)), CycleBlock(cycle=<e>, paths=(<v>,)))"
    )
    assert img.terms == {
        (0, 1, 0): fe(2),
        (0, 1, 1): fe(Fraction(-1, 3)),
        (1, 0, 0): laurent(Q, {0: 1, 2: 1}),
    }
    again = phi(dec, parse_element("v + e/e - 1/3*a + 2*f", A))
    assert again == img and hash(again) == hash(img)
    assert not img - img and not phi(dec, x) - phi(dec, x)
    other = phi(decompose(g), x)  # decompositions compare by identity
    assert other.blocks == img.blocks and other != img
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="^images over different decompositions$"):
            op(img, other)
        with pytest.raises(TypeError):
            op(img, x)


def test_phi_inverse_unit_examples():
    g = GRAPHS["line2"]
    dec = decompose(g)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    assert phi_inverse_unit(dec, A, 0, 0, 0) == A.vertex("b")
    assert phi_inverse_unit(dec, A, 0, 1, 0) == A.path(["f"])

    loop = GRAPHS["one_loop"]
    dl = decompose(loop)
    B = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    assert phi_inverse_unit(dl, B, 0, 0, 0, k=2) == B.path(["e", "e"])
    assert phi_inverse_unit(dl, B, 0, 0, 0, k=-1) == alg_star(B.path(["e"]))
    with pytest.raises(ValueError):
        phi_inverse_unit(dec, A, 0, 0, 0, k=1)  # sink blocks carry no exponent
    with pytest.raises(ValueError):
        phi_inverse_unit(dec, A, 0, 2, 0)


def test_phi_round_trip_on_block_family_monomials():
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        seen = set()
        for b, block in enumerate(dec.blocks):
            ks = range(-4, 5) if dec.is_cycle_block(b) else (0,)
            for j in range(block.size):
                for l in range(block.size):
                    for k in ks:
                        mono = phi_inverse_unit(dec, A, b, j, l, k)
                        img = phi(dec, mono)
                        nonzero = [
                            (bi, key, val)
                            for bi, blk in enumerate(img.blocks)
                            for key, val in blk.items()
                        ]
                        assert len(nonzero) == 1
                        bi, key, val = nonzero[0]
                        assert bi == b and key == (j, l)
                        if dec.is_cycle_block(b):
                            assert val == laurent(Q, {k: fe(1)})
                        else:
                            assert val == fe_one(Q)
                        assert (bi, key, getattr(val, "coeffs", val)) not in seen
                        seen.add((bi, key, getattr(val, "coeffs", val)))


def test_phi_is_a_homomorphism():
    rng = fresh_rng(50)
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for _ in range(60):
            x, y = random_element(A, rng), random_element(A, rng)
            assert phi(dec, x + y) == phi(dec, x) + phi(dec, y)
            assert phi(dec, x * y) == phi(dec, x) * phi(dec, y)


def test_phi_is_star_compatible():
    rng = fresh_rng(51)
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, QI, CONJUGATION, LEAVITT)
        for _ in range(40):
            x = random_element(A, rng)
            assert phi(dec, alg_star(x)) == phi(dec, x).star(CONJUGATION)


def test_phi_is_a_star_homomorphism_on_every_small_no_exit_graph():
    """On every no-exit graph with at most 3 vertices and 4 edges, for
    seeded pairs over (Q, identity) and (Q(i), conjugation), the block map
    is a *-homomorphism, phi(xy) = phi(x) phi(y) and phi(x*) = phi(x)*, and
    the pulled-back block trace is a trace, t(xy) = t(yx)."""
    rng = fresh_rng(53)
    checked = 0
    for g in small_graphs():
        if not is_no_exit(g):
            continue
        dec = decompose(g)
        for field, inv in ((Q, IDENTITY), (QI, CONJUGATION)):
            A = PathAlgebra(g, field, inv, LEAVITT)
            t = pull_back_trace(dec, field, inv)
            for _ in range(2):
                x, y = random_element(A, rng), random_element(A, rng)
                assert phi(dec, x * y) == phi(dec, x) * phi(dec, y), (g, x, y)
                assert phi(dec, alg_star(x)) == phi(dec, x).star(inv), (g, x)
                assert t(x * y) == t(y * x), (g, x, y)
                checked += 1
    assert checked == 274 * 2 * 2


def test_phi_maps_one_to_block_identity():
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        assert phi(dec, A.one()) == matrix_identity(dec, Q)


def _canonical_monomials_up_to(g, algebra, max_total_len):
    paths = all_paths_up_to(g, max_total_len)
    by_dst = {}
    for p in paths:
        by_dst.setdefault(p.dst, []).append(p)
    out = []
    for dst, group in by_dst.items():
        for p in group:
            for q in group:
                if len(p.edges) + len(q.edges) > max_total_len:
                    continue
                mon = MonPair(p, q)
                if algebra.redex_edge(mon) is None:
                    out.append(mon)
    return out


def test_phi_injective_on_canonical_monomials():
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        images = {}
        for mon in _canonical_monomials_up_to(g, A, 6):
            img = phi(dec, A.from_terms({mon: 1}))
            key = tuple(tuple(sorted(b.items())) for b in img.blocks)
            assert img, (name, mon)
            assert key not in images, (name, mon, images[key])
            images[key] = mon


def test_sink_block_dimension_count():
    # on single-out-degree graphs the rewrite-canonical monomials living in
    # a sink block number exactly size^2
    for name in ("line2", "line3", "disjoint"):
        g = GRAPHS[name]
        dec = decompose(g)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        mons = _canonical_monomials_up_to(g, A, 2 * len(g.vertices))
        for b, block in enumerate(dec.sink_blocks):
            count = 0
            for mon in mons:
                img = phi(dec, A.from_terms({mon: 1}))
                support = [bi for bi, blk in enumerate(img.blocks) if blk]
                if support == [b]:
                    count += 1
            assert count == block.size ** 2, (name, b)


def test_pull_back_trace_examples():
    g = GRAPHS["line2"]
    dec = decompose(g)
    t = pull_back_trace(dec, Q, IDENTITY)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    assert t(A.vertex("b")) == fe(1)
    assert t(A.vertex("a")) == fe(1)
    assert t(A.path(["f"])) == fe_zero(Q)

    loop = GRAPHS["one_loop"]
    dl = decompose(loop)
    tl = pull_back_trace(dl, Q, IDENTITY)
    B = PathAlgebra(loop, Q, IDENTITY, LEAVITT)
    assert tl(B.path(["e"])) == fe_zero(Q)
    assert tl(B.vertex("v")) == fe(1)

    with pytest.raises(PreconditionError):
        pull_back_trace(dl, QI, IDENTITY)


def _line(n):
    """a0 -> a1 -> ... -> a(n-1)."""
    lines = [f"v a{i}" for i in range(n)]
    lines += [f"e e{i} a{i} a{i + 1}" for i in range(n - 1)]
    return parse_graph("\n".join(lines))


def test_long_line_expands_without_exhausting_recursion():
    # the monomial a0 expands through 1199 edges
    n = 1200
    g = _line(n)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    dec = decompose(g)
    j = dec.blocks[0].paths.index(edge_path(g, [f"e{i}" for i in range(n - 1)]))
    assert phi(dec, A.vertex("a0")).blocks == ({(j, j): fe_one(Q)},)
    assert phi(dec, A.one()) == matrix_identity(dec, Q)
    # a fresh decomposition, so the trace meets an empty expansion cache
    t = pull_back_trace(decompose(g), Q, IDENTITY)
    assert t(A.vertex("a0")) == fe(1)


def test_expansion_caches_only_the_monomials_asked_for():
    # each vertex of a line expands to its one path into the sink, and no
    # monomial met on the way is kept
    for n in (1, 2, 30, 300):
        g = _line(n)
        dec = decompose(g)
        assert phi(dec, PathAlgebra(g, Q, IDENTITY, LEAVITT).one())
        assert len(dec._expand_cache) == n


def test_expansion_memo_stops_at_its_cap(monkeypatch):
    # the canonical monomials l^a (l^b)* of the one-loop graph, one of a and
    # b zero, through one decomposition: the memo keeps the first
    # `_MEMO_CAP`, and every image, kept or not, is a fresh decomposition's;
    # a cap of 64 keeps the test short
    monkeypatch.setattr(graphs, "_MEMO_CAP", 64)
    g = GRAPHS["one_loop"]
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    powers = [A.path(["e"] * k) for k in range(1, 83)]
    xs = ([A.vertex("v")] + powers + [alg_star(x) for x in powers])[:64 + 100]
    dec = decompose(g)
    images = [phi(dec, x).blocks for x in xs]
    assert len(dec._expand_cache) == 64
    assert images == [phi(decompose(g), x).blocks for x in xs]
    assert [phi(dec, x).blocks for x in xs] == images


class _SliceCountingTuple(tuple):
    """A tuple whose slices are again of this class and add the number of
    elements they copy to the class's `copied` count."""

    copied = 0

    def __getitem__(self, index):
        item = tuple.__getitem__(self, index)
        if isinstance(index, slice):
            type(self).copied += len(item)
            return type(self)(item)
        return item


def _strip_cycle_reference(edges, word):
    count = 0
    while word and edges[-len(word):] == word:
        edges, count = edges[:-len(word)], count + 1
    return edges, count


@pytest.mark.parametrize("edges, word", [
    (("l",) * 4000, ("l",)),
    (("a", "y", "z") + ("x", "y", "z") * 1000, ("x", "y", "z")),
    (("x", "y", "z") * 3 + ("x",), ("x", "y", "z")),
    (("a", "b"), ()),
], ids=["one_loop_power", "word_after_prefix", "no_trailing_copy", "empty_word"])
def test_strip_cycle_copies_each_edge_at_most_twice(edges, word):
    # counted, not timed: stripping k copies must not copy the tail k times
    _SliceCountingTuple.copied = 0
    rest, count = structure._strip_cycle(_SliceCountingTuple(edges), word)
    assert _SliceCountingTuple.copied <= 2 * len(edges)
    assert (tuple(rest), count) == _strip_cycle_reference(edges, word)


def test_expand_monomial_matches_the_leavitt_relation_reference():
    """On every no-exit graph with at most 3 vertices and 4 edges, in both
    edge-declaration orders, each monomial with paths of length <= 3
    expands to the units that the Leavitt relation gives, as a multiset."""
    checked = 0
    for g in small_graphs():
        if not is_no_exit(g):
            continue
        edges = [(e, g.edge_src[e], g.edge_dst[e]) for e in g.edges]
        renamed = [(f"e{len(edges) - 1 - i}", s, d) for i, (_, s, d) in enumerate(edges)]
        for h in (g, Graph(g.vertices, renamed)):
            dec = decompose(h)
            by_dst = {}
            for p in all_paths_up_to(h, 3):
                by_dst.setdefault(p.dst, []).append(p)
            for group in by_dst.values():
                for mon in itertools.starmap(MonPair, itertools.product(group, repeat=2)):
                    assert tuple(sorted(dec.expand_monomial(mon))) == \
                        expand_monomial_reference(h, dec.blocks, mon), (edges, mon)
                    checked += 1
    assert checked == 2 * 15716


def test_pull_back_trace_of_identity_is_total_block_size():
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        t = pull_back_trace(dec, Q, IDENTITY)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        assert t(A.one()) == fe(sum(dec.block_sizes()))


def test_pull_back_agrees_with_built_spec():
    rng = fresh_rng(52)
    for name in NO_EXIT_NAMES:
        g = GRAPHS[name]
        dec = decompose(g)
        t = pull_back_trace(dec, Q, IDENTITY)
        spec = build_faithful_trace(g, Q, IDENTITY)
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        for _ in range(40):
            x = random_element(A, rng)
            assert t(x) == trace_eval(g, spec, x)


def test_eval_via_cli_style_parse():
    g = GRAPHS["line2"]
    dec = decompose(g)
    t = pull_back_trace(dec, Q, IDENTITY)
    A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
    assert t(parse_element("a + b", A)) == fe(2)

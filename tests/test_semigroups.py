import itertools
import re
from fractions import Fraction

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.scalars import QI, Q, fe, fe_one, fe_zero
from lpatrace.semigroups import (
    FreeVector,
    admits_normalized_minimal,
    build_semigroup,
    central_map,
    endo_map_index,
    endo_semigroup,
    group_with_zero,
    in_commutator_span,
    is_central_map,
    is_minimal_sg_trace,
    matrix_unit_index,
    matrix_units_semigroup,
    minimal_trace,
    parse_cayley,
    sg_commutator,
    sg_element,
    sg_mul,
    sg_trace_eval,
    sim_classes,
    sim_witness_chain,
)
from lpatrace.traces import augmentation_trace, kaplansky_trace

from conftest import (
    SEMIGROUPS,
    commutator_span_oracle,
    cyclic_group_table,
    endo4_semigroup,
    fresh_rng,
    random_central_map,
    random_sg_element,
    sim_classes_reference,
    sim_witness_chain_reference,
)


def test_build_semigroup_examples():
    G = build_semigroup([[0, 0], [0, 1]], 0)
    assert G.size == 2 and G.mul(1, 1) == 1
    assert matrix_units_semigroup(2).size == 5
    with pytest.raises(ValueError, match="associative"):
        # 1*1 = 2 but 2 is "anything", make (1*1)*1 != 1*(1*1)
        build_semigroup([[0, 0, 0], [0, 2, 0], [0, 1, 0]], 0)
    with pytest.raises(ValueError, match="absorbing"):
        build_semigroup([[0, 1], [1, 1]], 0)
    with pytest.raises(ValueError, match="square"):
        build_semigroup([[0, 0]], 0)


def _brute_force_violation(rows):
    n = len(rows)
    return next(
        (
            (a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]
        ),
        None,
    )


def test_associativity_decision_matches_brute_force():
    rng = fresh_rng(16)
    tables = [[[0]]]
    bases = [
        SEMIGROUPS["endo2"],
        SEMIGROUPS["endo3"],
        SEMIGROUPS["mu3"],
        group_with_zero(cyclic_group_table(5)),
    ]
    for G in bases:
        for _ in range(40):
            rows = [list(row) for row in G.table]
            # entries outside the zero row and column keep 0 absorbing
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randrange(1, G.size), rng.randrange(1, G.size)
                rows[a][b] = rng.randrange(G.size)
            tables.append(rows)
    for _ in range(300):
        n = rng.randint(1, 5)
        tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    message_re = re.compile(
        r"table not associative: \((\d+)\*(\d+)\)\*(\d+) != \1\*\(\2\*\3\)"
    )
    violations = 0
    for rows in tables:
        try:
            build_semigroup(rows, 0)
            message = ""
        except ValueError as exc:
            message = str(exc)
        expected = _brute_force_violation(rows)
        assert ("associative" in message) == (expected is not None), (rows, message)
        if expected is not None:
            violations += 1
            a, b, c = map(int, message_re.fullmatch(message).groups())
            assert rows[rows[a][b]][c] != rows[a][rows[b][c]], (rows, message)
    assert 0 < violations < len(tables)


def test_matrix_units_examples():
    mu1 = matrix_units_semigroup(1)
    e11 = matrix_unit_index(1, 1, 1)
    assert mu1.size == 2 and mu1.mul(e11, e11) == e11
    mu2 = matrix_units_semigroup(2)
    e11, e12 = matrix_unit_index(2, 1, 1), matrix_unit_index(2, 1, 2)
    e21, e22 = matrix_unit_index(2, 2, 1), matrix_unit_index(2, 2, 2)
    assert mu2.mul(e12, e21) == e11
    assert mu2.mul(e21, e12) == e22
    assert mu2.mul(e12, e12) == mu2.zero
    assert matrix_units_semigroup(3).size == 10


def test_group_with_zero_examples():
    trivial = group_with_zero([[0]])
    assert trivial.size == 2
    c2 = group_with_zero(cyclic_group_table(2))
    assert c2.size == 3 and c2.mul(2, 2) == 1  # g*g = e
    c3 = group_with_zero(cyclic_group_table(3))
    assert c3.size == 4
    with pytest.raises(ValueError, match="not a group"):
        group_with_zero([[0, 0], [0, 1]])


def test_endo_semigroup_examples():
    assert endo_semigroup(1).size == 2
    assert endo_semigroup(2).size == 5
    assert endo_semigroup(4).size == 257
    with pytest.raises(ValueError):
        endo_semigroup(5)
    # composition convention: (f*g)(x) = f(g(x))
    e2 = endo_semigroup(2)
    swap = endo_map_index(2, (1, 0))
    const0 = endo_map_index(2, (0, 0))
    assert e2.mul(swap, const0) == endo_map_index(2, (1, 1))
    assert e2.mul(const0, swap) == const0


def test_sim_classes_matrix_units():
    mu3 = matrix_units_semigroup(3)
    part = sim_classes(mu3)
    diag = {matrix_unit_index(3, i, i) for i in range(1, 4)}
    nonzero = [set(part.classes[c]) for c in part.nonzero_class_ids]
    assert nonzero == [diag]
    off = {matrix_unit_index(3, i, j) for i in range(1, 4) for j in range(1, 4) if i != j}
    zero_class = set(part.classes[part.zero_class_id])
    assert off | {mu3.zero} == zero_class


def test_sim_classes_group_conjugacy():
    c2 = group_with_zero(cyclic_group_table(2))
    part = sim_classes(c2)
    assert part.classes == ((0,), (1,), (2,))
    # brute-force closure over all pairs agrees
    merged = {(c2.mul(a, b), c2.mul(b, a)) for a in range(3) for b in range(3)}
    for u, v in merged:
        assert part.class_of[u] == part.class_of[v]


def test_sim_classes_endo4_paper_maps_share_class():
    endo4 = endo4_semigroup()
    c = endo_map_index(4, (0, 0, 1, 3))
    d = endo_map_index(4, (0, 1, 1, 2))
    e = endo_map_index(4, (0, 0, 1, 2))
    f = endo_map_index(4, (0, 0, 0, 2))
    part = sim_classes(endo4)
    g, h = endo4.mul(d, c), endo4.mul(f, e)
    assert g != h
    assert part.class_of[g] == part.class_of[h]


def test_sim_classes_match_component_reference():
    for name, G in {**SEMIGROUPS, "endo4": endo4_semigroup()}.items():
        part = sim_classes(G)
        assert part.classes == sim_classes_reference(G), name
        assert part.class_of == tuple(
            next(cid for cid, cls in enumerate(part.classes) if x in cls)
            for x in range(G.size)
        ), name
        assert G.zero in part.classes[part.zero_class_id], name
        assert sim_classes(G) is part, name


def _chain_is_valid(G, g, h, chain):
    current = g
    for a, b in chain:
        if G.mul(a, b) != current:
            return False
        current = G.mul(b, a)
    return current == h


def test_sim_witness_chain_examples():
    mu2 = SEMIGROUPS["mu2"]
    e11, e22 = matrix_unit_index(2, 1, 1), matrix_unit_index(2, 2, 2)
    assert sim_witness_chain(mu2, e11, e11) == []
    chain = sim_witness_chain(mu2, e11, e22)
    assert len(chain) == 1
    assert _chain_is_valid(mu2, e11, e22, chain)
    # inequivalent elements have no chain
    c2 = SEMIGROUPS["c2"]
    assert sim_witness_chain(c2, 1, 2) is None


def test_sim_witness_chain_endo4_needs_two_steps():
    endo4 = endo4_semigroup()
    c = endo_map_index(4, (0, 0, 1, 3))
    d = endo_map_index(4, (0, 1, 1, 2))
    e = endo_map_index(4, (0, 0, 1, 2))
    f = endo_map_index(4, (0, 0, 0, 2))
    g, h = endo4.mul(d, c), endo4.mul(f, e)
    chain = sim_witness_chain(endo4, g, h)
    assert chain is not None and len(chain) == 2
    assert _chain_is_valid(endo4, g, h, chain)
    # several two-step chains join g and h: the reference's order picks one
    assert chain == sim_witness_chain_reference(endo4, g, h)
    assert sim_witness_chain(endo4, h, g) == sim_witness_chain_reference(endo4, h, g)


def test_sim_witness_chain_matches_row_major_reference():
    rng = fresh_rng(16)
    outcomes = set()
    for name, G in {**SEMIGROUPS, "endo4": endo4_semigroup()}.items():
        part = sim_classes(G)
        pairs = [(g, g) for g in rng.sample(range(G.size), min(2, G.size))]
        for _ in range(12):
            g = rng.randrange(G.size)
            pairs.append((g, rng.choice(part.classes[part.class_of[g]])))
            pairs.append((g, rng.randrange(G.size)))
        for g, h in pairs:
            chain = sim_witness_chain(G, g, h)
            assert chain == sim_witness_chain_reference(G, g, h), (name, g, h)
            outcomes.add(None if chain is None else len(chain))
    assert {None, 0, 1, 2} <= outcomes


def test_is_central_map_examples():
    c2 = SEMIGROUPS["c2"]
    kap = kaplansky_trace(c2)
    assert is_central_map(c2, kap.values)
    aug = augmentation_trace(c2)
    assert is_central_map(c2, aug.values)
    mu2 = SEMIGROUPS["mu2"]
    e12 = matrix_unit_index(2, 1, 2)
    values = [fe_zero(Q)] * mu2.size
    values[e12] = fe_one(Q)
    assert not is_central_map(mu2, values)


def test_is_central_map_iff_constant_on_classes():
    rng = fresh_rng(11)
    for name in ("mu2", "c3", "endo2", "two_elem"):
        G = SEMIGROUPS[name]
        part = sim_classes(G)
        # constant-on-classes maps are central
        for _ in range(10):
            delta = random_central_map(G, rng)
            assert is_central_map(G, delta.values)
        # a map not constant on some class with > 1 element is not central
        for cid in part.nonzero_class_ids:
            cls = part.classes[cid]
            if len(cls) < 2:
                continue
            values = [fe_zero(Q)] * G.size
            values[cls[0]] = fe_one(Q)
            assert not is_central_map(G, values)


def test_sg_trace_eval_examples():
    c2 = SEMIGROUPS["c2"]
    x = sg_element(c2, {1: fe(2), 2: fe(3)})  # 2e + 3g
    assert sg_trace_eval(c2, kaplansky_trace(c2), x) == fe(2)
    assert sg_trace_eval(c2, augmentation_trace(c2), x) == fe(5)
    mu2 = SEMIGROUPS["mu2"]
    e11, e12 = matrix_unit_index(2, 1, 1), matrix_unit_index(2, 1, 2)
    usual = _scaled_usual_trace(mu2, 2, fe_one(Q))
    y = sg_element(mu2, {e11: fe(1), e12: fe(5)})
    assert sg_trace_eval(mu2, usual, y) == fe(1)


def _scaled_usual_trace(G, n, c):
    values = [fe_zero(Q)] * G.size
    for i in range(1, n + 1):
        values[matrix_unit_index(n, i, i)] = c
    return central_map(G, values, Q)


def test_trace_centrality_on_random_central_maps():
    rng = fresh_rng(12)
    for name in ("mu2", "mu3", "c2", "c3", "s3", "endo2", "two_elem", "right_zero"):
        G = SEMIGROUPS[name]
        for _ in range(50):
            delta = random_central_map(G, rng)
            for _ in range(100):
                x = random_sg_element(G, rng)
                y = random_sg_element(G, rng)
                assert sg_trace_eval(G, delta, sg_mul(G, x, y)) == \
                    sg_trace_eval(G, delta, sg_mul(G, y, x))


def test_minimal_trace_examples():
    mu3 = SEMIGROUPS["mu3"]
    delta = minimal_trace(mu3)
    support = {v for v in delta.values if v}
    assert len(support) == 1  # one-dimensional target
    # agrees with the usual trace up to the class unit vector
    rng = fresh_rng(13)
    usual = _scaled_usual_trace(mu3, 3, fe_one(Q))
    for _ in range(50):
        x = random_sg_element(mu3, rng)
        vec = sg_trace_eval(mu3, delta, x)
        scalar = sg_trace_eval(mu3, usual, x)
        if scalar:
            assert list(vec.as_dict().values()) == [scalar]
        else:
            assert not vec

    trivial = SEMIGROUPS["trivial"]
    zero_map = minimal_trace(trivial)
    assert all(not v for v in zero_map.values)

    c2 = SEMIGROUPS["c2"]
    classes = {k for v in minimal_trace(c2).values for k in v.as_dict()}
    assert len(classes) == 2  # two-dimensional target


@pytest.mark.parametrize("field", [Q, QI])
def test_in_commutator_span_is_the_minimal_trace_kernel(field):
    rng = fresh_rng(17)
    verdicts = set()
    for name, G in {**SEMIGROUPS, "endo4": endo4_semigroup()}.items():
        delta = minimal_trace(G, field)
        part = sim_classes(G)
        for trial in range(40):
            x = random_sg_element(G, rng, field)
            if trial % 2:  # subtract each class's sum at its least member
                balanced = x.as_dict()
                for idx, c in x.items():
                    cid = part.class_of[idx]
                    if cid != part.zero_class_id:
                        least = part.classes[cid][0]
                        balanced[least] = balanced.get(least, fe_zero(field)) - c
                x = FreeVector.make(balanced)
            verdict = in_commutator_span(G, x, field)
            assert verdict == (not sg_trace_eval(G, delta, x)), (name, x)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_in_commutator_span_examples():
    mu2 = SEMIGROUPS["mu2"]
    e11, e22 = matrix_unit_index(2, 1, 1), matrix_unit_index(2, 2, 2)
    assert in_commutator_span(mu2, sg_element(mu2, {e11: fe(1), e22: fe(-1)}))
    assert not in_commutator_span(mu2, sg_element(mu2, {e11: fe(1)}))
    rng = fresh_rng(14)
    for _ in range(50):
        x = random_sg_element(mu2, rng)
        y = random_sg_element(mu2, rng)
        assert in_commutator_span(mu2, sg_commutator(mu2, x, y))


def test_minimal_trace_kernel_matches_oracle():
    rng = fresh_rng(15)
    for name in ("mu2", "mu3", "c2", "c3", "s3", "endo2", "two_elem", "right_zero"):
        G = SEMIGROUPS[name]
        oracle = commutator_span_oracle(G)
        one = fe_one(Q)
        for idx in G.nonzero_elements():
            x = sg_element(G, {idx: one})
            assert in_commutator_span(G, x) == oracle.contains({idx: one})
        for _ in range(100):
            x = random_sg_element(G, rng)
            assert in_commutator_span(G, x) == oracle.contains(x.as_dict())


def test_is_minimal_sg_trace_examples():
    mu2 = SEMIGROUPS["mu2"]
    assert not is_minimal_sg_trace(mu2, _scaled_usual_trace(mu2, 2, fe_zero(Q)))
    assert is_minimal_sg_trace(mu2, _scaled_usual_trace(mu2, 2, fe(2)))
    c2 = SEMIGROUPS["c2"]
    assert not is_minimal_sg_trace(c2, kaplansky_trace(c2))
    for name, G in {**SEMIGROUPS, "endo4": endo4_semigroup()}.items():
        assert is_minimal_sg_trace(G, minimal_trace(G)), name


def test_admits_normalized_minimal_examples():
    assert admits_normalized_minimal(SEMIGROUPS["mu3"])
    assert not admits_normalized_minimal(SEMIGROUPS["c2"])
    assert admits_normalized_minimal(SEMIGROUPS["trivial"])
    assert admits_normalized_minimal(SEMIGROUPS["right_zero"])


def test_dense_matrix_units_witness():
    # interval-indexed matrix units over rational endpoints: the product
    # rule e(i,j) e(k,l) = [j == k] e(i,l) makes every element factor
    # through a strictly intermediate index, with reversed product zero.
    def mul(x, y):
        if x is None or y is None:
            return None
        (i, j), (k, l) = x, y
        return (i, l) if j == k else None

    i, j = Fraction(0), Fraction(1)
    k = (i + j) / 2
    e_ij, e_ik, e_kj = (i, j), (i, k), (k, j)
    assert mul(e_ik, e_kj) == e_ij
    assert mul(e_kj, e_ik) is None


def test_parse_cayley_round_trip():
    text = "n 3 zero 0\n0 0 0\n0 1 2\n0 2 1\nlabel 1 e\nlabel 2 g\n"
    G = parse_cayley(text)
    assert G.size == 3 and G.label(1) == "e" and G.label(2) == "g"
    with pytest.raises(ParseError):
        parse_cayley("n 2 zero 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_cayley("bogus\n")


def test_central_map_rejects_noncentral():
    mu2 = SEMIGROUPS["mu2"]
    e12 = matrix_unit_index(2, 1, 2)
    values = [fe_zero(Q)] * mu2.size
    values[e12] = fe_one(Q)
    with pytest.raises(PreconditionError):
        central_map(mu2, values)


def test_freevector_arithmetic():
    a = FreeVector.make({1: fe(1), 2: fe(2)})
    b = FreeVector.make({2: fe(-2), 3: fe(1)})
    assert (a + b).as_dict() == {1: fe(1), 3: fe(1)}
    assert (a - a) == FreeVector.make({})
    swapped = FreeVector.make({2: fe(2), 1: fe(1), 3: fe(0)})
    assert swapped == a and hash(swapped) == hash(a)
    assert a.scale(fe(2)).get(2) == fe(4)

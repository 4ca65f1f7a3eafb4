import copy
import itertools
import pickle
import re
import tracemalloc
from array import array
from enum import IntEnum
from fractions import Fraction

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.scalars import QI, Q, fe, fe_one, fe_zero
from lpatrace.semigroups import (
    FiniteSemigroup,
    FreeVector,
    _ParsedTable,
    admits_normalized_minimal,
    augmentation_trace,
    build_semigroup,
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
    parse_cayley,
    sg_element,
    sg_mul,
    sg_trace_eval,
    sim_classes,
    sim_witness_chain,
)

from conftest import (
    SEMIGROUPS,
    associativity_witness_reference,
    commutator_span_oracle,
    cyclic_group_table,
    endo4_semigroup,
    endo_map_index,
    fresh_rng,
    is_central_map_reference,
    minimal_trace_reference,
    outcome,
    random_central_map,
    random_scalar,
    random_sg_element,
    sg_commutator,
    sim_classes_reference,
    sim_witness_chain_reference,
    small_semigroup_tables,
    small_semigroups_with_zero,
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
    # entries are integers: a string or a float is refused, never truncated
    with pytest.raises(ValueError, match="^table entries must be integers$"):
        build_semigroup([["0", 0.0], [0, "1"]], 0)
    G = build_semigroup([[0, 0], [0, 1]], 0)
    # immutable, and the sim_classes cache is not part of its value
    for name in ("table", "zero", "labels", "_sim", "_gens"):
        with pytest.raises(AttributeError):
            setattr(G, name, None)
        with pytest.raises(AttributeError):
            delattr(G, name)
    fresh = build_semigroup([[0, 0], [0, 1]], 0)
    sim_classes(G)
    assert G._sim is not None and fresh._sim is None
    assert G == fresh and hash(G) == hash(fresh)
    assert repr(G) == "FiniteSemigroup(size=2, zero=0)"


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


def _null_table(n):
    return [[0] * n for _ in range(n)]


def _right_zero_table(n):
    """Zero adjoined to xy = y on the other n - 1 elements: every element is
    one of Light's generators, but only two rows are distinct."""
    return [[0] * n] + [list(range(n)) for _ in range(n - 1)]


def test_associativity_witness_matches_reference_on_both_composers():
    """Rows packed into bytes (n <= 256) and tuple rows (n = 257) name the
    same first violating triple as Light's test over tuples alone."""
    rng = fresh_rng(19)
    bases = [_null_table(n) for n in (1, 2, 255, 256, 257)]
    bases += [_right_zero_table(n) for n in (255, 256, 257)]
    bases += [
        [list(row) for row in G.table]
        for G in (SEMIGROUPS["endo3"], SEMIGROUPS["mu3"],
                  group_with_zero(cyclic_group_table(5)))
    ]
    tables = []
    for base in bases:
        n = len(base)
        tables.append(base)
        for _ in range(8):
            rows = [list(row) for row in base]
            for _ in range(rng.randint(1, 2)):
                # entries anywhere, or among the last three elements only
                low = rng.choice((0, n - min(n, 3)))
                rows[rng.randrange(low, n)][rng.randrange(low, n)] = rng.randrange(n)
            tables.append(rows)
        if n > 2 and not any(map(any, base)):
            # a*b = a in a null table: (a*b)*b != a*(b*b), first seen at
            # g = b = n - 1, the last of Light's generators
            rows = _null_table(n)
            rows[n - 2][n - 1] = n - 2
            tables.append(rows)
    middles, late = set(), 0
    for rows in tables:
        expected = associativity_witness_reference(tuple(map(tuple, rows)))
        kind, message = outcome(build_semigroup, rows, 0)
        if expected is None:
            assert "associative" not in str(message), (len(rows), message)
        else:
            a, b, c = expected
            text = f"table not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
            assert (kind, message) == (ValueError, text), len(rows)
            middles.add(b)
            late += b == len(rows) - 1 > 250
    assert late == 3 and len(middles) >= 5


def test_late_violation_in_a_257_element_table_names_the_reference_triple():
    """A null semigroup on 1..200 beside a right-zero one on 201..256: all
    257 elements are Light's generators, and one changed product in the
    right-zero block first fails at generator 201.  The whole-table
    compare passes the 201 generators before it, fails there, and the row
    loop names the reference's triple."""
    n = 257
    rows = [[0] * n for _ in range(n)]
    for x in range(201, n):
        rows[x][201:] = range(201, n)
    assert build_semigroup(rows, 0).size == n
    rows[250][255] = 251
    expected = associativity_witness_reference(tuple(map(tuple, rows)))
    assert expected == (250, 201, 255)
    a, b, c = expected
    text = f"table not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
    assert outcome(build_semigroup, rows, 0) == (ValueError, text)


def test_light_test_on_every_three_element_table():
    """All 3^9 tables on three elements, with a zero adjoined as element 0:
    build_semigroup accepts exactly the 113 associative ones (OEIS A023814),
    and names the reference's triple, the first in index order, on every
    other one, though its first pass picks generators in another order."""
    associative = {
        tuple((0,) + tuple(x + 1 for x in row) for row in rows)
        for rows in small_semigroup_tables(3)
    }
    accepted = set()
    for cells in itertools.product(range(1, 4), repeat=9):
        inner = (cells[0:3], cells[3:6], cells[6:9])
        rows = ((0, 0, 0, 0),) + tuple((0,) + row for row in inner)
        expected = associativity_witness_reference(rows)
        kind, message = outcome(build_semigroup, rows, 0)
        if expected is None:
            assert kind == "ok", (rows, message)
            accepted.add(rows[1:])
        else:
            a, b, c = expected
            text = f"table not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
            assert (kind, message) == (ValueError, text), rows
    assert len(accepted) == 113
    assert accepted == associative


def test_light_test_counts_generators_and_frontier_passes(light_work):
    """On endo4 relabeled at random, Light's test checks at most 5
    generators, where index order mostly takes 6-13: generators follow
    their row image, and the absorbing zero, always one of them, is not
    checked.  A
    null table closes its 127 indecomposables in one frontier pass, where
    index order takes one pass per element."""
    rng = fresh_rng(26)
    endo4 = endo4_semigroup()
    for _ in range(8):
        light_work.clear()
        G = _relabeled(endo4, rng)
        checks = [gens for kind, gens in light_work if kind == "check"]
        assert len(checks) == 1 and len(checks[0]) <= 5, light_work
        assert G.zero not in checks[0]
    light_work.clear()
    build_semigroup(_null_table(128), 0)
    indecomposables = tuple(range(1, 128))
    assert light_work == [("pass", indecomposables), ("check", indecomposables)]


@pytest.mark.parametrize("n", [6, 256, 257])
def test_negative_and_index_entries_read_alike_at_both_widths(n):
    """Entries from -2n-1 to -n-1, which a tuple index would count from
    the end, are out of range at every width; an object with __index__ is
    read as its integer.  Reading stops at once at an entry below 0 or past
    255 for bytes rows, and below -2n or past 2n-1 for wider ones; any
    other entry out of range is judged after every entry is read, so a
    non-integer entry written after it is named instead."""
    base = _right_zero_table(n)

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    def with_entries(*cells):
        rows = [list(r) for r in base]
        for row, col, value in cells:
            rows[row][col] = value
        return rows

    out_of_range = (ValueError, "table entry out of range")
    not_integers = (ValueError, "table entries must be integers")
    for value in (-n - 1, -2 * n, -2 * n - 1, -n, -65536):
        assert outcome(build_semigroup, with_entries((2, 4, value)), 0) == out_of_range
    indexed = with_entries((1, 3, Index(3)), (n - 1, n - 1, Index(n - 1)))
    assert build_semigroup(indexed, 0).table == tuple(map(tuple, base))
    assert outcome(build_semigroup, with_entries((1, 3, Index(n))), 0) == out_of_range
    # a non-integer after an entry n: the entry n is judged after every
    # entry is read, except for bytes rows at n = 256, where n is past 255
    later = with_entries((1, 3, n), (2, 4, "x"))
    assert outcome(build_semigroup, later, 0) == (out_of_range if n == 256 else not_integers)
    # after an entry 600 reading stops at once: past 255 for bytes rows,
    # past 2n - 1 = 513 for n = 257
    past = with_entries((1, 3, 600), (2, 4, "x"))
    assert outcome(build_semigroup, past, 0) == out_of_range


@pytest.mark.parametrize("n", [6, 255, 256, 257])
def test_build_semigroup_rejects_non_integer_entries_alike_at_both_widths(n):
    """Whether the rows are read into bytes (n <= 256) or picked out of a
    padded range by an itemgetter (n = 257), a bool, an int subclass or an
    IntEnum member is a plain int in the table, a string, float, Fraction
    or None is "table entries must be integers" (never truncated), -1, n
    and 65536 are out of range, and a table that is not square says so
    before any entry is read."""
    base = _right_zero_table(n)
    k = min(7, n - 1)

    def with_entry(row, col, value):
        rows = [list(r) for r in base]
        rows[row][col] = value
        return rows

    class Int(int):
        pass

    Cell = IntEnum("Cell", [("ONE", 1), ("THREE", 3)])
    for rows in (
        with_entry(1, 1, True),
        with_entry(n - 1, 1, True),
        with_entry(1, 3, Int(3)),
        with_entry(n - 1, k, Int(k)),
        with_entry(1, 3, Cell.THREE),
        with_entry(n - 1, 1, Cell.ONE),
        [tuple(r) for r in base],
        [base[0], array("q", base[1])] + base[2:],  # bytes() would read its buffer
        [base[0], iter(base[1])] + base[2:],
    ):
        table = build_semigroup(rows, 0).table
        assert table == tuple(map(tuple, base))
        assert {type(x) for row in table for x in row} == {int}
    not_integers = (ValueError, "table entries must be integers")
    out_of_range = (ValueError, "table entry out of range")
    not_square = (ValueError, "table is not square")
    cases = [
        (with_entry(1, 3, "3"), not_integers),
        (with_entry(1, 3, 3.0), not_integers),
        (with_entry(2, 3, Fraction(7, 2)), not_integers),
        (with_entry(1, 1, Fraction(3, 2)), not_integers),
        (with_entry(1, 1, Fraction(1)), not_integers),
        (with_entry(1, 1, 1.9), not_integers),
        (with_entry(n - 1, n - 1, str(n - 1)), not_integers),
        (with_entry(1, k, float(k)), not_integers),
        (with_entry(2, 4, "x"), not_integers),
        (with_entry(2, 4, None), not_integers),
        (with_entry(n - 1, n - 1, "-1"), not_integers),
        (with_entry(2, 4, -1), out_of_range),
        (with_entry(2, 4, n), out_of_range),
        (with_entry(n - 1, 0, 10 ** 30), out_of_range),
        (with_entry(2, 4, 65535), out_of_range),
        (with_entry(2, 4, 65536), out_of_range),
        (with_entry(n - 1, n - 1, -1), out_of_range),
        ([base[0], 7] + base[2:], outcome(iter, 7)),
        ([base[0], base[1] + [0]] + with_entry(2, 4, n)[2:], not_square),
        ([base[0], base[1][:-1]] + with_entry(2, 4, -1)[2:], not_square),
        ([base[0], base[1][:-1]] + with_entry(2, 4, "x")[2:], not_square),
        ([base[0], base[1][:-1]] + with_entry(2, 4, 1.5)[2:], not_square),
    ]
    if n <= 256:
        cases.append((with_entry(1, 1, 256), out_of_range))
    for rows, want in cases:
        assert outcome(build_semigroup, rows, 0) == want


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
    with pytest.raises(TypeError):  # not read as element 2
        matrix_unit_index(2, 1.0, 2)


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
    # the paper's pair, and the least member of the constant map 0's
    # 64-element class with the member the search meets last
    deepest = endo_map_index(4, (0, 0, 0, 0)), endo_map_index(4, (1, 2, 3, 3))
    part = sim_classes(endo4)
    assert part.classes[part.class_of[deepest[1]]][0] == deepest[0]
    assert len(part.classes[part.class_of[deepest[0]]]) == 64
    for g, h in [(endo4.mul(d, c), endo4.mul(f, e)), deepest]:
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


def _relabeled(G, rng):
    """G with its element indices permuted at random, as the benchmark's
    semigroup tables are."""
    perm = list(range(G.size))
    rng.shuffle(perm)
    table = [[0] * G.size for _ in range(G.size)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return build_semigroup(table, perm[G.zero])


def _relabeled_corpus(rng):
    named = [(name, SEMIGROUPS[name]) for name in
             ("endo3", "mu3", "mu4", "s3", "c3", "right_zero")]
    named += [(f"null{k}", build_semigroup([[0] * k] * k, 0)) for k in range(5, 10)]
    return [(name, _relabeled(G, rng)) for name, G in named for _ in range(2)]


def test_sim_classes_and_chains_on_relabeled_tables():
    rng = fresh_rng(18)
    lengths, zero_class_pairs = set(), 0
    for name, G in _relabeled_corpus(rng):
        part = sim_classes(G)
        assert part.classes == sim_classes_reference(G), name
        zero_class = part.classes[part.zero_class_id]
        for g in rng.sample(range(G.size), min(3, G.size)) + [zero_class[-1]]:
            for h in range(G.size):  # h == g, its class, the zero class, the rest
                chain = sim_witness_chain(G, g, h)
                assert chain == sim_witness_chain_reference(G, g, h), (name, g, h)
                lengths.add(None if chain is None else min(len(chain), 2))
                zero_class_pairs += g != h and {g, h} <= set(zero_class)
    assert lengths == {None, 0, 1, 2}
    assert zero_class_pairs > 0


def _packed_corpus(rng):
    """(table, associative) pairs of sizes 1, 2, 255, 256 and 257: null and
    right-zero tables, those with a few entries perturbed among the last
    elements or anywhere, perturbed fixtures, and small random tables."""
    corpus = [(_null_table(n), True) for n in (1, 2, 255, 256, 257)]
    corpus += [(_right_zero_table(n), True) for n in (2, 255, 256, 257)]
    bases = [_null_table(n) for n in (255, 256, 257)]
    bases += [_right_zero_table(n) for n in (256, 257)]
    bases += [[list(row) for row in SEMIGROUPS[name].table]
              for name in ("endo3", "mu3", "s3", "right_zero")]
    for base in bases:
        n = len(base)
        rows = [list(row) for row in base]
        for _ in range(rng.randint(2, 6)):  # keeps 0 absorbing
            low = rng.choice((1, n - min(n - 1, 4)))
            rows[rng.randrange(low, n)][rng.randrange(low, n)] = rng.randrange(n)
        corpus.append((rows, False))
    for n in (1, 2, 2, 3, 5, 8):
        corpus.append(([[rng.randrange(n) for _ in range(n)] for _ in range(n)], False))
    return corpus


def test_packed_sim_classes_and_chains_match_the_references():
    """sim_classes and sim_witness_chain on the packed table (bytes for
    n <= 256) and on the rows (n = 257) equal the references, for a
    semigroup that build_semigroup packed, one built directly, and its
    pickled and deep copies; the packed table is written once (by
    build_semigroup, or by the first reader of a copy) and never above 256
    elements, where a chain that searches scans the rows.  `_gens`,
    the generators whose rows sim_classes reads, is written once by
    build_semigroup, generates every nonzero element and leaves the zero
    out; it is None on the other variants, which read every row, so bare
    non-associative tables match too.  Equality, hashing and pickling see
    neither cache."""
    rng = fresh_rng(21)
    lengths, searched_rows = set(), 0
    for rows, associative in _packed_corpus(rng):
        n = len(rows)
        table = tuple(map(tuple, rows))
        packed = bytes(itertools.chain.from_iterable(table)) if n <= 256 else None
        variants = [FiniteSemigroup(table, 0)]
        if associative:
            built = build_semigroup(rows, 0)
            assert built._flat == packed, n
            gens = built._gens
            assert type(gens) is tuple and 0 not in gens, n
            assert _generated(built, gens) | {0} == set(range(n)), n
            variants += [pickle.loads(pickle.dumps(built)), copy.deepcopy(built)]
        assert all(G._flat is None and G._gens is None for G in variants), n
        if associative:
            variants.append(built)
        classes = sim_classes_reference(variants[0])
        g = rng.randrange(n)
        same_class = next(c for c in classes if g in c)
        pairs = [(g, rng.choice(same_class)), (rng.randrange(n), rng.randrange(n))]
        chains = [sim_witness_chain_reference(variants[0], *pair) for pair in pairs]
        lengths.update(None if c is None else min(len(c), 2) for c in chains)
        bare = FiniteSemigroup(table, 0)
        searched = any(chains)  # a nonempty chain comes from a search
        searched_rows += n > 256 and searched
        for G in variants:
            assert sim_classes(G).classes == classes, n
            assert [sim_witness_chain(G, *pair) for pair in pairs] == chains, n
            assert G._flat == packed, n
            assert G._gens is (gens if G is built else None), n
            for name in ("_flat", "_gens"):
                with pytest.raises(AttributeError):
                    setattr(G, name, None)
            # the packed table and the generators are caches, not the value
            assert G == bare and hash(G) == hash(bare), n
            assert pickle.dumps(G) == pickle.dumps(bare), n
    assert lengths == {None, 0, 1, 2}
    assert searched_rows > 0


def _generated(G, gens):
    """The subsemigroup that `gens` generate, by closing them under right
    products by `gens`."""
    reached, frontier = set(gens), set(gens)
    while frontier:
        frontier = {G.mul(y, x) for y in frontier for x in gens} - reached
        reached |= frontier
    return reached


def _random_generators(G, rng):
    """Nonzero elements in a seeded random order, each kept when those
    kept before it do not generate it: a generating set without the zero."""
    order = G.nonzero_elements()
    rng.shuffle(order)
    gens, reached = [], set()
    for x in order:
        if x not in reached:
            gens.append(x)
            reached = _generated(G, gens)
    return tuple(gens)


def _with_gens(G, gens):
    """A fresh copy of G whose `sim_classes` reads the rows of `gens`."""
    bare = FiniteSemigroup(G.table, G.zero)
    object.__setattr__(bare, "_gens", gens)
    return bare


def test_sim_classes_from_any_generating_set():
    """~ is generated by the pairs (xb, bx) with x in a generating set, so
    the rows of Light's generators, of every nonzero element and of a
    seeded random generating set give the reference's partition: on every
    semigroup of order at most 4 with a zero adjoined and on endo4 under 8
    seeded relabellings."""
    rng = fresh_rng(30)
    endo4 = endo4_semigroup()
    corpus = [*small_semigroups_with_zero(), *(_relabeled(endo4, rng) for _ in range(8))]
    for G in corpus:
        classes = sim_classes_reference(G)
        for gens in (G._gens, tuple(G.nonzero_elements()), _random_generators(G, rng)):
            assert sim_classes(_with_gens(G, gens)).classes == classes, (G.table, gens)


def test_sim_classes_reads_the_rows_of_light_generators():
    """A built relabelling of endo4 keeps at most 5 generators; a copy
    whose `_gens` does not generate the semigroup gets a strictly finer
    partition, so the rows read are the generators' rows."""
    rng = fresh_rng(31)
    endo4 = endo4_semigroup()
    for _ in range(4):
        G = _relabeled(endo4, rng)
        assert 1 <= len(G._gens) <= 5 and G.zero not in G._gens
        coarse = sim_classes(G).class_of
        fine = sim_classes(_with_gens(G, G._gens[:1])).class_of
        assert len(set(fine)) > len(set(coarse))
        # every class of `fine` lies in one class of `coarse`
        assert len(set(zip(fine, coarse))) == len(set(fine))


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


def test_is_central_map_matches_pairwise_oracle():
    rng = fresh_rng(19)
    outcomes = set()
    corpus = [*SEMIGROUPS.items(), *_relabeled_corpus(rng)]
    for name, G in corpus:
        classes = sim_classes_reference(G)
        for _ in range(3):
            values = [None] * G.size
            for cls in classes:
                c = fe_zero(Q) if G.zero in cls else random_scalar(rng)
                for x in cls:
                    values[x] = c
            tables = [list(values), list(values), list(values)]
            x = rng.randrange(G.size)  # one value changed: central iff alone in its class
            tables[1][x] = values[x] + fe_one(Q)
            tables[2][G.zero] = random_scalar(rng, nonzero=True)
            for table in tables:
                want = is_central_map_reference(G, table)
                assert is_central_map(G, table) == want, (name, table)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_small_semigroups_are_every_labelled_semigroup():
    # OEIS A023814: labelled semigroups of order 1, 2, 3, 4
    assert [len(small_semigroup_tables(n)) for n in range(1, 5)] == [1, 8, 113, 3492]
    tables = small_semigroup_tables(3)
    assert len(set(tables)) == len(tables)
    assert all(associativity_witness_reference(rows) is None for rows in tables)
    assert len(small_semigroups_with_zero()) == 3614


def test_is_central_map_on_every_small_semigroup():
    """A map is central iff it kills zero and is constant on the classes of
    ~: on every semigroup of order at most 4 with a zero adjoined, on a map
    constant on the classes and on each map with one value changed."""
    outcomes = set()
    for G in small_semigroups_with_zero():
        values = [None] * G.size
        for cid, cls in enumerate(sim_classes_reference(G)):
            for x in cls:
                values[x] = 0 if G.zero in cls else cid + 1
        tables = [values]
        for x in range(G.size):
            for other in {0, G.size + 1} - {values[x]}:
                tables.append(values[:x] + [other] + values[x + 1:])
        for table in tables:
            want = is_central_map_reference(G, table)
            assert is_central_map(G, table) == want, (G.table, table)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_spans_minimal_traces_and_chains_on_every_small_semigroup():
    """On every semigroup of order at most 4 with a zero adjoined:
    - the commutator span is the kernel of the minimal trace:
      `in_commutator_span` agrees with the elimination oracle on every unit
      vector, and the span's dimension is the number of nonzero elements
      less the number of nonzero classes;
    - `minimal_trace` equals the per-element reference and is minimal;
    - `sim_witness_chain(g, h)` returns a chain, which replays, exactly
      when g and h lie in one class of `sim_classes`, which is the
      reference's partition."""
    one = fe_one(Q)
    chains = 0
    for G in small_semigroups_with_zero():
        part = sim_classes(G)
        assert part.classes == sim_classes_reference(G), G.table
        oracle = commutator_span_oracle(G)
        nonzero = G.nonzero_elements()
        for g in nonzero:
            unit = sg_element(G, {g: one})
            assert in_commutator_span(G, unit) == oracle.contains({g: one}), (G.table, g)
        assert oracle.dim == len(nonzero) - len(part.nonzero_class_ids), G.table
        delta = minimal_trace(G)
        assert delta.values == minimal_trace_reference(G), G.table
        assert is_minimal_sg_trace(G, delta), G.table
        for g, h in itertools.product(range(G.size), repeat=2):
            chain = sim_witness_chain(G, g, h)
            same = part.class_of[g] == part.class_of[h]
            assert (chain is not None) == same, (G.table, g, h)
            if same:
                assert _chain_is_valid(G, g, h, chain), (G.table, g, h, chain)
                chains += bool(chain)
    assert chains > 0


def test_sim_witness_chain_rejects_indices_out_of_range():
    mu2 = matrix_units_semigroup(2)
    for g, h in ((-5, 1), (-1, 1), (1, -1), (5, 1), (1, 5), (5, 5), (-1, -1)):
        bad = g if not 0 <= g < mu2.size else h
        with pytest.raises(ValueError, match=rf"^element index {bad} out of range$"):
            sim_witness_chain(mu2, g, h)
    assert sim_witness_chain(mu2, 4, 4) == []
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=rf"^element index {bad} out of range$"):
            sg_element(mu2, {bad: 1})
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=rf"^element index {bad} out of range$"):
            group_with_zero([[0, 1], [1, bad]])
    for bad in (-1, 2, 10 ** 30):
        with pytest.raises(ValueError, match="^zero index out of range$"):
            build_semigroup([[0, 0], [0, 1]], bad)


def test_sim_witness_chain_rejects_indices_that_are_not_integers():
    mu2 = matrix_units_semigroup(2)
    for g, h in ((1.5, 1), (1, 1.5), ("1", 1), (1, "1"), (None, 1), (1.0, 1.0)):
        bad = h if isinstance(g, int) else g
        with pytest.raises(ValueError, match=rf"^element index {re.escape(repr(bad))} is not an integer$"):
            sim_witness_chain(mu2, g, h)

    class One:  # any object with __index__ is read as that integer
        def __index__(self):
            return 1

    assert sim_witness_chain(mu2, One(), 4) == sim_witness_chain(mu2, 1, 4) is not None
    assert sim_witness_chain(mu2, True, 1) == []
    # sg_element keys, the zero index and group_with_zero entries alike
    c2 = group_with_zero([[0, 1], [1, 0]])
    for bad in (1.5, 1.0, "1", None, Fraction(1)):
        text = rf"^element index {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(ValueError, match=text):
            sg_element(mu2, {bad: 1})
        with pytest.raises(ValueError, match=text):
            group_with_zero([[0, 1], [1, bad]])
        with pytest.raises(ValueError, match="^zero index is not an integer$"):
            build_semigroup([[0, 0], [0, 1]], bad)
    assert sg_element(mu2, {One(): 2, True: 3}) == sg_element(mu2, {1: 5})
    assert group_with_zero([[False, One()], [True, 0]]) == c2
    G = build_semigroup([[0, 1], [1, 1]], One())
    assert G.zero == 1 and type(G.zero) is int


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
            assert list(vec.terms.values()) == [scalar]
        else:
            assert not vec

    trivial = SEMIGROUPS["trivial"]
    zero_map = minimal_trace(trivial)
    assert all(not v for v in zero_map.values)

    c2 = SEMIGROUPS["c2"]
    classes = {k for v in minimal_trace(c2).values for k in v.terms}
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
                balanced = dict(x.terms)
                for idx, c in x.terms.items():
                    cid = part.class_of[idx]
                    if cid != part.zero_class_id:
                        least = part.classes[cid][0]
                        balanced[least] = balanced.get(least, fe_zero(field)) - c
                x = sg_element(G, balanced, field)
            verdict = in_commutator_span(G, x)
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
            assert in_commutator_span(G, x) == oracle.contains(x.terms)


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
    # rows of one word: a 1-element table, and short rows
    assert parse_cayley("n 1 zero 0\n0\n").table == ((0,),)
    for text, message in [
        ("n 2 zero 0\n0\n0 1\n", "line 2: expected 2 entries"),
        ("n 2 zero 0\n0 0\n7\n", "line 3: expected 2 entries"),
        ("n 1 zero 0\n0 0\n", "line 2: expected 1 entries"),
    ]:
        assert outcome(parse_cayley, text) == (ParseError, message)


def _written(G, rng):
    """A Cayley text of G in which each row, with one chance in four, has
    its entries written with leading zeros, so `parse_cayley` reads it
    through its `natural_numbers` fallback; and the number of such rows."""
    lines = [f"n {G.size} zero {G.zero}"]
    forms = [rng.choice(("{:04d}", "{}", "{}", "{}")) for _ in G.table]
    lines += (" ".join(map(form.format, row)) for form, row in zip(forms, G.table))
    return "\n".join(lines) + "\n", forms.count("{:04d}")


def test_parse_cayley_keeps_its_rows_as_the_table():
    """parse_cayley(text) equals build_semigroup on the same rows, on every
    small table with zero and on seeded relabellings of endo4, with rows
    written plainly and through the fallback; every row of its table is a
    tuple of exact ints.  On the 257-element tables, chains equal the
    row-major reference, and the table is never copied into `_flat`."""
    rng = fresh_rng(41)
    built = [*small_semigroups_with_zero()]
    built += [_relabeled(endo4_semigroup(), rng) for _ in range(2)]
    fallback_rows = 0
    for G in built:
        text, padded = _written(G, rng)
        fallback_rows += padded
        parsed = parse_cayley(text)
        assert parsed == G
        assert all(type(row) is tuple for row in parsed.table)
        assert {type(x) for row in parsed.table for x in row} == {int}
        if G.size > 256:
            part = sim_classes(parsed)
            for _ in range(3):
                a, b = rng.randrange(G.size), rng.randrange(G.size)
                g, h = G.mul(a, b), rng.choice(part.classes[part.class_of[G.mul(b, a)]])
                chain = sim_witness_chain(parsed, g, h)
                assert chain == sim_witness_chain_reference(G, g, h), (g, h)
            assert parsed._flat is None
    assert len(built) == 3614 + 2 and fallback_rows > 1000


@pytest.mark.parametrize("n", [10, 257])
def test_parse_cayley_reads_a_repeated_row_once(n):
    """On the null and the right-zero table, a row whose text equals the
    row before it, blank and comment lines aside, is that row's tuple; a
    repeat written with other spacing is read on its own.  Each text gives
    the table that `build_semigroup` builds from the same rows."""
    null = [[0] * n for _ in range(n)]
    right_zero = [[0] * n] + [list(range(n)) for _ in range(n - 1)]
    for rows in (null, right_zero):
        built = build_semigroup(rows, 0)
        lines = [" ".join(map(str, row)) for row in rows]
        repeats = [i for i in range(1, n) if lines[i] == lines[i - 1]]
        assert len(repeats) >= n - 2
        for between in ([], ["", "# between rows"]):
            text = "\n".join([f"n {n} zero 0", *(x for line in lines for x in (line, *between))])
            G = parse_cayley(text)
            assert G == built
            assert all(G.table[i] is G.table[i - 1] for i in repeats)
        spaced = [line.replace(" ", "  ") if i % 2 else line for i, line in enumerate(lines)]
        G = parse_cayley("\n".join([f"n {n} zero 0", *spaced]))
        assert G == built
        assert all(G.table[i] is not G.table[i - 1] for i in range(1, n))


def test_light_test_above_256_elements_keeps_no_table_per_generator():
    """Above 256 elements Light's test compares the rows x*g with the
    columns g*y for each generator g as it goes, and keeps no transposed
    table per generator: on the rows that `parse_cayley` reads from two
    seeded relabellings of endo4 (257 elements), `build_semigroup` peaks
    below 0.8 MB, where one such table takes about 0.5 MB more."""
    rng = fresh_rng(44)
    endo4 = endo4_semigroup()
    parsed = [parse_cayley(_written(_relabeled(endo4, rng), rng)[0]) for _ in range(2)]
    tracemalloc.start()
    try:
        for G in parsed:
            rows = _ParsedTable(G.table, G.table)  # every row range-checked
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert build_semigroup(rows, G.zero) == G
            assert tracemalloc.get_traced_memory()[1] - before < 800_000
    finally:
        tracemalloc.stop()


def test_central_map_rejects_noncentral():
    mu2 = SEMIGROUPS["mu2"]
    e12 = matrix_unit_index(2, 1, 2)
    values = [fe_zero(Q)] * mu2.size
    values[e12] = fe_one(Q)
    with pytest.raises(PreconditionError):
        central_map(mu2, values)


def test_freevector_arithmetic():
    a = FreeVector(None, {1: fe(1), 2: fe(2)})
    b = FreeVector(None, {2: fe(-2), 3: fe(1)})
    assert (a + b).terms == {1: fe(1), 3: fe(1)}
    assert (a - a) == FreeVector(None, {})
    swapped = FreeVector(None, {2: fe(2), 1: fe(1)})
    assert swapped == a and hash(swapped) == hash(a)
    assert a.scale(fe(2)).terms[2] == fe(4)

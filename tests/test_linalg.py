from fractions import Fraction
from math import prod

import pytest

from lpatrace import linalg
from lpatrace.linalg import nullspace, rank
from lpatrace.scalars import QI, Q, fe, fe_one, fe_zero
from lpatrace.semigroups import (
    FREE_ZERO,
    FreeVector,
    central_map,
    is_minimal_sg_trace,
    sim_classes,
)

from conftest import (
    SEMIGROUPS,
    SpanBasis,
    fraction_rank,
    fresh_rng,
    random_scalar,
    small_graphs,
    vertex_constraint_rows_reference,
)


def _row(*vals):
    return [fe(v) for v in vals]


def _sparse(rows):
    return [dict(enumerate(r)) for r in rows]


def test_rank_small():
    assert rank([]) == 0
    assert rank(_sparse([_row(0, 0)])) == 0
    assert rank(_sparse([_row(1, 2), _row(2, 4)])) == 1
    assert rank(_sparse([_row(1, 0), _row(0, 1)])) == 2
    assert rank(_sparse([_row(1, 2, 3), _row(0, 1, 1), _row(1, 3, 4)])) == 2


def test_nullspace_solves_the_system():
    rows = _sparse([_row(1, -1, 0), _row(0, 1, -1)])
    basis = nullspace(rows, 3, Q)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        total = fe_zero(Q)
        for col, a in row.items():
            total = total + a * vec[col]
        assert not total
    assert vec[0] == vec[1] == vec[2] != fe_zero(Q)
    # an empty row and a row of explicit zeros constrain nothing, and the
    # rows are read, not reduced in place
    padded = rows + [{}, {2: fe(0), 0: fe(0)}]
    assert nullspace(padded, 3, Q) == basis
    assert padded[-1] == {2: fe(0), 0: fe(0)}
    assert rows == _sparse([_row(1, -1, 0), _row(0, 1, -1)])


def test_nullspace_empty_system():
    basis = nullspace([], 2, Q)
    assert len(basis) == 2
    assert nullspace([{}], 2, Q) == nullspace([{1: fe(0)}], 2, Q) == basis


def _seeded_matrices(rng, field):
    """(trial, dense rows, ncols) for 60 seeded matrices of several shapes."""
    zero = fe_zero(field)
    shapes = [(1, 1), (2, 5), (5, 2), (4, 4), (3, 7), (7, 3), (6, 6)]
    for trial in range(60):
        nrows, ncols = shapes[trial % len(shapes)]
        if trial % 5 == 0:
            rows = [[zero] * ncols for _ in range(nrows)]  # all-zero matrix
        else:
            rows = [[random_scalar(rng, field) for _ in range(ncols)]
                    for _ in range(nrows)]
            # a repeated row and an inserted zero row lower the rank
            if trial % 3 == 0:
                rows[-1] = list(rows[0])
            if trial % 4 == 0:
                rows.insert(rng.randrange(nrows), [zero] * ncols)
        yield trial, rows, ncols


@pytest.mark.parametrize("field", [Q, QI])
def test_rank_nullity_and_nullspace_solutions(rng, field):
    zero = fe_zero(field)
    for trial, rows, ncols in _seeded_matrices(rng, field):
        basis = nullspace(_sparse(rows), ncols, field)
        assert rank(_sparse(rows)) + len(basis) == ncols, (trial, len(rows), ncols)
        for vec in basis:
            for row in rows:
                total = zero
                for a, x in zip(row, vec):
                    total = total + a * x
                assert not total, (trial, vec)
        assert rank(_sparse(basis)) == len(basis)


@pytest.mark.parametrize("field", [Q, QI])
def test_sparse_rank_matches_span_basis(rng, field):
    columns = [0, 3, 7, 12, 20]
    for trial in range(80):
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if rows and kind < 0.2:  # a repeated row
                rows.append(dict(rng.choice(rows)))
            elif rows and kind < 0.4:  # a scaled row
                c = random_scalar(rng, field, nonzero=True)
                rows.append({k: c * v for k, v in rng.choice(rows).items()})
            elif kind < 0.5:  # an empty row
                rows.append({})
            else:  # keys inserted out of column order, zeros kept
                cols = rng.sample(columns, rng.randint(1, len(columns)))
                rows.append({k: random_scalar(rng, field) for k in cols})
        sb = SpanBasis(field)
        for row in rows:
            sb.add(row)
        assert rank(rows) == sb.dim, (trial, rows)


def _realified(rows, ncols, field):
    """Dense Fraction rows of the Q-linear map that sparse rows over the
    field define, a + bi as the block [[a, -b], [b, a]]: its rank over Q is
    twice the rank over the field."""
    out = []
    for row in rows:
        entries = [row.get(col, fe_zero(field)) for col in range(ncols)]
        out.append([part for x in entries for part in (x.re, -x.im)])
        out.append([part for x in entries for part in (x.im, x.re)])
    return out


@pytest.mark.parametrize("field", [Q, QI])
def test_rank_matches_fraction_rank(field):
    """`rank`, forward elimination with no pivot scaled, equals a Fraction
    elimination that uses no `lpatrace.linalg`, on seeded sparse rows with
    zero values, empty rows and dependent rows."""
    rng = fresh_rng(27)
    ranks = set()
    for trial in range(150):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.random()
            if len(rows) > 1 and kind < 0.25:  # a combination of two rows
                a, b = rng.sample(rows, 2)
                c = random_scalar(rng, field)
                row = dict(a)
                for col, x in b.items():
                    row[col] = row.get(col, fe_zero(field)) + c * x
                rows.append(row)
            elif kind < 0.35:
                rows.append({})
            else:  # random_scalar may draw zero values, kept in the row
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                rows.append({col: random_scalar(rng, field) for col in cols})
        twice = fraction_rank(_realified(rows, ncols, field))
        want = twice // 2
        assert twice % 2 == 0 and rank(rows) == want, (trial, rows)
        ranks.add(min(want, 3))
    assert ranks == {0, 1, 2, 3}


def _free_columns(rows, ncols, field):
    """The free columns of sparse rows by a Fraction elimination that uses
    no `lpatrace.linalg`: column c is free when columns 0..c have the rank
    of columns 0..c-1 (each field column is two columns once realified)."""
    real = _realified(rows, ncols, field)
    ranks = [fraction_rank([r[:2 * c] for r in real]) for c in range(ncols + 1)]
    return [c for c in range(ncols) if ranks[c + 1] == ranks[c]]


def _assert_reduced(basis, free, field, what):
    """Basis vector i is 1 at the i-th free column and 0 at the others, so
    the vectors come in increasing free-column order."""
    assert len(basis) == len(free), what
    for i, vec in enumerate(basis):
        assert [vec[c] for c in free] == [fe(int(c == free[i]), 0, field) for c in free], what


@pytest.mark.parametrize("field", [Q, QI])
def test_nullspace_is_the_reduced_basis(rng, field):
    """`nullspace` returns the one basis that the reduced echelon form
    gives, on the seeded matrices above and on the vertex constraints of
    every small graph, with free columns from a Fraction reference."""
    for trial, rows, ncols in _seeded_matrices(rng, field):
        rows = _sparse(rows)
        _assert_reduced(nullspace(rows, ncols, field),
                        _free_columns(rows, ncols, field), field, trial)
    for g in small_graphs():
        rows = [{c: fe(x, 0, field) for c, x in enumerate(row)}
                for row in vertex_constraint_rows_reference(g)]
        ncols = len(g.vertices)
        _assert_reduced(nullspace(rows, ncols, field),
                        _free_columns(rows, ncols, field), field, g)


def _integer_systems(rng, shapes, values):
    """Seeded dense integer systems as sparse rows, zeros kept: one of each
    shape, and each shape again with dependent rows, a sum of two rows and
    a multiple of one, in place of its last two."""
    for nrows, ncols in shapes:
        rows = [{c: rng.choice(values) for c in range(ncols)} for _ in range(nrows)]
        yield rows
        if nrows > 2:
            a, b = rows[0], rows[1]
            rows = rows[:-2] + [{c: a[c] + b[c] for c in a}, {c: 3 * a[c] for c in a}]
            yield rows


def test_integer_elimination_stays_within_hadamards_bound():
    """Every stored entry of an integer forward elimination is an int of at
    most Hadamard's bound for the system, the product of its nonzero rows'
    lengths, which bounds every minor; the pivots are as many as the rank
    of a Fraction elimination that uses no `lpatrace.linalg`."""
    rng = fresh_rng(40)
    shapes = [(20, 20)] * 6 + [(12, 25), (25, 12)]
    for trial, rows in enumerate(_integer_systems(rng, shapes, range(-3, 4))):
        squared = prod(n for n in (sum(x * x for x in r.values()) for r in rows) if n)
        pivots = linalg._forward(rows)
        for row in pivots.values():
            assert all(type(x) is int and x * x <= squared for x in row.values()), trial
        ncols = max(max(r) for r in rows) + 1
        dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
        assert len(pivots) == fraction_rank(dense), trial


@pytest.mark.parametrize("field", [Q, QI])
def test_integer_rows_give_the_reduced_basis(field):
    """Integer rows, eliminated fraction-free, give the basis that the same
    rows as field elements give, the reduced echelon one with free columns
    from a Fraction reference."""
    rng = fresh_rng(41)
    shapes = [(1, 3), (3, 3), (4, 6), (6, 4), (5, 9)] * 4
    for trial, rows in enumerate(_integer_systems(rng, shapes, range(-4, 5))):
        ncols = max(max(r) for r in rows) + 1
        as_field = [{c: fe(x, 0, field) for c, x in r.items()} for r in rows]
        basis = nullspace(rows, ncols, field)
        assert basis == nullspace(as_field, ncols, field), trial
        _assert_reduced(basis, _free_columns(as_field, ncols, field), field, trial)


def test_span_basis_membership():
    sb = SpanBasis(Q)
    one = fe_one(Q)
    assert sb.add({0: one, 1: -one})
    assert not sb.add({1: one, 0: -one})
    assert sb.add({1: one, 2: -one})
    assert sb.dim == 2
    assert sb.contains({0: one, 2: -one})
    assert not sb.contains({0: one})
    assert sb.contains({})


def test_is_minimal_sg_trace_rejects_proportional_class_values():
    G = SEMIGROUPS["c3"]  # abelian: three nonzero classes
    part = sim_classes(G)
    first, second, third = part.nonzero_class_ids
    base = FreeVector(None, {"p": fe(1), "q": fe(2)})

    def delta(second_value):
        per_class = {first: base, second: second_value,
                     third: FreeVector(None, {"r": fe(5)})}
        return central_map(G, [per_class.get(cid, FREE_ZERO)
                               for cid in part.class_of])

    assert is_minimal_sg_trace(G, delta(FreeVector(None, {"q": fe(1)})))
    assert not is_minimal_sg_trace(G, delta(base.scale(fe(-3))))

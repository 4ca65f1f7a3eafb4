import pytest

from lpatrace.linalg import nullspace, rank
from lpatrace.scalars import QI, Q, fe, fe_one, fe_zero

from conftest import SpanBasis, random_scalar


def _row(*vals):
    return [fe(v) for v in vals]


def test_rank_small():
    assert rank([], Q) == 0
    assert rank([_row(0, 0)], Q) == 0
    assert rank([_row(1, 2), _row(2, 4)], Q) == 1
    assert rank([_row(1, 0), _row(0, 1)], Q) == 2
    assert rank([_row(1, 2, 3), _row(0, 1, 1), _row(1, 3, 4)], Q) == 2


def test_nullspace_solves_the_system():
    rows = [_row(1, -1, 0), _row(0, 1, -1)]
    basis = nullspace(rows, 3, Q)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        total = fe_zero(Q)
        for a, x in zip(row, vec):
            total = total + a * x
        assert not total
    assert vec[0] == vec[1] == vec[2] != fe_zero(Q)


def test_nullspace_empty_system():
    basis = nullspace([], 2, Q)
    assert len(basis) == 2


@pytest.mark.parametrize("field", [Q, QI])
def test_rank_nullity_and_nullspace_solutions(rng, field):
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
        basis = nullspace(rows, ncols, field)
        assert rank(rows, field) + len(basis) == ncols, (trial, nrows, ncols)
        for vec in basis:
            for row in rows:
                total = zero
                for a, x in zip(row, vec):
                    total = total + a * x
                assert not total, (trial, vec)
        assert rank(basis, field) == len(basis)


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

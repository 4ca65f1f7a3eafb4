"""Exact Gaussian elimination over the tagged fields.

Rows are sparse: a mapping {column: value} over integer columns, in which
zero values are ignored.  A system of k unit vectors therefore costs O(k)
operations, not k^2.  Both `rank` and `nullspace` read rows in this format.
"""

from __future__ import annotations

from .scalars import add_terms, fe_one, fe_zero


def _subtract_multiple(row: dict, factor, pivot_row: dict):
    """row -= factor * pivot_row, in place, dropping entries that vanish."""
    neg = -factor
    add_terms(row, ((col, neg * y) for col, y in pivot_row.items()))


def _forward(rows) -> dict:
    """Forward elimination: {pivot column: pivot row}, by column.

    Each row is reduced against the pivots found so far, smallest column
    first, until its smallest column is a new pivot, kept as it was found;
    every pivot row then holds only columns at or after its pivot.
    """
    pivots = {}
    for row in rows:
        row = {col: x for col, x in row.items() if x}
        while row:
            col = min(row)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                pivots[col] = row
                break
            _subtract_multiple(row, row[col] / pivot_row[col], pivot_row)
    return pivots


def _row_reduce(rows, field):
    """Reduced row-echelon form: (reduced rows, pivot columns), by column.

    Forward elimination, then each pivot row scaled to 1 at its pivot;
    back-substitution from the largest pivot down then leaves each pivot
    column in its own row alone.
    """
    one = fe_one(field)
    pivots = _forward(rows)
    for col, row in pivots.items():
        inv = one / row[col]
        pivots[col] = {c: x * inv for c, x in row.items()}
    order = sorted(pivots)
    for col in reversed(order):
        row = pivots[col]
        # later pivot rows are already reduced, so they bring in no pivots
        for c in [c for c in row if c != col and c in pivots]:
            _subtract_multiple(row, row[c], pivots[c])
    return [pivots[col] for col in order], order


def rank(rows) -> int:
    """Rank of a matrix given as sparse rows {column: value}: the number of
    pivots that forward elimination finds, with no pivot scaled and no
    back-substitution."""
    return len(_forward(rows))


def nullspace(rows, ncols: int, field):
    """Basis of the solution space of (rows) * x = 0, as dense vectors.

    Rows are sparse, as for `rank`, over columns 0..ncols-1; with no rows
    the basis is the standard one.  The basis is read off the reduced
    row-echelon form, one vector of length ncols per free column.
    """
    zero, one = fe_zero(field), fe_one(field)
    mat, pivots = _row_reduce(rows, field)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row, pcol in zip(mat, pivots):
            if fc in row:
                vec[pcol] = -row[fc]
        basis.append(vec)
    return basis

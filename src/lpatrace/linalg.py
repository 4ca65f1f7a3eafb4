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


def _row_reduce(rows, field):
    """Reduced row-echelon form: (reduced rows, pivot columns), by column.

    Each row is reduced against the pivots found so far, smallest column
    first, until its smallest column is a new pivot; every pivot row then
    holds only columns at or after its pivot.  Back-substitution from the
    largest pivot down leaves each pivot column in its own row alone.
    """
    one = fe_one(field)
    pivots = {}
    for row in rows:
        row = {col: x for col, x in row.items() if x}
        while row:
            col = min(row)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                inv = one / row[col]
                pivots[col] = {c: x * inv for c, x in row.items()}
                break
            _subtract_multiple(row, row[col], pivot_row)
    order = sorted(pivots)
    for col in reversed(order):
        row = pivots[col]
        # later pivot rows are already reduced, so they bring in no pivots
        for c in [c for c in row if c != col and c in pivots]:
            _subtract_multiple(row, row[c], pivots[c])
    return [pivots[col] for col in order], order


def rank(rows, field) -> int:
    """Rank of a matrix given as sparse rows {column: value}."""
    return len(_row_reduce(rows, field)[1])


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

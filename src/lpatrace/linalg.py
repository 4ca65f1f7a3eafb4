"""Exact Gaussian elimination over the tagged fields.

Dense routines for the small systems arising from vertex constraints and
minimality checks.
"""

from __future__ import annotations

from .scalars import fe_one, fe_zero


def _row_reduce(rows, ncols: int, field):
    """Reduced row-echelon form: (nonzero reduced rows, pivot columns).

    Zero rows are dropped first, so elimination stops as soon as every
    remaining row holds a pivot.
    """
    one = fe_one(field)
    mat = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = one / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


def rank(rows, field) -> int:
    """Rank of a dense matrix given as a list of equal-length rows."""
    return len(_row_reduce(rows, len(rows[0]) if rows else 0, field)[1])


def nullspace(rows, ncols: int, field):
    """Basis of the solution space of (rows) * x = 0, as dense vectors.

    Rows may be empty, in which case the basis is the standard one.
    """
    zero, one = fe_zero(field), fe_one(field)
    mat, pivots = _row_reduce(rows, ncols, field)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][fc]
        basis.append(vec)
    return basis


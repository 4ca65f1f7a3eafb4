"""Exact Gaussian elimination over the tagged fields.

Two flavours: dense routines for the small systems arising from vertex
constraints and minimality checks, and an incremental sparse span for the
commutator-span oracle, where generator vectors have at most two nonzero
entries but there may be tens of thousands of them.
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


class SpanBasis:
    """Incrementally built row-echelon basis of a span of sparse vectors.

    Vectors are dicts {index: FieldElem} with orderable index keys.  Rows
    are kept normalized with leading coefficient 1, keyed by their leading
    (smallest) index.
    """

    def __init__(self, field):
        self.field = field
        self._rows = {}

    def _reduce(self, vec):
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                return vec
            factor = vec[lead]
            for k, v in row.items():
                new = vec.get(k, fe_zero(self.field)) - factor * v
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        rem = self._reduce(vec)
        if not rem:
            return False
        lead = min(rem)
        inv = fe_one(self.field) / rem[lead]
        self._rows[lead] = {k: v * inv for k, v in rem.items()}
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    @property
    def dim(self) -> int:
        return len(self._rows)

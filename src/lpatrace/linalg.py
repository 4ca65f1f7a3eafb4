"""Exact Gaussian elimination over the tagged fields.

Rows are sparse: a mapping {column: value} over integer columns, in which
zero values are ignored.  A system of k unit vectors therefore costs O(k)
operations, not k^2.  Both `rank` and `nullspace` read rows in this format.

Values are field elements, or Python ints for an integral system such as
the vertex constraints.  Forward elimination divides on field rows.  On
integer rows it is fraction-free with content removal: each step is
row <- a*row - b*pivot row, and the new row is then divided by the gcd of
its entries, so every stored entry stays within Hadamard's bound for the
system.  `nullspace` turns to the field only in its substitution pass,
and its basis is over the field either way.
"""

from __future__ import annotations

from math import gcd

from .scalars import add_terms, fe_one, fe_zero


def _forward(rows) -> dict:
    """Forward elimination: {pivot column: pivot row}, by column.

    Each row is reduced against the pivots found so far, smallest column
    first, until its smallest column is a new pivot, kept as it was found;
    every pivot row then holds only columns at or after its pivot.  Against
    an int pivot entry the step is integral: the reduced row is a primitive
    multiple of the one that division would give, so the pivot columns are
    the same.
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
            p, x = pivot_row[col], row[col]
            if type(p) is int:
                g = gcd(p, x) if p > 0 else -gcd(p, x)
                a, b = p // g, x // g  # a > 0: a pivot of -1 scales nothing
                if a != 1:
                    row = {c: a * y for c, y in row.items()}
                # every entry of a*row - b*pivot row that is not in the row
                # is -b*y, nonzero, so only a held entry can cancel
                for c, y in pivot_row.items():
                    y = row.get(c, 0) - b * y
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                g = gcd(*row.values())
                if g > 1:
                    row = {c: y // g for c, y in row.items()}
            else:
                neg = -(x / p)
                add_terms(row, ((c, neg * y) for c, y in pivot_row.items()))
    return pivots


def rank(rows) -> int:
    """Rank of a matrix given as sparse rows {column: value}: the number of
    pivots that forward elimination finds, with no pivot scaled and no
    back-substitution."""
    return len(_forward(rows))


def nullspace(rows, ncols: int, field):
    """Basis of the solution space of (rows) * x = 0, as dense vectors.

    Rows are sparse, as for `rank`, over columns 0..ncols-1, with values in
    the field or all ints; with no rows the basis is the standard one, and
    with a pivot in every column it is empty, returned at once.  Otherwise,
    after forward elimination, one pass from the last column down writes
    each column in the free columns: a free column is itself, and a pivot
    column is minus its pivot row's later columns over its pivot.  The
    vector of a free column reads its coefficient in every column, so it is
    1 there and 0 at the other free columns, the basis of the reduced
    echelon form, in free-column order.
    """
    zero, one = fe_zero(field), fe_one(field)
    pivots = _forward(rows)
    if len(pivots) == ncols:
        return []
    basis = {fc: [zero] * ncols for fc in range(ncols) if fc not in pivots}
    written = {}  # column -> {free column: coefficient}
    for col in reversed(range(ncols)):
        row = pivots.get(col)
        if row is None:
            terms = {col: one}
        else:
            terms, inv = {}, -(one / row[col])
            for c, x in row.items():
                if c != col:
                    k, pairs = inv * x, written[c].items()
                    add_terms(terms, pairs if k == one else (
                        (fc, k * y) for fc, y in pairs))
        written[col] = terms
        for fc, y in terms.items():
            basis[fc][col] = y
    return list(basis.values())

"""Exact Gauss-Jordan elimination over Q(i) on sparse columns.

The systems this package solves are very sparse: the Moser identification
at `moser --N 41` solves one 456 x 231 system per block with under 500
nonzeros and 20 right-hand sides.  The callers hold them as sparse columns,
`Poly.packed` maps and root vectors, so each column and each right-hand
side comes in as a `{row key: value}` map.  The rows are the keys with a
nonzero value, numbered in the order they are first seen; a zero value is
ignored, as an absent key; the inputs are only read, never mutated.
Internally each row is held as a `{column: value}` dict of its nonzero
entries, with right-hand side j stored as column n + j, and `where[c]` holds
the rows that have a nonzero in column c.

Pivot rule: columns are taken in order; the pivot for a column is the
lowest-numbered row that is not yet a pivot row and has a nonzero in that
column; it is divided by its pivot value, and the column is eliminated from
every other row.  Rows are never moved.  A step visits only the rows in
`where[col]` and, in each, only the entries of the pivot row.

The result does not depend on which rows pivot, so neither on the row
numbering.  A column is a pivot column exactly when it is not a combination
of the columns before it, which the rows do not change, and the pivot rows,
once reduced, are the reduced row echelon form of [A | b], which is unique
for the fixed column order.  So the basic solution (the pivot rows'
right-hand sides, free variables zero), `unique` (every column a pivot
column) and the verdict that a right-hand side is inconsistent (a row
without a pivot keeps a nonzero right-hand side) are the same for every
row order.

Entries are exact scalars of Q(i) in `polyalg`'s normal form, rational and
Gaussian entries mixed freely in one row.  Every division is exact
(`polyalg.divide`) and every entry is normalised as it is computed, so no
float can appear and every returned scalar is in normal form: a solution
whose imaginary part cancels comes back as an `int` or a `Fraction`.
"""

from __future__ import annotations

from .polyalg import divide, normal


def solve_exact(columns, rhs):
    """Solve A x = b exactly for every right-hand side b; free variables are
    set to zero.

    `columns` holds one `{row key: value}` map per unknown and `rhs` one per
    right-hand side; the row keys are hashable, and the values are exact
    scalars in normal form (`polyalg.normal`), and so are the solutions.
    Returns (solutions, unique), one solution list per right-hand side,
    where `unique` says whether they are fully determined, or None if any
    right-hand side is inconsistent.
    """
    n = len(columns)
    index: dict = {}
    A: list[dict] = []
    where: list[set[int]] = [set() for _ in range(n + len(rhs))]
    for c, col in enumerate([*columns, *rhs]):
        for key, v in col.items():
            if v:
                i = index.setdefault(key, len(A))
                if i == len(A):
                    A.append({})
                A[i][c] = v
                where[c].add(i)
    free = set(range(len(A)))  # the rows that are not pivot rows
    pivots: list[tuple[int, int]] = []  # (row, column)
    for col in range(n):
        below = where[col] & free
        if not below:
            continue
        p = min(below)
        free.remove(p)
        prow = A[p]
        pv = prow[col]
        for c in prow:
            prow[c] = divide(prow[c], pv)
        rest = [(c, y) for c, y in prow.items() if c != col]
        for i in where[col]:
            if i == p:
                continue
            r = A[i]
            f = r.pop(col)
            for c, y in rest:
                x = r.get(c)
                new = normal(-(f * y) if x is None else x - f * y)
                if new:
                    r[c] = new
                    where[c].add(i)
                elif x is not None:
                    del r[c]
                    where[c].discard(i)
        where[col] = {p}
        pivots.append((p, col))
        if not free:
            break
    if any(A[i] for i in free):
        return None  # inconsistent: a row left without a pivot keeps a right-hand side
    xs = [[0] * n for _ in rhs]
    for i, c in pivots:
        for j, x in enumerate(xs):
            x[c] = A[i].get(n + j, 0)
    return xs, len(pivots) == n

"""Exact Gauss-Jordan elimination over Q(i) on sparse columns.

The systems this package solves are very sparse: the Moser identification
at `moser --N 41` solves one 456 x 231 system per block with under 500
nonzeros and 20 right-hand sides.  The callers hold them as sparse columns,
`Poly.packed` maps and root vectors, so each column and each right-hand
side comes in as a `{row key: value}` map.  The rows are the sorted union of
the keys; a zero value is ignored, as an absent key; the inputs are only
read, never mutated.  Internally each row is held as a `{column: value}`
dict of its nonzero entries, with right-hand side j stored as column n + j,
and `where[c]` holds the rows that have a nonzero in column c.

Pivot rule (the same as the dense form's on the rows in sorted-key order):
columns are taken in order; the pivot for a column is the first row, in the
current row order, at or below the current row with a nonzero in that
column; it is swapped up, divided by its pivot value, and the column is
eliminated from every other row.  A step visits only the rows in
`where[col]` and, in each, only the entries of the pivot row.

The result is the dense form's in every case.  Zero patterns are exact, so
an entry the dense form holds as zero is exactly an entry absent here, and
every nonzero entry is the same value computed by the same operations
(`x - f*y` becomes `-(f*y)` where x is absent).  Hence the same pivots are
chosen, the same rows are found inconsistent, the same free variables are
set to zero, and the returned scalars have the same values.

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
    right-hand side; the row keys are mutually comparable, and the values
    are exact scalars in normal form (`polyalg.normal`), and so are the
    solutions.  Returns (solutions, unique), one solution list per
    right-hand side, where `unique` says whether they are fully determined,
    or None if any right-hand side is inconsistent.
    """
    n = len(columns)
    index = {key: i for i, key in enumerate(sorted(set().union(*columns, *rhs)))}
    m = len(index)
    A: list[dict] = [{} for _ in range(m)]
    where: list[set[int]] = [set() for _ in range(n + len(rhs))]
    for c, col in enumerate([*columns, *rhs]):
        for key, v in col.items():
            if v:
                i = index[key]
                A[i][c] = v
                where[c].add(i)
    order = list(range(m))  # order[position] = row id
    pos = list(range(m))  # pos[row id] = position
    pivots: list[tuple[int, int]] = []  # (row id, column)
    row = 0
    for col in range(n):
        below = [i for i in where[col] if pos[i] >= row]
        if not below:
            continue
        p = min(below, key=pos.__getitem__)
        q = order[row]
        order[row], order[pos[p]] = p, q
        pos[q], pos[p] = pos[p], row
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
        row += 1
        if row == m:
            break
    if any(A[i] for i in order[row:]):
        return None  # inconsistent: a row left without a pivot keeps a right-hand side
    xs = [[0] * n for _ in rhs]
    for i, c in pivots:
        for j, x in enumerate(xs):
            x[c] = A[i].get(n + j, 0)
    return xs, len(pivots) == n

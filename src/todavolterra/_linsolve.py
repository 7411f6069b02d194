"""Exact Gauss-Jordan elimination over Q(i) on sparse rows.

The systems this package solves are very sparse: the Moser identification
builds 75 x 45 systems with under a hundred nonzeros each.  Each row is
therefore held as a `{column: value}` dict of its nonzero entries, with the
right-hand side stored as column n, and `where[c]` holds the rows that have a
nonzero in column c.

Pivot rule (the same as the dense form's): columns are taken in order; the
pivot for a column is the first row, in the current row order, at or below
the current row with a nonzero in that column; it is swapped up, divided by
its pivot value, and the column is eliminated from every other row.  A step
visits only the rows in `where[col]` and, in each, only the entries of the
pivot row.

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


def solve_exact(rows, rhs):
    """Solve A x = b exactly; free variables are set to zero.

    `rows` is a list of coefficient lists and `rhs` the right-hand sides,
    exact scalars in normal form (`polyalg.normal`); so is the solution.
    Returns (solution, unique) where `unique` says whether the solution was
    fully determined, or None if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [{c: v for c, v in enumerate([*r, b]) if v} for r, b in zip(rows, rhs)]
    where: list[set[int]] = [set() for _ in range(n + 1)]
    for i, r in enumerate(A):
        for c in r:
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
    if any(n in A[i] for i in order[row:]):
        return None  # inconsistent
    x = [0] * n
    for i, c in pivots:
        x[c] = A[i].get(n, 0)
    unique = len(pivots) == n
    return x, unique

"""Exact Gaussian elimination over Q or Q(i) for small linear systems."""

from __future__ import annotations

from fractions import Fraction


def _is_zero(x) -> bool:
    return not x


def solve_exact(rows, rhs):
    """Solve A x = b exactly; free variables are set to zero.

    `rows` is a list of coefficient lists (Fraction or GaussianRational),
    `rhs` the right-hand sides.  Returns (solution, unique) where `unique`
    says whether the solution was fully determined, or None if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if not _is_zero(A[r][col])), None)
        if pivot is None:
            continue
        A[row], A[pivot] = A[pivot], A[row]
        pv = A[row][col]
        A[row] = [x / pv for x in A[row]]
        for r in range(m):
            if r != row and not _is_zero(A[r][col]):
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not _is_zero(A[r][n]):
            return None  # inconsistent
    zero = rows[0][0] * 0 if m else Fraction(0)
    x = [zero] * n
    for r, c in pivots:
        x[c] = A[r][n]
    unique = len(pivots) == n
    return x, unique

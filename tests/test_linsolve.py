"""The sparse exact solver against the dense Gauss-Jordan elimination it replaced.

The dense form below is the oracle: the same pivot rule over full rows, in
`Fraction` arithmetic (rational entries are converted first, so its `/` is
exact even on all-int rows).  The solution and the uniqueness flag must be
equal, and every returned scalar must be in normal form (an `int` exactly
when integral, a `GaussianRational` only when its imaginary part is nonzero,
never a float), also where the rows mix rational and Gaussian entries.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra import bogo, moser
from todavolterra._linsolve import solve_exact
from todavolterra.polyalg import GaussianRational, I_UNIT, normal

from conftest import assert_normal


def _is_zero(x) -> bool:
    return not x


def dense_solve_exact(rows, rhs):
    m = len(rows)
    n = len(rows[0]) if m else 0
    def exact(v):
        return v if isinstance(v, GaussianRational) else Fraction(v)

    A = [[exact(v) for v in [*r, b]] for r, b in zip(rows, rhs)]
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
    zero = exact(rows[0][0]) * 0 if m else Fraction(0)
    x = [zero] * n
    for r, c in pivots:
        x[c] = A[r][n]
    unique = len(pivots) == n
    return x, unique


def assert_same(rows, rhs):
    before = ([list(r) for r in rows], list(rhs))
    got = solve_exact(rows, rhs)
    want = dense_solve_exact(rows, rhs)
    assert ([list(r) for r in rows], list(rhs)) == before  # inputs untouched
    if want is None:
        assert got is None
        return
    assert got is not None
    (x, unique), (x_want, unique_want) = got, want
    assert unique == unique_want
    assert x == x_want
    for v in x:
        assert_normal(v)


# ------------------------------------------------------------- hypothesis


def _scalar(rng, gauss):
    def part():
        return normal(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    if not gauss:
        return part()
    return normal(GaussianRational(part(), part() if rng.random() < 0.7 else 0))


@st.composite
def systems(draw):
    """Small systems over Q, or over Q(i) with rational and Gaussian entries
    mixed, sparse or dense, with dependent rows (consistent or not), all-zero
    rows and zero right-hand sides."""
    gauss = draw(st.booleans())
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 12)) if m else 0
    fill = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    n_dependent = draw(st.integers(0, m))
    n_zero_rows = draw(st.integers(0, m))
    zero_rhs = draw(st.booleans())
    inconsistent = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero = 0

    def entry():
        return _scalar(rng, gauss) if rng.random() < fill else zero

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [zero if zero_rhs else entry() for _ in range(m)]
    for idx, k in enumerate(rng.sample(range(m), n_dependent)):
        # row k := a*row_i + b*row_j, rhs too; the first one off by one
        # when the system is to be inconsistent
        i, j = rng.randrange(m), rng.randrange(m)
        a, b = _scalar(rng, gauss), _scalar(rng, gauss)
        rows[k] = [normal(a * u + b * v) for u, v in zip(rows[i], rows[j])]
        rhs[k] = normal(a * rhs[i] + b * rhs[j] + (1 if inconsistent and idx == 0 else 0))
    for k in rng.sample(range(m), n_zero_rows):
        rows[k] = [zero] * n
        if zero_rhs or not inconsistent:
            rhs[k] = zero
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_matches_dense_on_random_systems(system):
    assert_same(*system)


@pytest.mark.parametrize("one", [1, I_UNIT], ids=["rational", "gaussian"])
def test_edge_cases(one):
    z = 0
    assert_same([], [])
    assert_same([[z]], [z])  # one free variable
    assert_same([[z]], [one])  # 0 = 1
    assert_same([[one, one], [one, one]], [one, one + one])  # parallel rows
    assert_same([[z, one], [one, z]], [one, one])  # needs a swap
    assert_same([[z, z, one], [z, z, one], [one, z, z]], [one, one, z])


def test_no_columns():
    # the dense form indexes rows[0][0] here; the sparse form answers
    assert solve_exact([[], []], [0, 0]) == ([], True)
    assert solve_exact([[], []], [0, 1]) is None


@pytest.mark.parametrize("rows, rhs, want", [
    ([[2, 1], [1, 3]], [1, 2], [Fraction(1, 5), Fraction(3, 5)]),
    ([[2, 0], [0, 4]], [4, 2], [2, Fraction(1, 2)]),
    ([[3, 3], [1, 2]], [6, 3], [1, 1]),
])
def test_all_int_rows_divide_exactly(rows, rhs, want):
    # an int `/` in the pivot division would give floats here
    x, unique = solve_exact(rows, rhs)
    assert unique and x == want
    assert_same(rows, rhs)  # normal form, no float


# ------------------------------------------- every system moser / bogo build


def _recorded_systems(monkeypatch, module, build):
    seen = []

    def record(rows, rhs):
        seen.append((rows, rhs))
        return solve_exact(rows, rhs)

    monkeypatch.setattr(module, "solve_exact", record)
    build()
    assert seen
    return seen


@pytest.mark.parametrize("N", range(5, 18, 2))
def test_matches_dense_on_moser_systems(monkeypatch, N):
    def build():
        split = moser.square_and_split(N)
        flow = moser.x_flow(N // 2)
        for block in (split.odd_deleted, split.even_deleted):
            moser.identify_jacobi(block, flow)

    systems_ = _recorded_systems(monkeypatch, moser, build)
    assert len(systems_) == 2 * (N // 2)  # one per generator of both blocks
    for rows, rhs in systems_:
        assert_same(rows, rhs)


@pytest.mark.parametrize("type_", "ABCD")
def test_matches_dense_on_bogo_systems(monkeypatch, type_):
    def build():
        for rank in range(3 if type_ == "D" else 1, 9):
            bogo.root_data(type_, rank)

    for rows, rhs in _recorded_systems(monkeypatch, bogo, build):
        assert_same(rows, rhs)

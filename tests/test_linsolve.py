"""The sparse exact solver against the dense Gauss-Jordan elimination it replaced.

The dense form below is the oracle: the same pivot rule over full rows.
Equality is exact, for the solution, the uniqueness flag and the type of
every returned scalar.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra import bogo, moser
from todavolterra._linsolve import solve_exact
from todavolterra.polyalg import GaussianRational


def _is_zero(x) -> bool:
    return not x


def dense_solve_exact(rows, rhs):
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
    assert [type(v) for v in x] == [type(v) for v in x_want]


# ------------------------------------------------------------- hypothesis


def _scalar(rng, gauss):
    def part():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    if not gauss:
        return part()
    return GaussianRational(part(), part() if rng.random() < 0.7 else Fraction(0))


@st.composite
def systems(draw):
    """Small systems over Q or Q(i), sparse or dense, with dependent rows
    (consistent or not), all-zero rows and zero right-hand sides."""
    gauss = draw(st.booleans())
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 12)) if m else 0
    fill = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    n_dependent = draw(st.integers(0, m))
    n_zero_rows = draw(st.integers(0, m))
    zero_rhs = draw(st.booleans())
    inconsistent = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero = _scalar(rng, gauss) * 0

    def entry():
        return _scalar(rng, gauss) if rng.random() < fill else zero

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [zero if zero_rhs else entry() for _ in range(m)]
    for idx, k in enumerate(rng.sample(range(m), n_dependent)):
        # row k := a*row_i + b*row_j, rhs too; the first one off by one
        # when the system is to be inconsistent
        i, j = rng.randrange(m), rng.randrange(m)
        a, b = _scalar(rng, gauss), _scalar(rng, gauss)
        rows[k] = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        rhs[k] = a * rhs[i] + b * rhs[j] + (1 if inconsistent and idx == 0 else 0)
    for k in rng.sample(range(m), n_zero_rows):
        rows[k] = [zero] * n
        if zero_rhs or not inconsistent:
            rhs[k] = zero
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_matches_dense_on_random_systems(system):
    assert_same(*system)


@pytest.mark.parametrize("gauss", [False, True])
def test_edge_cases(gauss):
    z = GaussianRational.of(0) if gauss else Fraction(0)
    one = z + 1
    assert_same([], [])
    assert_same([[z]], [z])  # one free variable
    assert_same([[z]], [one])  # 0 = 1
    assert_same([[one, one], [one, one]], [one, one + one])  # parallel rows
    assert_same([[z, one], [one, z]], [one, one])  # needs a swap
    assert_same([[z, z, one], [z, z, one], [one, z, z]], [one, one, z])


def test_no_columns():
    # the dense form indexes rows[0][0] here; the sparse form answers
    assert solve_exact([[], []], [Fraction(0), Fraction(0)]) == ([], True)
    assert solve_exact([[], []], [Fraction(0), Fraction(1)]) is None


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

"""The sparse exact solver against the dense Gauss-Jordan elimination it replaced.

The dense form below is the oracle: Gauss-Jordan over full rows, in
`Fraction` arithmetic (rational entries are converted first, so its `/` is
exact even on all-int rows), for one right-hand side at a time, pivoting on
the first nonzero at or below the current row and swapping it up.  The
sparse solver takes sparse `{row key: value}` columns and every right-hand
side at once and never moves a row; `to_columns` turns a dense system into
that form and `to_rows` turns it back, rows in sorted-key order.  The
reduced row echelon form is unique, so the two pivot rules give one answer:
the solver must return None exactly when the oracle finds some right-hand
side inconsistent, and otherwise each solution and the uniqueness flag must
equal the oracle's, and so must its answer on the same system with its row
keys first seen in another order (`shuffled`).  Every returned scalar must
be in normal form (an `int` exactly when integral, a `GaussianRational`
only when its imaginary part is nonzero, never a float), also where the
rows mix rational and Gaussian entries.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra import bogo, moser
from todavolterra._linsolve import solve_exact
from todavolterra.polyalg import GaussianRational, I_UNIT, Poly, normal

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


def to_columns(rows, rhs):
    """Dense rows and right-hand sides as the solver's `{row: value}` maps,
    one per column and one per right-hand side; zero entries are kept."""
    n = len(rows[0]) if rows else 0
    return ([{i: r[c] for i, r in enumerate(rows)} for c in range(n)],
            [dict(enumerate(b)) for b in rhs])


def to_rows(columns, rhs):
    """Sparse columns and right-hand sides as dense rows, in sorted-key order."""
    keys = sorted(set().union(*columns, *rhs))
    return ([[col.get(k, 0) for col in columns] for k in keys],
            [[b.get(k, 0) for k in keys] for b in rhs])


def solve_copied(columns, rhs):
    """solve_exact, asserting that it leaves its inputs as they were."""
    before = ([dict(c) for c in columns], [dict(b) for b in rhs])
    got = solve_exact(columns, rhs)
    assert (columns, rhs) == before
    return got


def assert_same(rows, rhs):
    """`rhs` is a list of dense right-hand sides, each compared with the oracle."""
    check_against_oracle(*to_columns(rows, rhs), rows, rhs)


def assert_same_sparse(columns, rhs):
    """A sparse system against the oracle on its dense rows in sorted-key order."""
    return check_against_oracle(columns, rhs, *to_rows(columns, rhs))


def shuffled(columns, rhs, rng):
    """The same system with every map rebuilt with its entries in a shuffled
    order, so that the solver first sees the row keys in another order."""
    def rebuilt(m):
        items = list(m.items())
        rng.shuffle(items)
        return dict(items)

    return [rebuilt(c) for c in columns], [rebuilt(b) for b in rhs]


def check_against_oracle(columns, rhs, rows, dense_rhs):
    got = solve_copied(columns, rhs)
    wants = [dense_solve_exact(rows, b) for b in dense_rhs]
    if None in wants:
        assert got is None
        return got
    assert got is not None
    xs, unique = got
    assert len(xs) == len(rhs)
    for x, (x_want, unique_want) in zip(xs, wants):
        assert unique == unique_want
        assert x == x_want
        for v in x:
            assert_normal(v)
    return got


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
    mixed, sparse or dense, with dependent rows, all-zero rows and zero
    right-hand sides, and 1-3 right-hand sides of which at most one, `bad`,
    is made inconsistent."""
    gauss = draw(st.booleans())
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 12)) if m else 0
    n_rhs = draw(st.integers(1, 3))
    fill = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    n_dependent = draw(st.integers(0, m))
    n_zero_rows = draw(st.integers(0, m))
    zero_rhs = draw(st.booleans())
    inconsistent = draw(st.booleans())
    bad = draw(st.integers(0, n_rhs - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero = 0

    def entry():
        return _scalar(rng, gauss) if rng.random() < fill else zero

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [[zero if zero_rhs else entry() for _ in range(m)] for _ in range(n_rhs)]
    for idx, k in enumerate(rng.sample(range(m), n_dependent)):
        # row k := a*row_i + b*row_j, each rhs too; the first one off by one
        # in rhs `bad` when the system is to be inconsistent
        i, j = rng.randrange(m), rng.randrange(m)
        a, b = _scalar(rng, gauss), _scalar(rng, gauss)
        rows[k] = [normal(a * u + b * v) for u, v in zip(rows[i], rows[j])]
        for t, r in enumerate(rhs):
            off = 1 if inconsistent and idx == 0 and t == bad else 0
            r[k] = normal(a * r[i] + b * r[j] + off)
    for k in rng.sample(range(m), n_zero_rows):
        rows[k] = [zero] * n
        for t, r in enumerate(rhs):
            if zero_rhs or not inconsistent or t != bad:
                r[k] = zero
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_matches_dense_on_random_systems(system):
    assert_same(*system)


@settings(max_examples=200, deadline=None)
@given(systems(), st.integers(0, 2**32 - 1))
def test_row_order_does_not_change_the_result(system, seed):
    columns, rhs = to_columns(*system)
    got = solve_exact(*shuffled(columns, rhs, random.Random(seed)))
    assert got == solve_exact(columns, rhs)


@pytest.mark.parametrize("one", [1, I_UNIT], ids=["rational", "gaussian"])
def test_edge_cases(one):
    z = 0
    assert_same([], [[]])
    assert_same([[z]], [[z]])  # one free variable
    assert_same([[z]], [[one]])  # 0 = 1
    assert_same([[one, one], [one, one]], [[one, one + one]])  # parallel rows
    assert_same([[z, one], [one, z]], [[one, one]])  # needs a swap
    assert_same([[z, z, one], [z, z, one], [one, z, z]], [[one, one, z]])
    assert_same([[z, one], [one, z]], [[one, z], [z, one], [one, one]])  # three at once


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_one_inconsistent_rhs_among_consistent_ones(bad):
    # rows 1 and 2 are equal, so b is consistent iff b[1] == b[2]
    rows = [[1, 2, 0], [0, 1, I_UNIT], [0, 1, I_UNIT], [1, 0, 0]]
    good = [[1, 2, 2, 0], [0, Fraction(1, 3), Fraction(1, 3), 5], [I_UNIT, 0, 0, 1]]
    for b in good:
        assert dense_solve_exact(rows, b) is not None
    assert solve_exact(*to_columns(rows, good)) is not None
    rhs = [list(b) for b in good]
    rhs[bad][2] = normal(rhs[bad][2] + 1)
    assert dense_solve_exact(rows, rhs[bad]) is None
    assert_same(rows, rhs)


def test_no_columns():
    # the dense form indexes rows[0][0] here; the sparse form answers
    assert solve_exact([], [{}]) == ([[]], True)
    assert solve_exact([], [{0: 0, 1: 0}]) == ([[]], True)
    assert solve_exact([], [{1: 1}]) is None
    assert solve_exact([], [{}, {1: 1}]) is None


# ----------------------------------------------------- the sparse input form


@pytest.mark.parametrize("one", [1, I_UNIT], ids=["rational", "gaussian"])
def test_keys_with_gaps_inserted_out_of_order(one):
    # rows 2 < 7 < 10 < 40, no map filled in ascending order; the same system
    # with its rows numbered 0..3 in that order gives the same solutions
    columns = [{7: one, 2: 3}, {40: 1, 10: one, 7: 2}, {10: 5, 2: one}]
    # x = (1, 2, 3) and x = (0, 0, 1)
    rhs = [{40: 2, 10: normal(2 * one + 15), 2: normal(3 + 3 * one), 7: normal(one + 4)},
           {40: 0, 10: 5, 2: one}]
    got = assert_same_sparse(columns, rhs)
    assert got == ([[1, 2, 3], [0, 0, 1]], True)
    renumber = {2: 0, 7: 1, 10: 2, 40: 3}
    assert solve_exact([{renumber[k]: v for k, v in c.items()} for c in columns],
                       [{renumber[k]: v for k, v in b.items()} for b in rhs]) == got


def test_key_only_in_a_right_hand_side_is_inconsistent():
    assert solve_copied([{0: 1}, {1: 2}], [{0: 1, 5: 2}]) is None
    assert solve_copied([{0: 1}, {1: 2}], [{0: 1}, {5: 2}]) is None
    # a zero there is no equation at all
    assert solve_copied([{0: 1}, {1: 2}], [{0: 1, 5: 0}]) == ([[1, 0]], True)


def test_explicit_zero_is_ignored():
    assert solve_copied([{0: 1, 1: 0}, {1: 2}], [{0: 3, 1: 4}]) == ([[3, 2]], True)
    assert solve_copied([{0: 0}, {0: 1}], [{0: 5}]) == ([[0, 5]], False)  # a zero pivot
    assert solve_copied([{0: 0}], [{0: 0}]) == ([[0]], False)
    assert solve_copied([{0: 0}], [{0: 1}]) is None  # 0 = 1


def test_empty_column_is_a_free_variable():
    assert solve_copied([{}, {0: 2}], [{0: 4}]) == ([[0, 2]], False)
    assert solve_copied([{0: 2}, {}], [{0: 4}]) == ([[2, 0]], False)
    assert solve_copied([{}], [{}]) == ([[0]], False)


def test_poly_terms_unchanged_by_the_solve():
    # moser passes the live `Poly.packed` maps of its basis and its targets
    vs = ("x1", "x2")
    x1, x2 = Poly.var(vs, "x1"), Poly.var(vs, "x2")
    basis = [Poly.const(vs, 1), x1, x2, x1 * x2, x1 * x1]
    target = (x1 * x2).scale(3) - x1 + Poly.const(vs, 2)
    kept = [Poly(vs, p.terms) for p in basis + [target]]
    (x,), unique = solve_exact([p.packed for p in basis], [target.packed])
    assert (x, unique) == ([2, -1, 0, 3, 0], True)
    assert basis + [target] == kept


@pytest.mark.parametrize("rows, rhs, want", [
    ([[2, 1], [1, 3]], [1, 2], [Fraction(1, 5), Fraction(3, 5)]),
    ([[2, 0], [0, 4]], [4, 2], [2, Fraction(1, 2)]),
    ([[3, 3], [1, 2]], [6, 3], [1, 1]),
])
def test_all_int_rows_divide_exactly(rows, rhs, want):
    # an int `/` in the pivot division would give floats here
    (x,), unique = solve_exact(*to_columns(rows, [rhs]))
    assert unique and x == want
    assert_same(rows, [rhs])  # normal form, no float


# ------------------------------------------- every system moser / bogo build


def _recorded_systems(monkeypatch, module, build):
    seen = []

    def record(columns, rhs):
        seen.append((columns, rhs))
        return solve_exact(columns, rhs)

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
    # one solve per block, with one right-hand side per generator of the block
    split = moser.square_and_split(N)
    assert [len(rhs) for _, rhs in systems_] == [
        2 * block.half_rank for block in (split.odd_deleted, split.even_deleted)]
    for columns, rhs in systems_:
        assert_same_sparse(columns, rhs)


@pytest.mark.parametrize("type_", "ABCD")
def test_matches_dense_on_bogo_systems(monkeypatch, type_):
    def build():
        for rank in range(3 if type_ == "D" else 1, 9):
            bogo.root_data(type_, rank)

    for columns, rhs in _recorded_systems(monkeypatch, bogo, build):
        assert_same_sparse(columns, rhs)


@functools.cache
def _largest_systems():
    """The systems of `moser --N 17, 33, 41` (both blocks) and of `bogo`
    A-D at rank 64, the largest each command solves."""
    seen = []

    def record(columns, rhs):
        seen.append((columns, rhs))
        return solve_exact(columns, rhs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(moser, "solve_exact", record)
        monkeypatch.setattr(bogo, "solve_exact", record)
        for N in (17, 33, 41):
            split, flow = moser.square_and_split(N), moser.x_flow(N // 2)
            for block in (split.odd_deleted, split.even_deleted):
                moser.identify_jacobi(block, flow)
        for type_ in "ABCD":
            bogo.root_data(type_, 64)
    return seen


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_order_does_not_change_the_recorded_results(seed):
    recorded = _largest_systems()
    assert len(recorded) == 10
    rng = random.Random(seed)
    for columns, rhs in recorded:
        assert solve_exact(*shuffled(columns, rhs, rng)) == solve_exact(columns, rhs)

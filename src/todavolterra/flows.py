"""Numerical integration of the lattice flows with conservation monitors.

Polynomial vector fields are compiled to float coefficient arrays and
integrated with fixed-step RK4 by `_kernels.rk4_integrate`, which runs each
field as a generated straight-line Python step, built once per
`CompiledField` and the only evaluator of the field; the step writes every
state straight into its row of the preallocated states array.
Monitors track the drift of the trace Hamiltonians H_k = tr(L^k)/k and of the
characteristic-polynomial coefficients of the Lax matrix along a trajectory;
both are exactly conserved by the flows, so any drift measures integrator
error.  Both are read off the Lax bands, the diagonal d and the edge
products e_i = L[i,i+1] L[i+1,i] gathered straight from the states
(`lax_bands`, by the band rule stated once in `catalog.lax_bands`), on
which the traces and the char poly of a tridiagonal matrix depend.  The
H_k come from the traces tr(L^j), so no H_k is ever expanded as a
polynomial.  The traces of the powers of the tridiagonal matrix with bands
d and e and ones below come from the bands alone (`band_traces`, which
carries only the diagonals of each power that can still reach the main
one): on the Lax bands, or, for the Volterra Lax matrices, which have no
diagonal, on the two parity blocks of L^2, each tridiagonal of about half
the size (`squared_traces`).  The monitors build no dense matrix and call
no BLAS routine, so their values do not depend on the kernel a machine
dispatches to.
The coefficients come from the three-term continuant on d and e, which
stays accurate at every size (Newton's identities on the traces lose
accuracy exponentially in the size).  One loop, `_monitor_values`, takes
the bands one block of `CHARPOLY_BLOCK` states at a time, so the monitors'
memory does not grow with the trajectory, and raises ValueError, with no
numpy warning, when a monitored value is not finite (the Lax powers of a
finite state may overflow); `monitors` keeps running maxima of its drifts,
and the CSV monitors only the rows it writes.  The float cross-check that
the flows commute, `commutation_check`, lives with its tests in
tests/conftest.py.  Systems are parsed `catalog.SystemId`s.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import catalog
from ._kernels import compile_step, rk4_integrate
from .polyalg import GaussianRational
from .poisson import PolyVectorField


class NonFiniteStateError(ValueError):
    def __init__(self, t_last: float):
        super().__init__(f"state left float range; last valid time {t_last}")
        self.t_last = t_last


def _as_float(c) -> float:
    if isinstance(c, GaussianRational):  # in normal form its imaginary part is nonzero
        raise ValueError("cannot compile a polynomial with imaginary coefficients")
    return float(c)


@dataclass(frozen=True, eq=False)
class CompiledField:
    """A polynomial vector field as coefficients, factor lists and component
    pointers (the `_kernels` layout) with its generated RK4 step
    (`_kernels.compile_step`), built once here.

    Compared and hashed by identity: a field-wise `==` would compare numpy
    arrays, which has no single truth value."""

    variables: tuple[str, ...]
    coefs: np.ndarray
    factors: list[list[int]]
    comp_ptr: np.ndarray
    step: Callable = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "step", compile_step(self.coefs, self.factors, self.comp_ptr))

    @property
    def dim(self) -> int:
        return len(self.variables)


def compile_field(vf: PolyVectorField) -> CompiledField:
    coefs: list[float] = []
    factors: list[list[int]] = []
    ptr = [0]
    for comp in vf.components:
        for (positions, exponents), c in comp.sorted_terms():
            coefs.append(_as_float(c))
            factors.append([])
            for k, e in zip(positions, exponents):
                factors[-1] += [k] * e
        ptr.append(len(coefs))
    return CompiledField(vf.variables, np.asarray(coefs, dtype=float), factors,
                         np.asarray(ptr, dtype=np.int64))


@dataclass
class Trajectory:
    """States of an RK4 run on a uniform time grid."""

    variables: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray


def step_count(t_end: float, h: float) -> int:
    """t_end / h as a whole number of RK4 steps, at least 1.

    A ratio off a whole number by more than a relative 1e-9 (float rounding
    of t_end and h stays far below that) would end the run at a time other
    than t_end, so it is rejected instead of rounded.
    """
    ratio = t_end / h
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(
            f"t_end / h = {t_end!r} / {h!r} = {ratio!r} is not a whole number of steps >= 1"
        )
    return n


def integrate(
    vf: PolyVectorField | CompiledField,
    x0,
    t_end: float,
    h: float,
) -> Trajectory:
    """Classical RK4 with fixed step h from t=0 to t_end (deterministic),
    recording the state after every step.

    t_end / h must be a whole number of steps (see `step_count`).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    cf = vf if isinstance(vf, CompiledField) else compile_field(vf)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cf.dim,):
        raise ValueError(f"initial point has shape {x0.shape}, expected ({cf.dim},)")
    n_steps = step_count(t_end, h)
    states, done = rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, float(h), n_steps, cf.step)
    if done < n_steps:
        raise NonFiniteStateError(done * h)
    return Trajectory(cf.variables, np.arange(n_steps + 1) * h, states)


# ------------------------------------------------------------------- monitors


def monitored_hamiltonian_indices(sys: catalog.SystemId) -> list[int]:
    fam, kind, n = sys.family, sys.kind, sys.n
    if fam == "toda" and kind == "a":
        return list(range(1, n + 1))
    if fam == "toda":
        return [2 * k for k in range(1, n + 1)]
    if fam == "volterra" and kind == "a":
        return [2 * k for k in range(1, (n - 1) // 2 + 1)] or [2]
    return [4, 8]


def lax_values(sys: catalog.SystemId, states: np.ndarray) -> np.ndarray:
    """Dense Lax matrices at a batch of states, shape [T, N, N].

    Entries are constants or scaled columns of `states`, gathered directly.
    No monitor reads them (they read `lax_bands`); the tests check the
    monitors against them, and perfbench/tracer.py traces the name.
    """
    column = {v: k for k, v in enumerate(catalog.variables(sys))}
    N = catalog.lax_size(sys)
    out = np.zeros((states.shape[0], N, N))
    for i, j, v, c in catalog.lax_entries(sys):
        out[:, i, j] = c if v is None else c * states[:, column[v]]
    return out


def lax_bands(sys: catalog.SystemId, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bands of the tridiagonal Lax matrix at a batch of states: its
    diagonal d, shape [N, T], and its edge products e_i = L[i,i+1] L[i+1,i],
    shape [N-1, T].

    Each is a signed column of `states`, by the band rule `catalog.lax_bands`
    states; every sign is +-1, so d and e are bitwise those of the dense
    matrices of `lax_values`.  The traces of the powers of L and its char
    poly depend on L only through d and e.
    """
    column = {v: k for k, v in enumerate(catalog.variables(sys))}
    N, T = catalog.lax_size(sys), states.shape[0]
    d, e = np.zeros((N, T)), np.empty((N - 1, T))
    for out, band in zip((d, e), catalog.lax_bands(sys)):
        for i, (c, v) in band.items():  # the Volterra families have no diagonal
            out[i] = c * states[:, column[v]]
    return d, e


def _diagonal_sum(p: np.ndarray) -> np.ndarray:
    """The sum of each column of p [n, b], shape [b], added in the order
    `np.trace` adds a diagonal, numpy's pairwise sum, with whole rows of p
    as the operands and no transposed copy:

    - fewer than 8 rows: a running sum of the rows;
    - up to 128 rows: eight lanes, lane i the running sum of rows i, i + 8,
      ... below the last multiple of 8, folded as
      ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
      rows added in turn;
    - more: the sum of the two halves, split at a multiple of 8, each summed
      by this rule.

    The lanes are one `sum(axis=0)` of p reshaped to [n // 8, 8, b], whose
    inner loop runs along the 8 b row entries, so it adds row by row even
    at b = 1, where a plain `sum(axis=0)` of one lane would add pairwise.
    Like numpy's, each sum starts from +0.0, so a column of -0.0 sums to
    +0.0.
    """
    n, b = p.shape
    if n < 8:
        return p.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _diagonal_sum(p[:half]) + _diagonal_sum(p[half:])
    m = n - n % 8
    r = p[:8] + 0.0 if m == 8 else p[:m].reshape(m // 8, 8, b).sum(axis=0)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in p[m:]:
        total += row
    return total


def carried_width(j: int, k_max: int, n: int) -> int:
    """The widest diagonal of M^j that `band_traces` carries: diagonal o
    (entries (r, r+o)) is nonzero only for |o| <= j, exists only for
    |o| <= n - 1, and reaches the main diagonal of M^k for some k <= k_max
    only if |o| <= k_max - j."""
    return min(j, k_max - j, n - 1)


def band_traces(d: np.ndarray, e: np.ndarray, k_max: int) -> np.ndarray:
    """tr(M^j) for j = 1..k_max, shape [b, k_max], of the tridiagonal
    matrices M with diagonal d [n, b], superdiagonal e [n-1, b] and ones
    below (for toda-a, the Lax matrices themselves).

    Only the diagonals of M^j that can still reach the main diagonal are
    carried (`carried_width`), diagonal o, the entries (r, r+o), as an
    [n - |o|, b] array indexed by min(r, r+o).  One step multiplies by M:
    (M^j)[r, c] = (M^(j-1))[r, c-1] e_(c-1) + (M^(j-1))[r, c] d_c
    + (M^(j-1))[r, c+1], added in the order of a matrix product, with no
    product by a structural zero; tr(M^j) is the sum of diagonal 0.  The
    work is O(b n k_max^2) elementwise, with no [b, n, n] array.
    """
    n, b = d.shape
    traces = np.empty((b, k_max))
    traces[:, 0] = _diagonal_sum(d)
    power = {-1: np.ones((n - 1, b)), 0: d, 1: e}  # the diagonals of M
    for j in range(2, k_max + 1):
        w = carried_width(j, k_max, n)
        nxt = {}
        for o in range(-w, w + 1):
            m, c = n - abs(o), max(o, 0)  # the length and first column of diagonal o
            left, mid, right = power.get(o - 1), power.get(o), power.get(o + 1)
            if mid is None:  # o = +-j, the outermost diagonals: one term each
                nxt[o] = left[:m] * e[c - 1 : c + m - 1] if o > 0 else right[1:]
                continue
            out = mid * d[c : c + m]
            if left is not None:  # for o <= 0 the first entry is in column 0
                s = int(o <= 0)
                out[s:] += left[: m - s] * e[c + s - 1 : c + m - 1]
            if right is not None:  # for o >= 0 the last entry is in column n - 1
                s = int(o < 0)
                out[: len(right) - s] += right[s:]
            nxt[o] = out
        power = nxt
        traces[:, j - 1] = _diagonal_sum(power[0])
    return traces


def square_bands(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bands of L^2 for a Lax matrix L with zero diagonal and edge
    products e [N-1, T]: its diagonal g_p = e_{p-1} + e_p, shape [N, T] (e
    is 0 past either end), and the products f_p = e_p e_{p+1} of its
    entries (p, p+2) and (p+2, p), shape [N-2, T].

    L^2 has no other nonzero entries, so it is two tridiagonal blocks: the
    even sites with diagonal g[0::2] and edge products f[0::2], and the odd
    sites with g[1::2] and f[1::2]."""
    N, T = e.shape[0] + 1, e.shape[1]
    padded = np.zeros((N + 1, T))
    padded[1:N] = e
    return padded[:-1] + padded[1:], e[:-1] * e[1:]


def squared_traces(e: np.ndarray, k_max: int) -> np.ndarray:
    """tr(L^j) for j = 1..k_max, shape [T, k_max], of Lax matrices L with
    zero diagonal and edge products e [N-1, T].

    tr(L^j) = 0 for odd j, and tr(L^2m) is the sum of tr(B^m) over the two
    parity blocks B of L^2 (`square_bands`), so the powers are of blocks of
    about half the size and go half as high."""
    g, f = square_bands(e)
    traces = np.zeros((e.shape[1], k_max))
    if k_max >= 2:
        even = band_traces(g[0::2], f[0::2], k_max // 2)
        odd = band_traces(g[1::2], f[1::2], k_max // 2)
        traces[:, 1::2] = even + odd
    return traces


def lax_traces(sys: catalog.SystemId, d: np.ndarray, e: np.ndarray, k_max: int) -> np.ndarray:
    """tr(L^j) for j = 1..k_max from the bands of `lax_bands`, shape [T, k_max]:
    `squared_traces` for the Volterra Lax matrices, which have no diagonal
    (`catalog.lax_bands`), and `band_traces(d, e)` for the others."""
    if not catalog.lax_bands(sys)[0]:
        return squared_traces(e, k_max)
    return band_traces(d, e, k_max)


def charpoly_coefficients(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial coefficients c_1..c_N of tridiagonal
    matrices from their bands, shape [T, N].

    det(x - M) = x^N + c_1 x^{N-1} + ... + c_N for the diagonal d [N, T] and
    edge products e [N-1, T] of `lax_bands`, from the continuant
    p_i = (x - d_i) p_{i-1} - e_{i-1} p_{i-2}: O(N^2) per matrix, no
    eigenvalue solver.  Row k of a p_i array is its coefficient of x^{i-k}
    along the batch, so x p_{i-1} is p_{i-1} itself and the recursion only
    shifts the correction terms; rows past k = i are still zero and are
    skipped.  Every operation is elementwise along the batch, so a matrix
    gets the same coefficients in a batch of any size.
    """
    N, T = d.shape
    prev, cur = np.zeros((N + 1, T)), np.zeros((N + 1, T))
    cur[0] = 1.0
    for k in range(N):
        nxt = cur.copy()
        nxt[1 : k + 2] -= d[k] * cur[: k + 1]
        if k:
            nxt[2 : k + 2] -= e[k - 1] * prev[:k]
        prev, cur = cur, nxt
    return cur[1:].T


def hamiltonian_values(sys: catalog.SystemId, k: int, states: np.ndarray) -> np.ndarray:
    """H_k = tr(L^k)/k along `states`, shape [T], by the monitors' route."""
    return lax_traces(sys, *lax_bands(sys, states), k)[:, k - 1] / k


# States per monitor block.  A block's bands, the diagonals `band_traces`
# carries for two consecutive powers and its continuant are the monitors'
# only per-state temporaries, so their memory does not grow with the
# trajectory (the `simulate` benchmark workload peaks at about 32 MB).  The
# band recursion makes a fixed number of numpy calls per block.  On the
# `simulate` benchmark calls (seed 1, one pinned CPU, min of 15), blocks
# of 128 states took 4.6 times the monitor time of blocks of 1,024 on
# toda-a:3 and 3.4 times on volterra-a:11; blocks of 2,048 were 25-29 %
# faster on toda-a:3 and 15-16 % slower on volterra-a:11, blocks of 4,096
# as fast on toda-a:3 and 29-32 % slower on volterra-a:11.  The toda-a:8
# CSV monitors only its 51 written rows, one block at any size.
CHARPOLY_BLOCK = 1024


def _monitor_values(sys: catalog.SystemId, states: np.ndarray):
    """Per block of `CHARPOLY_BLOCK` states: the monitored H_k ([b, K], in
    `monitored_hamiltonian_indices` order), their drifts from the first
    state and the char-poly coefficient drifts ([b, N]), each matrix on its
    own.  A drift that is not finite (as the first state's |x0 - x0| is for
    a value that is not) raises ValueError, with no numpy warning."""
    ks = np.array(monitored_hamiltonian_indices(sys))
    first = None
    for s in range(0, len(states), CHARPOLY_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            d, e = lax_bands(sys, states[s : s + CHARPOLY_BLOCK])
            h_vals = lax_traces(sys, d, e, int(ks.max()))[:, ks - 1] / ks
            drifts = h_vals.copy(), charpoly_coefficients(d, e)
            del d, e
            first = first or [v[0].copy() for v in drifts]
            for v, v0 in zip(drifts, first):  # in place: no temporaries beside the yielded arrays
                np.abs(np.subtract(v, v0, out=v), out=v)
        if not all(np.isfinite(v).all() for v in drifts):
            raise ValueError(
                "a monitored H_k or char-poly value is not finite (the powers of the Lax "
                "matrix left float range); start from a smaller initial point")
        yield h_vals, *drifts


def monitors(traj: Trajectory, sys: catalog.SystemId) -> dict:
    """The max drift of each monitored H_k, keyed by k as text, and of each
    char-poly coefficient, as running maxima over the blocks of
    `_monitor_values`: the "monitors" object of `simulate`'s JSON."""
    h_max = cp_max = 0.0
    for _, h_drift, cp_drift in _monitor_values(sys, traj.states):
        h_max = np.maximum(h_max, h_drift.max(axis=0))
        cp_max = np.maximum(cp_max, cp_drift.max(axis=0))
    ks = map(str, monitored_hamiltonian_indices(sys))
    return {"hamiltonian_drift": dict(zip(ks, h_max.tolist())), "charpoly_drift": cp_max.tolist()}


# ---------------------------------------------------------------------- csv


def trajectory_csv(traj: Trajectory, sys: catalog.SystemId, decimate: int = 1) -> str:
    """CSV text: t, <vars...>, <H_k...>, <charpoly drifts...> per row, for
    every `decimate`-th state and always the last one.  Only the written
    rows are monitored, one block of `_monitor_values` at a time."""
    ks = monitored_hamiltonian_indices(sys)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t", *traj.variables, *[f"H{k}" for k in ks],
         *[f"c{j+1}_drift" for j in range(catalog.lax_size(sys))]]
    )
    last = traj.states.shape[0] - 1
    rows = [*range(0, last, decimate), last]
    states = traj.states[rows]
    written = zip(traj.times[rows].tolist(), map(np.ndarray.tolist, states))
    for h_vals, _, cp_drift in _monitor_values(sys, states):
        # `written` last: zip stops at the block's end without taking a row
        for h, drift, (t, x) in zip(h_vals.tolist(), cp_drift.tolist(), written):
            writer.writerow([repr(v) for v in (t, *x, *h, *drift)])
    return buf.getvalue()

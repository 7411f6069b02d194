"""Numerical integration of the lattice flows with conservation monitors.

Polynomial vector fields are compiled to float coefficient arrays and
integrated with fixed-step RK4 by `_kernels.rk4_integrate`, which runs each
field as a generated straight-line Python step, built once per
`CompiledField` and the only evaluator of the field; every step's state is
recorded.
Monitors track the drift of the trace Hamiltonians H_k = tr(L^k)/k and of the
characteristic-polynomial coefficients of the Lax matrix along a trajectory;
both are exactly conserved by the flows, so any drift measures integrator
error.  Both are read off the Lax bands, the diagonal d and the edge
products e_i = L[i,i+1] L[i+1,i] gathered straight from the states
(`lax_bands`, by the band rule stated once in `catalog.lax_bands`), on
which the traces and the char poly of a tridiagonal matrix depend.  The
H_k come from the traces tr(L^j), so no H_k is ever expanded as a
polynomial: from the powers of the tridiagonal matrix with bands d and e
and ones below, or, for the Volterra Lax matrices, which have no diagonal,
from the two parity blocks of L^2, each tridiagonal of about half the size
(`squared_traces`).  The coefficients come from the
three-term continuant on d and e, which stays accurate at every size
(Newton's identities on the traces lose accuracy exponentially in the
size).  The bands are taken one block of `CHARPOLY_BLOCK` states at a time
and the drifts kept as running maxima, so the monitors' memory does not
grow with the trajectory; the CSV monitors only the rows it writes.  The
float cross-check that the flows commute, `commutation_check`, lives with
its tests in tests/conftest.py.  Systems are parsed `catalog.SystemId`s.
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


@dataclass
class DriftReport:
    hamiltonian_drift: dict[int, float]
    charpoly_drift: list[float]

    def to_json_dict(self) -> dict:
        return {
            "hamiltonian_drift": {str(k): v for k, v in self.hamiltonian_drift.items()},
            "charpoly_drift": self.charpoly_drift,
        }


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


def tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The matrices with diagonal d [n, T], superdiagonal e [n-1, T] and
    ones below, shape [T, n, n]: for toda-a, the Lax matrices themselves."""
    n, T = d.shape
    i = np.arange(n)
    out = np.zeros((T, n, n))
    out[:, i, i] = d.T
    out[:, i[:-1], i[1:]] = e.T
    out[:, i[1:], i[:-1]] = 1.0
    return out


def power_traces(mats: np.ndarray, k_max: int) -> np.ndarray:
    """tr(M^j) for j = 1..k_max over a batch of matrices, shape [T, k_max]."""
    traces = np.empty((mats.shape[0], k_max))
    traces[:, 0] = np.trace(mats, axis1=1, axis2=2)
    power = mats
    for j in range(1, k_max):
        power = power @ mats
        traces[:, j] = np.trace(power, axis1=1, axis2=2)
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
        even = power_traces(tridiagonal(g[0::2], f[0::2]), k_max // 2)
        odd = power_traces(tridiagonal(g[1::2], f[1::2]), k_max // 2)
        traces[:, 1::2] = even + odd
    return traces


def lax_traces(sys: catalog.SystemId, d: np.ndarray, e: np.ndarray, k_max: int) -> np.ndarray:
    """tr(L^j) for j = 1..k_max from the bands of `lax_bands`, shape [T, k_max]:
    `squared_traces` for the Volterra Lax matrices, which have no diagonal
    (`catalog.lax_bands`), and the powers of `tridiagonal(d, e)` for the others."""
    if not catalog.lax_bands(sys)[0]:
        return squared_traces(e, k_max)
    return power_traces(tridiagonal(d, e), k_max)


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


# States per monitor block.  A block's bands, the matrices `lax_traces`
# builds from them, their powers and its continuant are the monitors' only
# per-state temporaries, so their memory does not grow with the trajectory:
# the `simulate` benchmark workload peaked at 60.4 MB with whole-trajectory
# [T, N, N] arrays, at 34.7 MB with blocks of 1,024 dense Lax matrices and
# at 33.0 MB with blocks of 1,024 states read as bands.  Monitor times with
# blocks of 128 to 2,048 states showed no consistent order.
CHARPOLY_BLOCK = 1024


def _monitor_values(sys: catalog.SystemId, states: np.ndarray):
    """Per block of `CHARPOLY_BLOCK` states, in order: the monitored H_k
    ([b, K], k in `monitored_hamiltonian_indices` order) and the char-poly
    coefficients ([b, N]), both from one set of Lax bands.

    Each matrix is computed on its own, so a state gets the same values in
    a block of any size."""
    ks = np.array(monitored_hamiltonian_indices(sys))
    for s in range(0, len(states), CHARPOLY_BLOCK):
        d, e = lax_bands(sys, states[s : s + CHARPOLY_BLOCK])
        yield lax_traces(sys, d, e, int(ks.max()))[:, ks - 1] / ks, charpoly_coefficients(d, e)


def monitors(traj: Trajectory, sys: catalog.SystemId) -> DriftReport:
    """Max drift of the trace Hamiltonians and char-poly coefficients, as
    running maxima over the blocks of `_monitor_values`."""
    first = drift = None
    for values in _monitor_values(sys, traj.states):
        if first is None:
            first = [v[0] for v in values]
            drift = [np.zeros(v.shape[1]) for v in values]
        # np.maximum, unlike max(), keeps a NaN drift
        drift = [np.maximum(d, np.max(np.abs(v - f), axis=0))
                 for d, v, f in zip(drift, values, first)]
    h_drift, cp_drift = (d.tolist() for d in drift)
    return DriftReport(dict(zip(monitored_hamiltonian_indices(sys), h_drift)), cp_drift)


# ---------------------------------------------------------------------- csv


def trajectory_csv(traj: Trajectory, sys: catalog.SystemId, decimate: int = 1) -> str:
    """CSV text: t, <vars...>, <H_k...>, <charpoly drifts...> per row, for
    every `decimate`-th state and always the last one.  Only the written
    rows are monitored."""
    ks = monitored_hamiltonian_indices(sys)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t", *traj.variables, *[f"H{k}" for k in ks],
         *[f"c{j+1}_drift" for j in range(catalog.lax_size(sys))]]
    )
    last = traj.states.shape[0] - 1
    rows = [*range(0, last, decimate), last]
    blocks = _monitor_values(sys, traj.states[rows])
    for s, (h_vals, coeffs) in zip(range(0, len(rows), CHARPOLY_BLOCK), blocks):
        if s == 0:
            first = coeffs[0]
        block = rows[s : s + CHARPOLY_BLOCK]
        columns = zip(traj.times[block].tolist(), traj.states[block].tolist(),
                      h_vals.tolist(), np.abs(coeffs - first).tolist())
        for t, x, h, drift in columns:
            writer.writerow([repr(v) for v in (t, *x, *h, *drift)])
    return buf.getvalue()

"""Numerical integration of the lattice flows with conservation monitors.

Polynomial vector fields are compiled to float coefficient arrays and
integrated with fixed-step RK4 by `_kernels.rk4_integrate`, which runs each
field as a generated straight-line Python step, built once per
`CompiledField` and the only evaluator of the field; every step's state is
recorded.
Monitors track the drift of the trace Hamiltonians H_k = tr(L^k)/k and of the
characteristic-polynomial coefficients of the Lax matrix along a trajectory;
both are exactly conserved by the flows, so any drift measures integrator
error.  Both are read off one batch of float Lax matrices: the H_k from the
traces tr(L^j), so no H_k is ever expanded as a polynomial, and the
coefficients from the three-term continuant of the tridiagonal Lax matrix,
which stays accurate at every size (Newton's identities on the traces lose
accuracy exponentially in the size).  The float cross-check that the flows
commute, `commutation_check`, lives with its tests in tests/conftest.py.
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


class NonFiniteStateError(RuntimeError):
    def __init__(self, t_last: float):
        super().__init__(f"state left float range; last valid time {t_last}")
        self.t_last = t_last


def _as_float(c) -> float:
    if isinstance(c, GaussianRational):
        if c.im != 0:
            raise ValueError("cannot compile a polynomial with imaginary coefficients")
        return float(c.re)
    return float(c)


@dataclass(frozen=True, eq=False)
class CompiledField:
    """A polynomial vector field in CSR layout with its generated RK4 step
    (`_kernels.compile_step`), built once here.

    Compared and hashed by identity: a field-wise `==` would compare numpy
    arrays, which has no single truth value."""

    variables: tuple[str, ...]
    coefs: np.ndarray
    expts: np.ndarray
    comp_ptr: np.ndarray
    step: Callable = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "step", compile_step(self.coefs, self.expts, self.comp_ptr))

    @property
    def dim(self) -> int:
        return len(self.variables)


def compile_field(vf: PolyVectorField) -> CompiledField:
    coefs: list[float] = []
    expts: list[tuple[int, ...]] = []
    ptr = [0]
    for comp in vf.components:
        for e, c in comp.sorted_terms():
            coefs.append(_as_float(c))
            expts.append(e)
        ptr.append(len(coefs))
    dim = len(vf.variables)
    return CompiledField(
        vf.variables,
        np.asarray(coefs, dtype=float),
        np.asarray(expts, dtype=np.int64).reshape(len(coefs), dim),
        np.asarray(ptr, dtype=np.int64),
    )


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
    states, done = rk4_integrate(cf.coefs, cf.expts, cf.comp_ptr, x0, float(h), n_steps, cf.step)
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

    @property
    def max_hamiltonian_drift(self) -> float:
        return max(self.hamiltonian_drift.values()) if self.hamiltonian_drift else 0.0

    @property
    def max_charpoly_drift(self) -> float:
        return max(self.charpoly_drift) if self.charpoly_drift else 0.0

    def to_json_dict(self) -> dict:
        return {
            "hamiltonian_drift": {str(k): v for k, v in self.hamiltonian_drift.items()},
            "charpoly_drift": self.charpoly_drift,
        }


def lax_values(sys: catalog.SystemId | str, states: np.ndarray) -> np.ndarray:
    """Dense Lax matrices along a trajectory, shape [T, N, N].

    Entries are constants or scaled columns of `states`, gathered directly.
    """
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    column = {v: k for k, v in enumerate(catalog.variables(sys))}
    N = catalog.lax_size(sys)
    out = np.zeros((states.shape[0], N, N))
    for i, j, v, c in catalog.lax_entries(sys):
        out[:, i, j] = c if v is None else c * states[:, column[v]]
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


# Matrices per continuant block.  Whole-trajectory temporaries leave the heap
# larger for the next call: the `simulate` benchmark workload peaked at
# 61.7 MB that way and at 60.4 MB with blocks of 1,024; blocks of 128-256
# saved under 0.5 MB more and cost 1-2 ms per call.
CHARPOLY_BLOCK = 1024


def charpoly_coefficients(mats: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial coefficients c_1..c_N of tridiagonal matrices.

    det(x - M) = x^N + c_1 x^{N-1} + ... + c_N over a batch [T, N, N], from
    the continuant p_i = (x - d_i) p_{i-1} - e_{i-1} p_{i-2} with d_i = M[i,i]
    and e_i = M[i,i+1] M[i+1,i]: O(N^2) per matrix, no eigenvalue solver.
    Row k of a p_i array is its coefficient of x^{i-k} along the batch, so
    x p_{i-1} is p_{i-1} itself and the recursion only shifts the correction
    terms; rows past k = i are still zero and are skipped.
    """
    T, N, _ = mats.shape
    out = np.empty((T, N))
    i = np.arange(N - 1)
    for s in range(0, T, CHARPOLY_BLOCK):
        m = mats[s : s + CHARPOLY_BLOCK]
        d = np.ascontiguousarray(np.diagonal(m, axis1=1, axis2=2).T)
        e = np.ascontiguousarray((m[:, i, i + 1] * m[:, i + 1, i]).T)
        prev, cur = np.zeros((N + 1, len(m))), np.zeros((N + 1, len(m)))
        cur[0] = 1.0
        for k in range(N):
            nxt = cur.copy()
            nxt[1 : k + 2] -= d[k] * cur[: k + 1]
            if k:
                nxt[2 : k + 2] -= e[k - 1] * prev[:k]
            prev, cur = cur, nxt
        out[s : s + CHARPOLY_BLOCK] = cur[1:].T
    return out


def hamiltonian_values(sys: catalog.SystemId | str, k: int, states: np.ndarray) -> np.ndarray:
    """H_k = tr(L^k)/k along `states`, shape [T]."""
    return power_traces(lax_values(sys, states), k)[:, k - 1] / k


def _monitor_values(sys: catalog.SystemId, states: np.ndarray):
    """({k: H_k along states}, char-poly coefficients) from one set of Lax matrices."""
    ks = monitored_hamiltonian_indices(sys)
    mats = lax_values(sys, states)
    traces = power_traces(mats, max(ks))
    return {k: traces[:, k - 1] / k for k in ks}, charpoly_coefficients(mats)


def monitors(traj: Trajectory, sys: catalog.SystemId | str) -> DriftReport:
    """Max drift of the trace Hamiltonians and char-poly coefficients."""
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    h_vals, coeffs = _monitor_values(sys, traj.states)
    h_drift = {k: float(np.max(np.abs(vals - vals[0]))) for k, vals in h_vals.items()}
    cp_drift = [float(np.max(np.abs(coeffs[:, k] - coeffs[0, k]))) for k in range(coeffs.shape[1])]
    return DriftReport(h_drift, cp_drift)


# ---------------------------------------------------------------------- csv


def trajectory_csv(
    traj: Trajectory, sys: catalog.SystemId | str, decimate: int = 1
) -> str:
    """CSV text: t, <vars...>, <H_k...>, <charpoly drifts...> per row, for
    every `decimate`-th state and always the last one."""
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    h_vals, coeffs = _monitor_values(sys, traj.states)
    ks = list(h_vals)
    drifts = np.abs(coeffs - coeffs[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t", *traj.variables, *[f"H{k}" for k in ks], *[f"c{j+1}_drift" for j in range(coeffs.shape[1])]]
    )
    last = traj.states.shape[0] - 1
    for row in [*range(0, last, decimate), last]:
        writer.writerow(
            [repr(float(traj.times[row]))]
            + [repr(float(x)) for x in traj.states[row]]
            + [repr(float(h_vals[k][row])) for k in ks]
            + [repr(float(d)) for d in drifts[row]]
        )
    return buf.getvalue()

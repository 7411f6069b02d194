"""Numerical integration of the lattice flows with conservation monitors.

Polynomial vector fields are compiled to float coefficient arrays and
integrated with fixed-step RK4 by `_kernels.rk4_integrate`, which runs each
field as a generated straight-line Python step, built once per
`CompiledField` and the only evaluator of the field; every step's state is
recorded.
Monitors track the drift of the trace Hamiltonians H_k = tr(L^k)/k and of the
characteristic-polynomial coefficients of the Lax matrix along a trajectory;
both are exactly conserved by the flows, so any drift measures integrator
error.  Both are read from one set of traces tr(L^j) of the float Lax
matrices, so no H_k is ever expanded as a polynomial.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import catalog
from ._kernels import compile_step, rk4_integrate
from .polyalg import GaussianRational, Poly, poly_matrix_mul, poly_matrix_power
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


@dataclass(frozen=True)
class CompiledField:
    """A polynomial vector field in CSR layout with its generated RK4 step
    (`_kernels.compile_step`), built once here."""

    variables: tuple[str, ...]
    coefs: np.ndarray
    expts: np.ndarray
    comp_ptr: np.ndarray
    step: Callable = field(init=False, repr=False, compare=False)

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


# ------------------------------------------------------------------ lax flows


def _strict_upper(M, zero):
    n = len(M)
    return [[M[i][j] if j > i else zero for j in range(n)] for i in range(n)]


def lax_rhs(sys: catalog.SystemId | str, k: int) -> PolyVectorField:
    """Matrix flow d/dt L = [L, (L^k)_+], projected onto the phase variables.

    (.)_+ is the strictly upper triangular part; with this convention the
    k = 1 commutator reproduces hamiltonian_vf(pi1, H2) exactly, and in
    general [L, (L^k)_+] is the pi1-Hamiltonian flow of H_{k+1}.  The
    commutator is checked to stay inside the system's Lax template (zero
    where the template is constant, mirror-consistent where entries repeat).
    """
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    if k < 1:
        raise ValueError("power must be >= 1")
    L = catalog.lax(sys)
    vars_ = L[0][0].variables
    zero = Poly.zero(vars_)
    P = poly_matrix_power(L, k) if k > 1 else L
    B = _strict_upper(P, zero)
    C = [
        [x - y for x, y in zip(row_lb, row_bl)]
        for row_lb, row_bl in zip(poly_matrix_mul(L, B), poly_matrix_mul(B, L))
    ]
    positions = _template_positions(sys)
    comps: dict[str, Poly] = {}
    covered = set()
    for name, slots in positions.items():
        ref = None
        for (i, j, scale) in slots:
            covered.add((i, j))
            value = C[i][j].scale(Fraction(1, scale) if scale != 1 else 1)
            if ref is None:
                ref = value
            elif ref != value:
                raise ValueError(
                    f"commutator is inconsistent across template slots of {name}"
                )
        comps[name] = ref
    N = len(L)
    for i in range(N):
        for j in range(N):
            if (i, j) not in covered and not C[i][j].is_zero:
                raise ValueError("commutator leaves the phase-space template")
    return PolyVectorField(vars_, [comps[v] for v in vars_])


def _template_positions(sys: catalog.SystemId):
    """Where each variable sits in the Lax template: {var: [(i, j, scale)]}."""
    out: dict[str, list[tuple[int, int, int]]] = {v: [] for v in catalog.variables(sys)}
    for i, j, v, c in catalog.lax_entries(sys):
        if v is not None:
            out[v].append((i, j, c))
    return out


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


def _newton_coefficients(traces: np.ndarray) -> np.ndarray:
    """c_1..c_N of det(x - M) = x^N + c_1 x^{N-1} + ... from tr(M^1..M^N)."""
    T, N = traces.shape
    coeffs = np.empty((T, N))
    for k in range(1, N + 1):
        acc = traces[:, k - 1].copy()
        for j in range(1, k):
            acc += coeffs[:, j - 1] * traces[:, k - j - 1]
        coeffs[:, k - 1] = -acc / k
    return coeffs


def charpoly_coefficients(mats: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial coefficients c_1..c_N for a batch of matrices.

    Faddeev-LeVerrier via Newton's identities on batched traces of powers;
    deterministic, no eigenvalue solver.
    """
    return _newton_coefficients(power_traces(mats, mats.shape[1]))


def hamiltonian_values(sys: catalog.SystemId | str, k: int, states: np.ndarray) -> np.ndarray:
    """H_k = tr(L^k)/k along `states`, shape [T]."""
    return power_traces(lax_values(sys, states), k)[:, k - 1] / k


def _monitor_values(sys: catalog.SystemId, states: np.ndarray):
    """({k: H_k along states}, char-poly coefficients) from one set of traces."""
    ks = monitored_hamiltonian_indices(sys)
    mats = lax_values(sys, states)
    N = mats.shape[1]
    traces = power_traces(mats, max(*ks, N))
    h_vals = {k: traces[:, k - 1] / k for k in ks}
    return h_vals, _newton_coefficients(traces[:, :N])


def monitors(traj: Trajectory, sys: catalog.SystemId | str) -> DriftReport:
    """Max drift of the trace Hamiltonians and char-poly coefficients."""
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    h_vals, coeffs = _monitor_values(sys, traj.states)
    h_drift = {k: float(np.max(np.abs(vals - vals[0]))) for k, vals in h_vals.items()}
    cp_drift = [float(np.max(np.abs(coeffs[:, k] - coeffs[0, k]))) for k in range(coeffs.shape[1])]
    return DriftReport(h_drift, cp_drift)


# --------------------------------------------------------------- commutation


def commutation_check(
    sys: catalog.SystemId | str,
    flow_fields: list[PolyVectorField],
    x0,
    t: float,
    h: float,
) -> float:
    """|| phi_t^1 phi_t^2 (x0) - phi_t^2 phi_t^1 (x0) || for the given flows."""
    if len(flow_fields) < 2:
        raise ValueError("need at least two flows")
    compiled = [compile_field(f) for f in flow_fields]
    worst = 0.0
    for a in range(len(compiled)):
        for b in range(a + 1, len(compiled)):
            x_ab = integrate(compiled[b], integrate(compiled[a], x0, t, h).states[-1], t, h).states[-1]
            x_ba = integrate(compiled[a], integrate(compiled[b], x0, t, h).states[-1], t, h).states[-1]
            worst = max(worst, float(np.linalg.norm(x_ab - x_ba)))
    return worst


# ---------------------------------------------------------------------- csv


def trajectory_csv(
    traj: Trajectory, sys: catalog.SystemId | str, decimate: int = 1
) -> str:
    """CSV text: t, <vars...>, <H_k...>, <charpoly drifts...> per row."""
    sys = catalog.parse_system(sys) if isinstance(sys, str) else sys
    h_vals, coeffs = _monitor_values(sys, traj.states)
    ks = list(h_vals)
    drifts = np.abs(coeffs - coeffs[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t", *traj.variables, *[f"H{k}" for k in ks], *[f"c{j+1}_drift" for j in range(coeffs.shape[1])]]
    )
    for row in range(0, traj.states.shape[0], decimate):
        writer.writerow(
            [repr(float(traj.times[row]))]
            + [repr(float(x)) for x in traj.states[row]]
            + [repr(float(h_vals[k][row])) for k in ks]
            + [repr(float(d)) for d in drifts[row]]
        )
    return buf.getvalue()

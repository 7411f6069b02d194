import csv
import functools
import io
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from todavolterra import _kernels, catalog, flows
from todavolterra.polyalg import I_UNIT, Poly
from todavolterra.poisson import PolyVectorField, hamiltonian_vf

from conftest import (
    commutation_check, evaluate, max_charpoly_drift, max_hamiltonian_drift, poly_matrix_mul,
    read_poly, sid)
from test_catalog_oracles import old_matrix_power


T3 = catalog.SystemId("toda", "a", 3)


class TestCompiledField:
    @pytest.mark.parametrize("field", [functools.partial(catalog.flow, T3, 2),
                                       functools.partial(catalog.master_symmetry, T3)],
                             ids=["flow", "master_symmetry"])
    def test_matches_exact_evaluation(self, rng, field):
        vf = field()
        cf = flows.compile_field(vf)
        for _ in range(10):
            x = [rng.uniform(-1, 1) for _ in vf.variables]
            exact = [float(evaluate(p, x)) for p in vf.components]
            got = dense_field(cf.coefs, exponent_rows(vf), cf.comp_ptr, np.array(x))
            assert np.allclose(got, exact, rtol=1e-13, atol=1e-13)

    def test_gaussian_coefficients_rejected(self):
        vs = ("x1",)
        p = Poly.var(vs, "x1").scale(I_UNIT)
        with pytest.raises(ValueError):
            flows.compile_field(PolyVectorField(vs, [p]))

    def test_compared_by_identity(self):
        # a field-wise == compared numpy arrays and raised ValueError; hash
        # raised TypeError
        vf = catalog.flow(T3, 2)
        first, second = flows.compile_field(vf), flows.compile_field(vf)
        assert first != second
        assert first == first
        assert len({first, second}) == 2


class TestIntegrate:
    def test_records_every_step(self):
        vf = PolyVectorField(("a1",), [Poly.zero(("a1",))])
        traj = flows.integrate(vf, [1.0], 1.0, 0.01)
        assert traj.states.shape[0] == 101
        assert traj.times[-1] == pytest.approx(1.0)

    def test_zero_field_constant(self):
        vf = PolyVectorField(("a1", "b1"), [Poly.zero(("a1", "b1"))] * 2)
        traj = flows.integrate(vf, [1.0, 2.0], 1.0, 0.01)
        assert np.all(traj.states == traj.states[0])

    def test_conservation_small_lattice(self):
        sys = catalog.SystemId("toda", "a", 2)
        traj = flows.integrate(catalog.flow(sys, 2), [1.0, 0.0, 0.0], 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert max_hamiltonian_drift(rep) < 1e-10

    def test_volterra_positivity(self, rng):
        sys = catalog.SystemId("volterra", "a", 4)
        x0 = [rng.uniform(0.1, 1.0) for _ in range(3)]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        assert np.all(traj.states > 0)

    def test_blowup_reported(self):
        vs = ("a1",)
        a1 = Poly.var(vs, "a1")
        vf = PolyVectorField(vs, [a1 * a1])  # finite-time blowup
        with pytest.raises(flows.NonFiniteStateError) as info:
            flows.integrate(vf, [10.0], 10.0, 0.05)
        # an input error: the CLI reports it with its other ValueErrors
        assert isinstance(info.value, ValueError)


def exponent_rows(vf: PolyVectorField) -> np.ndarray:
    """The field's dense exponent matrix, shape [terms, dim]: one row per
    term in `compile_field`'s order (each component's exponent tuples in
    descending order), read off `Poly.terms`, not off the compiled factors."""
    rows = [e for comp in vf.components for e in sorted(comp.terms, reverse=True)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(vf.variables))


def dense_field(coefs, expts, comp_ptr, x):
    """The dense form of the field: O(nnz * dim) per call, numpy, no code
    generation.

    A monomial multiplies its variables from left to right, each repeated by
    its exponent, as the kernel does; `np.power` does not always round like
    a repeated product (x**2 vs x * x on an AVX-512 host).
    """
    mono = np.ones(len(coefs))
    for v in range(len(x)):
        for p in range(int(expts[:, v].max(initial=0))):
            mono = np.where(expts[:, v] > p, mono * x[v], mono)
    comp_idx = np.repeat(np.arange(len(comp_ptr) - 1), np.diff(comp_ptr))
    return np.bincount(comp_idx, weights=coefs * mono, minlength=len(comp_ptr) - 1)


def dense_rk4(coefs, expts, comp_ptr, x, h, n_steps):
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = dense_field(coefs, expts, comp_ptr, x)
            k2 = dense_field(coefs, expts, comp_ptr, x + 0.5 * h * k1)
            k3 = dense_field(coefs, expts, comp_ptr, x + 0.5 * h * k2)
            k4 = dense_field(coefs, expts, comp_ptr, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(x)
    return np.array(states)


def _escape_point():
    # the toda-a:6 point of test_cli's escape test; leaves float range at t = 2.67
    rng = random.Random(0)
    return [rng.uniform(-1.0, 1.0) for _ in range(11)]


# (system, field, sign of the sheet the starting points are drawn from)
KERNEL_CASES = [
    ("toda-a:3", lambda: catalog.flow(T3, 2), 1),
    ("volterra-a:11", lambda: catalog.flow(catalog.SystemId("volterra", "a", 11), 2), 1),
    ("volterra-b:3", lambda: catalog.bn_volterra_flow(3), -1),  # a3' has a3^2
]

# (name, field, x0 or None for a seeded mixed-sign point, steps)
WIDE_CASES = [
    ("toda-a:24", lambda: catalog.flow(sid("toda-a:24"), 2), None, 300),  # 92 terms
    ("toda-a:32", lambda: catalog.flow(sid("toda-a:32"), 2), None, 300),  # 124 terms
    ("volterra-a:64", lambda: catalog.flow(sid("volterra-a:64"), 2), None, 300),  # 124 terms
    ("toda-a:5-flow4", lambda: catalog.flow(sid("toda-a:5"), 4), None, 300),  # b_i^3
    ("toda-a:6-flow5", lambda: catalog.flow(sid("toda-a:6"), 5), None, 300),  # b_i^4
    ("toda-a:6-escape", lambda: catalog.flow(sid("toda-a:6"), 2), _escape_point(), 3000),
]


def _rk4(cf, x0, n_steps):
    return _kernels.rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, 1e-3, n_steps, cf.step)


class TestKernelOracle:
    """The generated RK4 step is bitwise equal to the dense form."""

    @pytest.mark.parametrize("name, make_field, sign", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_field_values_bitwise(self, name, make_field, sign, rng):
        # the field is seen through one step of the generated RK4, from
        # points of mixed sign that a trajectory of one sign never visits
        vf = make_field()
        cf = flows.compile_field(vf)
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1) for _ in range(cf.dim)])
            states, done = _rk4(cf, x, 1)
            assert done == 1
            assert np.array_equal(states, dense_rk4(cf.coefs, exponent_rows(vf), cf.comp_ptr,
                                                    x, 1e-3, 1))

    @pytest.mark.parametrize("name, make_field, sign", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_trajectory_bitwise(self, name, make_field, sign, rng):
        vf = make_field()
        cf = flows.compile_field(vf)
        x0 = np.array([sign * rng.uniform(0.1, 0.6) for _ in range(cf.dim)])
        states, done = _rk4(cf, x0, 2000)
        assert done == 2000
        assert np.array_equal(states, dense_rk4(cf.coefs, exponent_rows(vf), cf.comp_ptr,
                                                x0, 1e-3, 2000))

    @pytest.mark.parametrize("name, make_field, x0, n_steps", WIDE_CASES,
                             ids=[c[0] for c in WIDE_CASES])
    def test_wide_fields_and_escape_bitwise(self, name, make_field, x0, n_steps):
        vf = make_field()
        cf = flows.compile_field(vf)
        if x0 is None:
            rng = random.Random(name)
            x0 = [rng.uniform(0.1, 0.6) * rng.choice([-1, 1]) for _ in range(cf.dim)]
        x0 = np.array(x0)
        states, done = _rk4(cf, x0, n_steps)
        dense = dense_rk4(cf.coefs, exponent_rows(vf), cf.comp_ptr, x0, 1e-3, n_steps)
        if name.endswith("escape"):
            assert done == 2670 < n_steps
            assert not np.isfinite(dense[done + 1]).all()
        else:
            assert done == n_steps
        assert np.array_equal(states, dense[: done + 1])

    def test_high_powers_are_covered(self):
        fields = {name: make_field for name, make_field, _, _ in WIDE_CASES}
        for name, power in [("toda-a:5-flow4", 3), ("toda-a:6-flow5", 4)]:
            assert exponent_rows(fields[name]()).max() == power

    def test_long_component_is_split(self):
        # one sum of 3000 terms exceeds CPython's compiler recursion depth
        n = 3000
        cf = flows.CompiledField(
            variables=("a1", "a2"),
            coefs=1.0 / np.arange(1, n + 1),
            factors=[[0]] * n,
            comp_ptr=np.array([0, n, n]),
        )
        x0 = np.array([0.1, 0.2])
        states, done = _rk4(cf, x0, 3)
        assert done == 3
        rows = np.tile([1, 0], (n, 1))
        assert np.array_equal(states, dense_rk4(cf.coefs, rows, cf.comp_ptr, x0, 1e-3, 3))

    @pytest.mark.parametrize("n_steps", [1, 3, 7])
    def test_record_count(self, n_steps):
        # every state is recorded, and a shorter run is a prefix of a longer one
        cf = flows.compile_field(catalog.flow(T3, 2))
        x0 = np.array([0.3, 0.2, 0.1, -0.2, 0.4])
        states, done = _rk4(cf, x0, n_steps)
        assert done == n_steps
        assert states.shape == (n_steps + 1, 5)
        assert np.array_equal(states[0], x0)
        assert np.array_equal(states, _rk4(cf, x0, 20)[0][: n_steps + 1])

    def test_factor_table_repeats_factors(self):
        # a1' = -a1 a2, a2' = a2 (a1 - a3), a3' = a3 (a2 + a3)
        vf = catalog.bn_volterra_flow(3)
        cf = flows.compile_field(vf)
        factors = cf.factors
        assert len(factors) == len(cf.coefs)
        assert [2, 2] in factors  # a3^2 is two factors of a3
        for row, e in zip(factors, exponent_rows(vf)):
            assert np.array_equal(np.bincount(row, minlength=cf.dim), e)
            assert row == sorted(row)

    # (first component, its value at (0.5, 0.25), its terms' factors); the
    # second component is empty
    @pytest.mark.parametrize("first, value, rows", [
        ("3", 3.0, [[]]),  # the constant has no factors
        ("3 + a1^3", 3.125, [[], [0, 0, 0]]),
    ])
    def test_constant_and_empty_fields(self, first, value, rows):
        vs = ("a1", "a2")
        vf = PolyVectorField(vs, [read_poly(first, vs), Poly.zero(vs)])
        cf = flows.compile_field(vf)
        assert sorted(cf.factors) == rows
        x0 = np.array([0.5, 0.25])
        expts = exponent_rows(vf)
        assert np.array_equal(dense_field(cf.coefs, expts, cf.comp_ptr, x0), [value, 0.0])
        states, done = _rk4(cf, x0, 50)
        assert done == 50
        assert np.array_equal(states, dense_rk4(cf.coefs, expts, cf.comp_ptr, x0, 1e-3, 50))


@functools.cache
def _dense_escape():
    """The escape case of WIDE_CASES: field, x0 and its dense trajectory."""
    vf = catalog.flow(sid("toda-a:6"), 2)
    cf = flows.compile_field(vf)
    x0 = np.array(_escape_point())
    return cf, x0, dense_rk4(cf.coefs, exponent_rows(vf), cf.comp_ptr, x0, 1e-3, 3000)


class TestKernelChunks:
    """States are scanned for escapes one chunk of steps at a time; the
    chunking leaves the states and the completed step count unchanged."""

    def test_chunk_boundaries_bitwise(self):
        # the field's own chunk: runs that end just before, at and after a boundary
        vf = catalog.flow(T3, 2)
        cf = flows.compile_field(vf)
        chunk = _kernels.chunk_steps(len(cf.coefs), cf.dim)
        assert 1 < chunk < 5000
        x0 = np.array([0.3, 0.2, 0.1, -0.2, 0.4])
        dense = dense_rk4(cf.coefs, exponent_rows(vf), cf.comp_ptr, x0, 1e-3, chunk + 1)
        for n_steps in (chunk - 1, chunk, chunk + 1):
            states, done = _rk4(cf, x0, n_steps)
            assert done == n_steps
            assert np.array_equal(states, dense[: n_steps + 1])

    # chunk lengths that put the first non-finite state (row 2671, after
    # step 2670) last in its chunk (2671), first in its chunk (2670, 445),
    # inside one (1000), or in a chunk of one step
    @pytest.mark.parametrize("chunk", [2671, 2670, 445, 1000, 1])
    def test_escape_on_either_side_of_a_boundary(self, monkeypatch, chunk):
        cf, x0, dense = _dense_escape()
        monkeypatch.setattr(_kernels, "chunk_steps", lambda n_terms, dim: chunk)
        states, done = _rk4(cf, x0, 3000)
        assert done == 2670
        assert np.isfinite(dense[done]).all() and not np.isfinite(dense[done + 1]).all()
        assert np.array_equal(states, dense[: done + 1])

    def test_escape_in_the_last_step(self, monkeypatch):
        cf, x0, dense = _dense_escape()
        monkeypatch.setattr(_kernels, "chunk_steps", lambda n_terms, dim: 1000)
        states, done = _rk4(cf, x0, 2671)
        assert done == 2670
        assert np.array_equal(states, dense[:2671])

    def test_chunks_scale_with_the_field(self):
        assert _kernels.chunk_steps(8, 5) > _kernels.chunk_steps(562, 10) >= 1
        assert _kernels.chunk_steps(10**9, 10) == 1


def _strict_upper(M, zero):
    n = len(M)
    return [[M[i][j] if j > i else zero for j in range(n)] for i in range(n)]


def lax_rhs(sys: catalog.SystemId, k: int) -> PolyVectorField:
    """Matrix flow d/dt L = [L, (L^k)_+], projected onto the phase variables.

    (.)_+ is the strictly upper triangular part; with this convention the
    k = 1 commutator reproduces hamiltonian_vf(pi1, H2) exactly, and in
    general [L, (L^k)_+] is the pi1-Hamiltonian flow of H_{k+1}.  The
    commutator is checked to stay inside the system's Lax template (zero
    where the template is constant, mirror-consistent where entries repeat).
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    L = catalog.lax(sys)
    vars_ = L[0][0].variables
    zero = Poly.zero(vars_)
    P = old_matrix_power(L, k)
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


class TestLaxRhs:
    """The Lax-commutator flow `lax_rhs` above is the test oracle for the
    claim that [L, (L^k)_+] is the pi1 flow of H_{k+1}."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_hamiltonian_flow(self, n, k):
        sys = catalog.SystemId("toda", "a", n)
        assert lax_rhs(sys, k) == hamiltonian_vf(
            catalog.tensor(sys, 1), catalog.hamiltonian(sys, k + 1)
        )

    def test_toda_b(self):
        sys = catalog.SystemId("toda", "b", 2)
        assert lax_rhs(sys, 1) == catalog.flow(sys, 2)

    def test_volterra_km(self):
        sys = catalog.SystemId("volterra", "a", 5)
        assert lax_rhs(sys, 2) == catalog.flow(sys, 2)

    def test_zero_when_a_vanishes(self):
        sys = catalog.SystemId("toda", "a", 3)
        vf = lax_rhs(sys, 1)
        point = [0.0, 0.0, 0.3, -0.1, 0.4]  # a = 0
        assert all(evaluate(p, point) == 0 for p in vf.components)


class TestMonitors:
    def test_constant_trajectory_zero_drift(self):
        vs = catalog.variables(T3)
        vf = PolyVectorField(vs, [Poly.zero(vs)] * len(vs))
        traj = flows.integrate(vf, [0.3, 0.2, 0.1, -0.2, 0.4], 1.0, 0.01)
        rep = flows.monitors(traj, T3)
        assert max_hamiltonian_drift(rep) == 0.0
        assert max_charpoly_drift(rep) == 0.0

    def test_toda_b_conservation(self, rng):
        # positive a keeps the spectrum real (bounded scattering dynamics)
        sys = catalog.SystemId("toda", "b", 2)
        x0 = [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)] + [
            rng.uniform(-1, 1) for _ in range(2)
        ]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep["hamiltonian_drift"]["2"] < 1e-8
        assert rep["hamiltonian_drift"]["4"] < 1e-8

    def test_km_isospectrality(self, rng):
        sys = catalog.SystemId("volterra", "a", 5)
        x0 = [rng.uniform(0.1, 1.0) for _ in range(4)]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert max_charpoly_drift(rep) < 1e-8

    def test_bn_volterra_monitors(self, rng):
        # the natural sheet is a_i = -2 x_i^2 < 0; positive a_n blows up
        # in finite time through a_n' = a_n (a_{n-1} + a_n)
        sys = catalog.SystemId("volterra", "b", 3)
        x0 = [-rng.uniform(0.1, 0.6) for _ in range(3)]
        traj = flows.integrate(catalog.bn_volterra_flow(3), x0, 5.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep["hamiltonian_drift"]["4"] < 1e-9
        assert max_charpoly_drift(rep) < 1e-9


MONITOR_CASES = ["toda-a:5", "toda-b:2", "toda-c:3", "volterra-a:6", "volterra-b:3"]
ALL_FAMILIES = MONITOR_CASES + ["toda-a:2", "volterra-a:2", "volterra-a:9", "volterra-c:3"]


def dense_bands(mats):
    """The diagonal [N, T] and edge products M[i,i+1] M[i+1,i] [N-1, T] of
    dense matrices [T, N, N]."""
    i = np.arange(mats.shape[1] - 1)
    return np.diagonal(mats, axis1=1, axis2=2).T, (mats[:, i, i + 1] * mats[:, i + 1, i]).T


def tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The dense matrices with diagonal d [n, T], superdiagonal e [n-1, T]
    and ones below, shape [T, n, n]: for toda-a, the Lax matrices themselves.

    With `power_traces`, the dense oracle of `flows.band_traces`, which
    takes the same traces from the bands alone."""
    n, T = d.shape
    i = np.arange(n)
    out = np.zeros((T, n, n))
    out[:, i, i] = d.T
    out[:, i[:-1], i[1:]] = e.T
    out[:, i[1:], i[:-1]] = 1.0
    return out


def unfused_power_traces(mats: np.ndarray, k_max: int) -> np.ndarray:
    """tr(M^j) for j = 1..k_max of tridiagonal matrices [T, n, n], shape
    [T, k_max]: each product summed term by term over k = 0..n-1 from +0.0,
    with no fused multiply-add, and each trace summed by `np.trace`.

    Column c of M is zero outside rows c-1..c+1, so column c of a product
    takes only the terms k = c-1, c, c+1, added in that order: on finite
    entries a sum started at +0.0 is never -0.0, and adding a +-0.0 term
    leaves it as it is, so these are the bits of the dense product."""
    n = mats.shape[1]
    traces = np.empty((mats.shape[0], k_max))
    power = mats
    for j in range(k_max):
        if j:
            acc = np.zeros_like(mats)
            for shift in (-1, 0, 1):  # term k = c + shift of every column c
                c = slice(max(-shift, 0), min(n - shift, n))
                k = slice(c.start + shift, c.stop + shift)
                m_kc = np.diagonal(mats, -shift, axis1=1, axis2=2)  # M[c + shift, c]
                acc[:, :, c] += power[:, :, k] * m_kc[:, None, :]
            power = acc
        traces[:, j] = np.trace(power, axis1=1, axis2=2)
    return traces


def power_traces(mats: np.ndarray, k_max: int) -> np.ndarray:
    """tr(M^j) for j = 1..k_max over a batch of dense matrices, shape
    [T, k_max], by repeated matrix products."""
    traces = np.empty((mats.shape[0], k_max))
    traces[:, 0] = np.trace(mats, axis1=1, axis2=2)
    power = mats
    for j in range(1, k_max):
        power = power @ mats
        traces[:, j] = np.trace(power, axis1=1, axis2=2)
    return traces


class TestMonitorOracle:
    """Trace-based H_k agree with the exact expanded polynomials."""

    @pytest.mark.parametrize("name", MONITOR_CASES)
    def test_hamiltonian_values_match_exact(self, name):
        sys = catalog.parse_system(name)
        vars_ = catalog.variables(sys)
        rng = random.Random(name)
        points = np.array([[rng.uniform(-1, 1) for _ in vars_] for _ in range(8)])
        for k in flows.monitored_hamiltonian_indices(sys):
            exact = catalog.hamiltonian(sys, k)
            want = np.array([float(evaluate(exact, list(p))) for p in points])
            got = flows.hamiltonian_values(sys, k, points)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), (name, k)

    def test_lax_values_match_exact(self, rng):
        sys = catalog.parse_system("toda-b:2")
        L = catalog.lax(sys)
        point = [rng.uniform(-1, 1) for _ in catalog.variables(sys)]
        want = np.array([[float(evaluate(p, point)) for p in row] for row in L])
        assert np.array_equal(flows.lax_values(sys, np.array([point]))[0], want)

    @staticmethod
    def _trace_calls(monkeypatch, name, field, x0):
        """(size, k_max) of each `band_traces` call the JSON and CSV
        monitors make on a short run."""
        calls = []
        real = flows.band_traces

        def counted(d, e, k_max):
            calls.append((d.shape[0], k_max))
            return real(d, e, k_max)

        monkeypatch.setattr(flows, "band_traces", counted)
        sys = catalog.parse_system(name)
        traj = flows.integrate(field, x0, 0.1, 0.01)
        flows.monitors(traj, sys)
        flows.trajectory_csv(traj, sys)
        return calls

    def test_monitors_take_traces_once(self, monkeypatch):
        # one trace computation per block of states and parity block: N = 5
        # monitors H_4 and H_8, so L^2 and L^4 of the 3x3 and 2x2 blocks
        calls = self._trace_calls(monkeypatch, "volterra-b:2", catalog.bn_volterra_flow(2),
                                  [-0.3, -0.2])
        assert calls == [(3, 4), (2, 4)] * 2

    def test_toda_monitors_take_traces_once(self, monkeypatch):
        # toda-a:3 monitors H_1..H_3 from the bands of the Lax matrix itself
        calls = self._trace_calls(monkeypatch, "toda-a:3", catalog.flow(T3, 2),
                                  [0.3, 0.2, 0.1, -0.2, 0.4])
        assert calls == [(3, 3)] * 2

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_bands_are_those_of_the_dense_matrices(self, name):
        sys = catalog.parse_system(name)
        rng = np.random.default_rng(len(name))
        states = rng.uniform(-1, 1, size=(7, len(catalog.variables(sys))))
        mats = flows.lax_values(sys, states)
        d, e = flows.lax_bands(sys, states)
        assert np.array_equal(d, dense_bands(mats)[0]) and np.array_equal(e, dense_bands(mats)[1])
        # and the tridiagonal form of the bands is the Lax matrix itself on toda-a
        if sys.name == "toda-a":
            assert np.array_equal(tridiagonal(d, e), mats)



def old_monitor_values(sys, states):
    """The whole-trajectory monitors: ({k: H_k along states}, char-poly
    coefficients) from one set of Lax bands for every state.

    It calls the monitors' own `lax_bands`, `lax_traces` and
    `charpoly_coefficients`, from the module it checks, on purpose: it
    checks the streaming in blocks, which must leave every value bitwise
    unchanged, and not the values.  Those are checked elsewhere against
    exact arithmetic: the traces by `TestTraceRoutes` and `TestMonitorOracle`,
    the coefficients by `TestCharpolyOracle`."""
    ks = flows.monitored_hamiltonian_indices(sys)
    d, e = flows.lax_bands(sys, states)
    traces = flows.lax_traces(sys, d, e, max(ks))
    return {k: traces[:, k - 1] / k for k in ks}, flows.charpoly_coefficients(d, e)


def old_monitors(traj, sys):
    h_vals, coeffs = old_monitor_values(sys, traj.states)
    h_drift = {str(k): float(np.max(np.abs(vals - vals[0]))) for k, vals in h_vals.items()}
    cp_drift = [float(np.max(np.abs(coeffs[:, k] - coeffs[0, k]))) for k in range(coeffs.shape[1])]
    return {"hamiltonian_drift": h_drift, "charpoly_drift": cp_drift}


def old_trajectory_csv(traj, sys, decimate=1):
    """The CSV with monitors taken on every state, then decimated."""
    h_vals, coeffs = old_monitor_values(sys, traj.states)
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


def _random_trajectory(name: str, n_states: int, seed: int = 0) -> flows.Trajectory:
    """States drawn near a point of the a_i > 0 sheet; the monitors read
    only the states, so they need not solve the flow."""
    sys = catalog.parse_system(name)
    vars_ = catalog.variables(sys)
    rng = np.random.default_rng(seed)
    x0 = np.array([0.5 if v[0] == "a" else 0.1 for v in vars_])
    states = x0 + rng.uniform(-0.05, 0.05, size=(n_states, len(vars_)))
    return flows.Trajectory(vars_, np.arange(n_states) * 1e-3, states)


B = flows.CHARPOLY_BLOCK


class TestStreamedMonitors:
    """The monitors run block by block, and the CSV monitors only its written
    rows; both are bitwise equal to the whole-trajectory forms."""

    @pytest.mark.parametrize("name", ["toda-a:4", "volterra-b:2"])
    @pytest.mark.parametrize("n_states", [B - 1, B, B + 1, 2 * B + 3])
    def test_monitors_match_whole_trajectory(self, name, n_states):
        sys = catalog.parse_system(name)
        traj = _random_trajectory(name, n_states)
        h_old, c_old = old_monitor_values(sys, traj.states)
        h_old = np.array(list(h_old.values())).T
        blocks = zip(*flows._monitor_values(sys, traj.states))
        h_new, h_drift, c_drift = (np.concatenate(v) for v in blocks)
        assert np.array_equal(h_new, h_old)
        assert np.array_equal(h_drift, np.abs(h_old - h_old[0]))
        assert np.array_equal(c_drift, np.abs(c_old - c_old[0]))
        assert repr(flows.monitors(traj, sys)) == repr(old_monitors(traj, sys))

    @pytest.mark.parametrize("n_states", [B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("decimate", [1, 7, 100, 5000])
    def test_csv_matches_whole_trajectory(self, n_states, decimate):
        # n_states - 1 steps; no count here is a multiple of 7 or 100, and
        # 5000 exceeds every count, so the CSV is the first and last rows
        sys = catalog.parse_system("toda-a:4")
        traj = _random_trajectory("toda-a:4", n_states)
        assert flows.trajectory_csv(traj, sys, decimate) == old_trajectory_csv(traj, sys, decimate)

    # finite states whose monitored values overflow: the Lax powers on
    # toda-a:4, the parity-block entries e_p e_{p+1} on volterra-a:6
    OVERFLOWS = [("toda-a:4", [1e300, -1e300, 1e300, -1e300, 1e300, -1e300, 1e300]),
                 ("volterra-a:6", [1e200, 1e200, -1e200, 1e200, 1e200])]

    @staticmethod
    def _overflow_past_the_first_block(name, state):
        traj = _random_trajectory(name, B + 5)
        traj.states[B + 2] = state
        return catalog.parse_system(name), traj

    @pytest.mark.parametrize("name, state", OVERFLOWS)
    def test_overflow_in_a_later_block_raises(self, name, state):
        sys, traj = self._overflow_past_the_first_block(name, state)
        with np.errstate(over="ignore", invalid="ignore"):
            old = old_monitors(traj, sys)
        assert not all(map(math.isfinite, [*old["hamiltonian_drift"].values(),
                                           *old["charpoly_drift"]]))
        with pytest.raises(ValueError, match="a monitored H_k or char-poly value is not finite"):
            flows.monitors(traj, sys)
        with pytest.raises(ValueError, match="a monitored H_k or char-poly value is not finite"):
            flows.trajectory_csv(traj, sys)
        # rows 0, 4, ..., B + 4 skip state B + 2: the CSV monitors only its rows
        assert flows.trajectory_csv(traj, sys, 4).count("\n") == 1 + B // 4 + 2

    @pytest.mark.parametrize("name, state", OVERFLOWS)
    def test_overflow_raises_with_no_warning(self, name, state):
        sys, traj = self._overflow_past_the_first_block(name, state)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                flows.monitors(traj, sys)
        assert caught == []

    def test_memory_does_not_grow_with_the_trajectory(self):
        # whole-trajectory [T, N, N] arrays took about 55 MB here
        sys = catalog.parse_system("toda-a:24")
        N = catalog.lax_size(sys)
        bound = 4 * B * N * N * 8  # a block of dense matrices, two powers and slack
        for n_states in (4001, 8001):
            traj = _random_trajectory("toda-a:24", n_states)
            tracemalloc.start()
            try:
                flows.monitors(traj, sys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n_states, peak)

# --------------------------------------------------------- char-poly oracle


def exact_continuant(M, sign=1) -> list[Fraction]:
    """c_1..c_N of det(x - M) for a float tridiagonal M, exactly: the
    continuant p_i = (x - d_i) p_{i-1} - e_{i-1} p_{i-2} over Fractions.

    sign=-1 runs it on -|d_i| and -|e_i|, which gives each coefficient as
    the sum of the absolute values of its terms.
    """
    N = len(M)
    d = [Fraction(float(M[i][i])) for i in range(N)]
    e = [Fraction(float(M[i][i + 1])) * Fraction(float(M[i + 1][i])) for i in range(N - 1)]
    if sign < 0:
        d, e = [-abs(x) for x in d], [-abs(x) for x in e]
    prev, cur = [], [Fraction(1)]
    for i in range(N):
        nxt = cur + [Fraction(0)]
        for k in range(1, i + 2):
            nxt[k] -= d[i] * cur[k - 1]
        if i:
            for k in range(2, i + 2):
                nxt[k] -= e[i - 1] * prev[k - 2]
        prev, cur = cur, nxt
    return cur[1:]


def exact_traces(M, k_max: int, sign=1) -> list[Fraction]:
    """tr(M^j) for j = 1..k_max of a float M, exactly, from the powers of
    the Fraction matrix.

    sign=-1 takes the powers of |M| instead, which bounds the sum of the
    absolute values of the terms of each trace."""
    A = [[Fraction(abs(float(x)) if sign < 0 else float(x)) for x in row] for row in M]
    N, power, traces = len(A), A, []
    for j in range(k_max):
        if j:
            power = [[sum(row[k] * A[k][l] for k in range(N)) for l in range(N)] for row in power]
        traces.append(sum(power[i][i] for i in range(N)))
    return traces


def exact_newton(M) -> list[Fraction]:
    """c_1..c_N of det(x - M) for any float M, exactly: traces of the powers
    of the Fraction matrix and Newton's identities, which are exact over Q."""
    N, traces = len(M), exact_traces(M, len(M))
    coeffs: list[Fraction] = []
    for k in range(1, N + 1):
        acc = traces[k - 1] + sum(coeffs[j - 1] * traces[k - j - 1] for j in range(1, k))
        coeffs.append(-acc / k)
    return coeffs


def newton_coefficients(traces: np.ndarray) -> np.ndarray:
    """The earlier float monitor route, kept as a negative control: c_1..c_N
    from tr(M^1..M^N) by Newton's identities, whose error grows
    exponentially with N."""
    T, N = traces.shape
    coeffs = np.empty((T, N))
    for k in range(1, N + 1):
        acc = traces[:, k - 1].copy()
        for j in range(1, k):
            acc += coeffs[:, j - 1] * traces[:, k - j - 1]
        coeffs[:, k - 1] = -acc / k
    return coeffs


def max_relative_error(got: np.ndarray, mats: np.ndarray) -> float:
    """Largest |got - c| / |c| over the exact coefficients c of each matrix.

    A coefficient that is exactly 0 (the odd ones of a spectrum symmetric
    about 0) is measured against the sum of the absolute values of its terms.
    """
    worst = 0.0
    for row, M in zip(got, mats):
        exact, scale = exact_continuant(M), None
        for k, (g, c) in enumerate(zip(row, exact)):
            err = abs(Fraction(float(g)) - c)
            if c == 0:
                scale = scale or exact_continuant(M, sign=-1)
                c = scale[k]
            if err:
                worst = max(worst, float(err / abs(c)) if c else math.inf)
    return worst


def _trajectory_states(name: str) -> tuple[catalog.SystemId, np.ndarray]:
    """First and last state of 20 RK4 steps from a point of the sheet
    `simulate` draws from (a_i > 0; b_i of either sign)."""
    sys = catalog.parse_system(name)
    rng = random.Random(name)
    x0 = [rng.uniform(0.1, 1.0) if v[0] == "a" else rng.uniform(-1, 1)
          for v in catalog.variables(sys)]
    states = flows.integrate(catalog.flow(sys, 2), x0, 0.02, 1e-3).states
    return sys, states[[0, -1]]


class TestCharpolyOracle:
    """The continuant char-poly coefficients against exact arithmetic on the
    same float matrices."""

    @pytest.mark.parametrize("name", MONITOR_CASES + ["toda-a:9", "volterra-a:9"])
    def test_exact_continuant_is_the_char_poly(self, name):
        # exact_continuant reads only the three diagonals; over Q it must
        # equal the char poly of the full matrix
        sys = catalog.parse_system(name)
        rng = random.Random(name)
        points = np.array([[rng.uniform(-1, 1) for _ in catalog.variables(sys)] for _ in range(2)])
        for M in flows.lax_values(sys, points):
            assert exact_continuant(M) == exact_newton(M)

    @pytest.mark.parametrize("name", ["toda-a:100", "toda-b:20", "volterra-a:60"])
    def test_continuant_within_1e12_of_exact(self, name):
        sys, states = _trajectory_states(name)
        mats = flows.lax_values(sys, states)
        got = flows.charpoly_coefficients(*flows.lax_bands(sys, states))
        assert max_relative_error(got, mats) <= 1e-12

    def test_blocks_match_single_matrices(self):
        # a batch longer than two blocks gives each matrix's own coefficients
        sys = catalog.parse_system("toda-a:6")
        rng = np.random.default_rng(6)
        points = rng.uniform(-1, 1, size=(2 * flows.CHARPOLY_BLOCK + 3, len(catalog.variables(sys))))
        d, e = flows.lax_bands(sys, points)
        one_by_one = np.array([flows.charpoly_coefficients(d[:, [t]], e[:, [t]])[0]
                               for t in range(len(points))])
        assert np.array_equal(flows.charpoly_coefficients(d, e), one_by_one)

    def test_newton_route_fails_the_bound_at_27(self):
        # negative control: the earlier route reported roundoff as drift here
        sys, states = _trajectory_states("toda-a:27")
        mats = flows.lax_values(sys, states)
        got = flows.charpoly_coefficients(*flows.lax_bands(sys, states))
        assert max_relative_error(got, mats) <= 1e-12
        newton = newton_coefficients(power_traces(mats, mats.shape[1]))
        assert max_relative_error(newton, mats) > 1e-12


# --------------------------------------------------------------- trace oracle

TRACE_CASES = ([f"toda-a:{n}" for n in range(2, 10)] + [f"toda-b:{n}" for n in range(1, 5)]
               + [f"volterra-a:{n}" for n in range(2, 10)]
               + [f"volterra-b:{n}" for n in range(1, 5)])


def trace_error(got: np.ndarray, mats: np.ndarray, k_max: int) -> float:
    """Largest |got - tr(M^j)| / tr(|M|^j) over the matrices and j = 1..k_max,
    with the traces in exact arithmetic on the same float matrices."""
    worst = 0.0
    for row, M in zip(got, mats):
        for g, t, scale in zip(row, exact_traces(M, k_max), exact_traces(M, k_max, sign=-1)):
            err = abs(Fraction(float(g)) - t)
            if err:
                worst = max(worst, float(err / scale) if scale else math.inf)
    return worst


def _trace_points(name: str):
    """Two points of mixed sign, the Lax matrices there and the largest
    power to check: past N, and past every monitored H_k."""
    sys = catalog.parse_system(name)
    rng = random.Random(name)
    states = np.array([[rng.uniform(-1, 1) for _ in catalog.variables(sys)] for _ in range(2)])
    k_max = max(catalog.lax_size(sys), *flows.monitored_hamiltonian_indices(sys))
    return sys, states, flows.lax_values(sys, states), k_max


def _zero_diagonal(sys) -> bool:
    return all(i != j for i, j, _, _ in catalog.lax_entries(sys))


def old_diagonal_sum(p: np.ndarray) -> np.ndarray:
    """`flows._diagonal_sum` before it summed in place: each column of p
    [n, b] summed by numpy from a transposed copy."""
    return np.ascontiguousarray(p.T).sum(axis=1)


def _diagonal_sum_inputs(n: int) -> np.ndarray:
    """[n, 1024] entries of both signs over 16 orders of magnitude, with
    +-0.0, +-inf and NaN at fixed positions in columns 0-9.

    IEEE 754 leaves open which NaN the sum of two NaNs returns, and numpy's
    loops do not agree on it, so no column holds NaNs of both signs (the
    NaN of inf - inf is negative on x86)."""
    rng = np.random.default_rng(n)
    p = rng.uniform(-1, 1, (n, 1024)) * 10.0 ** rng.integers(-8, 8, (n, 1024))
    p[:, 0] = -0.0
    p[:, 1] = 0.0
    p[::2, 2] = -0.0
    p[:, 3], p[n - 1, 3] = -0.0, 0.0
    p[n // 2, 4] = np.inf
    p[n - 1, 5] = -np.inf
    p[0, 6], p[n - 1, 6] = np.inf, -np.inf  # a NaN from inf - inf, from n = 2 on
    p[n // 3, 7] = np.nan
    p[0, 8], p[n - 1, 8] = np.nan, np.nan
    p[0, 9], p[n // 2, 9] = -np.inf, np.nan
    return p


SUM_ROWS = [*range(1, 21), 63, 64, 127, 128, 129, 136, 255, 256, 300]


class TestDiagonalSum:
    @pytest.mark.parametrize("b", [1, 1024])
    @pytest.mark.parametrize("n", SUM_ROWS)
    def test_diagonal_sum_is_the_transposed_sum(self, n, b):
        # bitwise, NaNs and the signs of zeros and NaNs included: below 8,
        # up to 128 and above 128 rows, on whole blocks, on rows taken every
        # other one (as `squared_traces` passes its parity blocks) and on
        # single columns (one state)
        p = _diagonal_sum_inputs(n)
        if b == 1024:
            spread = np.empty((2 * n, b))
            spread[::2] = p
            cases = [p, spread[::2]]
        else:
            cases = [p[:, c : c + 1].copy() for c in range(12)]
        with np.errstate(invalid="ignore"):
            for q in cases:
                got, want = flows._diagonal_sum(q), old_diagonal_sum(q)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


ORDER_SIZES = [1, 2, 7, 8, 9, 16, 17, 129]


def _order_mismatches(n: int) -> list[int]:
    """The k_max at which `band_traces` differs in any bit from
    `unfused_power_traces` on random bands of 5 matrices of size n."""
    rng = np.random.default_rng(n)
    d, e = rng.uniform(-1, 1, (n, 5)), rng.uniform(-1, 1, (n - 1, 5))
    want = unfused_power_traces(tridiagonal(d, e), 3 * n + 1)
    return [k_max for k_max in (1, 2, n, n + 2, 3 * n + 1)
            if not np.array_equal(flows.band_traces(d, e, k_max), want[:, :k_max])]


class TestTraceRoutes:
    """Both trace routes against exact traces of the dense Lax matrix: the
    band recursion on the tridiagonal matrix with the Lax bands (every
    family), and on the parity blocks of L^2 (the Volterra families, which
    have no diagonal)."""

    @pytest.mark.parametrize("name", TRACE_CASES)
    def test_tridiagonal_route_matches_exact(self, name):
        sys, states, mats, k_max = _trace_points(name)
        got = flows.band_traces(*flows.lax_bands(sys, states), k_max)
        assert trace_error(got, mats, k_max) <= 1e-14
        if not _zero_diagonal(sys):
            assert np.array_equal(got, flows.lax_traces(sys, *flows.lax_bands(sys, states), k_max))

    @pytest.mark.parametrize("n", ORDER_SIZES)
    def test_adds_in_the_order_of_an_unfused_product(self, n):
        # bitwise: each product summed term by term over k = 0..n-1, with no
        # fused multiply-add, and each trace summed as np.trace sums (its
        # order differs from a running sum from n = 8 on, and splits in
        # halves above 128); k_max > n stops the carried width at n - 1, and
        # n = 1 has no edge
        assert _order_mismatches(n) == []

    @pytest.mark.parametrize("n", ORDER_SIZES)
    def test_a_running_diagonal_sum_fails_the_order_from_8_rows(self, monkeypatch, n):
        # negative control: the order test tells numpy's pairwise order from
        # a running sum of the rows wherever the two differ
        monkeypatch.setattr(flows, "_diagonal_sum", lambda p: functools.reduce(np.add, p))
        assert bool(_order_mismatches(n)) == (n >= 8)

    @pytest.mark.parametrize("name", ["volterra-a:2", "volterra-b:1"])
    def test_parity_blocks_of_size_one(self, monkeypatch, name):
        sizes = []
        real = flows.band_traces

        def counted(d, e, k_max):
            sizes.append(d.shape[0])
            return real(d, e, k_max)

        monkeypatch.setattr(flows, "band_traces", counted)
        sys, states, mats, k_max = _trace_points(name)
        got = flows.lax_traces(sys, *flows.lax_bands(sys, states), k_max)
        assert 1 in sizes
        assert trace_error(got, mats, k_max) <= 1e-14

    @pytest.mark.parametrize("name", ["toda-a:40", "volterra-a:41"])
    def test_matches_the_dense_oracle(self, name):
        # every monitored power, within 1e-12 of the sum of the absolute
        # values of its terms, tr(|L|^j)
        sys, states = _trajectory_states(name)
        k_max = max(flows.monitored_hamiltonian_indices(sys))
        mats = flows.lax_values(sys, states)
        got = flows.lax_traces(sys, *flows.lax_bands(sys, states), k_max)
        want, scale = power_traces(mats, k_max), power_traces(np.abs(mats), k_max)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("name", ["toda-a:5", "toda-b:3", "volterra-a:7"])
    def test_pruning_one_tighter_fails(self, monkeypatch, name):
        # negative control: each power carries one diagonal fewer on each side
        real = flows.carried_width
        monkeypatch.setattr(flows, "carried_width",
                            lambda j, k_max, n: max(real(j, k_max, n) - 1, 0))
        sys, states, mats, k_max = _trace_points(name)
        got = flows.lax_traces(sys, *flows.lax_bands(sys, states), k_max)
        assert trace_error(got, mats, k_max) > 1e-3

    @pytest.mark.parametrize("name", [c for c in TRACE_CASES if c.startswith("volterra")])
    def test_squared_route_matches_exact(self, name):
        sys, states, mats, k_max = _trace_points(name)
        assert _zero_diagonal(sys)
        d, e = flows.lax_bands(sys, states)
        got = flows.lax_traces(sys, d, e, k_max)
        assert np.array_equal(got, flows.squared_traces(e, k_max))
        assert np.all(got[:, 0::2] == 0.0)  # the odd powers
        assert trace_error(got, mats, k_max) <= 1e-14

    def test_every_family_but_toda_has_no_diagonal(self):
        # the squared route is taken exactly where it holds
        for name in ALL_FAMILIES:
            sys = catalog.parse_system(name)
            assert _zero_diagonal(sys) == (sys.family == "volterra"), name

    def test_squared_route_fails_with_a_diagonal(self):
        # negative control: toda-a has the b_i on its diagonal
        sys, states, mats, k_max = _trace_points("toda-a:4")
        got = flows.squared_traces(flows.lax_bands(sys, states)[1], k_max)
        assert trace_error(got, mats, k_max) > 1e-3

    @pytest.mark.parametrize("name", ["volterra-a:5", "volterra-a:8", "volterra-b:3"])
    def test_dropping_the_left_edge_fails(self, monkeypatch, name):
        # negative control: block diagonal e_p in place of e_{p-1} + e_p
        real = flows.square_bands

        def mutant(e):
            g, f = real(e)
            g[:-1], g[-1] = e, 0.0
            return g, f

        sys, states, mats, k_max = _trace_points(name)
        monkeypatch.setattr(flows, "square_bands", mutant)
        got = flows.lax_traces(sys, *flows.lax_bands(sys, states), k_max)
        assert trace_error(got, mats, k_max) > 1e-3


class TestOrderAndCommutation:
    def test_rk4_order(self):
        sys = catalog.SystemId("toda", "a", 2)
        vf = catalog.flow(sys, 2)

        def drift(h):
            traj = flows.integrate(vf, [1.0, 0.3, -0.2], 5.0, h)
            return max_hamiltonian_drift(flows.monitors(traj, sys))

        ratio = drift(4e-3) / drift(2e-3)
        assert 12.0 <= ratio <= 20.0

    def test_flow_self_commutation(self, rng):
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        d = commutation_check(T3, [catalog.flow(T3, 2), catalog.flow(T3, 2)], x0, 0.5, 1e-3)
        assert d < 1e-12

    def test_h2_h3_flows_commute(self, rng):
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        d = commutation_check(T3, [catalog.flow(T3, 2), catalog.flow(T3, 3)], x0, 0.5, 1e-3)
        assert d < 1e-6

    def test_commutation_check_compiles_each_field_once(self, monkeypatch, rng):
        # each pair integrates both fields twice; the step is generated once per field
        calls = []
        generate = flows.compile_step

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(flows, "compile_step", counted)
        fields = [catalog.flow(T3, k) for k in (2, 3, 4)]
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        commutation_check(T3, fields, x0, 0.05, 1e-3)
        assert len(calls) == len(fields)

    def test_bihamiltonian_flows_coincide_numerically(self, rng):
        # pi2 dH1 and pi1 dH2 are the same field; integrate both exactly
        f1 = hamiltonian_vf(catalog.tensor(T3, 2), catalog.hamiltonian(T3, 1))
        f2 = hamiltonian_vf(catalog.tensor(T3, 1), catalog.hamiltonian(T3, 2))
        assert f1 == f2
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        t1 = flows.integrate(f1, x0, 2.0, 1e-3)
        t2 = flows.integrate(f2, x0, 2.0, 1e-3)
        assert np.allclose(t1.states, t2.states, atol=1e-14)


def squaring_map_error(N: int, l: int, p: int, h: float, k: int | None = None) -> float:
    """How far the volterra-a:N flow 2l, read through parity block p of L^2,
    is from the toda-a flow k (by default l + 1) started at the mapped
    point: the max absolute difference to t = 1 over the max |state|.

    The map (Kac and van Moerbeke): block p of L^2 has diagonal g[p::2] and
    edge products f[p::2] (`flows.square_bands`), read as the toda-a state
    (a, b) = (f[p::2], g[p::2])."""
    rng = random.Random(N * 10 + l)
    volterra = catalog.SystemId("volterra", "a", N)
    a0 = [rng.uniform(0.1, 1.0) for _ in catalog.variables(volterra)]
    g, f = flows.square_bands(flows.integrate(catalog.flow(volterra, 2 * l), a0, 1.0, h).states.T)
    mapped = np.concatenate([f[p::2], g[p::2]]).T
    toda = catalog.SystemId("toda", "a", g[p::2].shape[0])
    got = flows.integrate(catalog.flow(toda, l + 1 if k is None else k), mapped[0], 1.0, h).states
    return float(np.max(np.abs(got - mapped)) / np.max(np.abs(mapped)))


class TestSquaringMap:
    """The Volterra flow 2l, mapped by the square of its Lax matrix, is the
    Toda flow l + 1: a float check that relates two families, so a defect
    that `catalog.flow` and the kernel share on one family shows."""

    @pytest.mark.parametrize("N, l", [(8, 1), (9, 2)])
    @pytest.mark.parametrize("p", [0, 1])
    def test_low_flows_agree(self, N, l, p):
        # measured 2.2e-15 and 2.4e-15 (l = 1), 5.3e-13 and 1.9e-13 (l = 2)
        assert squaring_map_error(N, l, p, 1e-3) < 1e-11

    @pytest.mark.parametrize("p", [0, 1])
    def test_step_halving_ratio(self, p):
        # the error is RK4's own, of order 4: about 16 per halving (measured
        # 1.3e-9, 8.2e-11, 5.1e-12 on the even block, 4.2e-10, 2.6e-11,
        # 1.6e-12 on the odd one)
        errors = [squaring_map_error(13, 3, p, h) for h in (2e-3, 1e-3, 5e-4)]
        assert all(12.0 <= big / small <= 20.0 for big, small in zip(errors, errors[1:]))

    @pytest.mark.parametrize("p", [0, 1])
    def test_the_neighbouring_toda_flows_miss(self, p):
        # negative control: toda flows l and l + 2 (measured 0.26 to 0.53)
        assert min(squaring_map_error(13, 3, p, 1e-3, k) for k in (3, 5)) > 0.1


class TestCsv:
    def test_header_and_decimation(self):
        sys = catalog.SystemId("toda", "a", 2)
        traj = flows.integrate(catalog.flow(sys, 2), [1.0, 0.1, -0.1], 0.1, 0.01)
        text = flows.trajectory_csv(traj, sys, decimate=5)
        lines = text.strip().splitlines()
        assert lines[0] == "t,a1,b1,b2,H1,H2,c1_drift,c2_drift"
        assert len(lines) == 1 + 3  # header + rows 0, 5, 10

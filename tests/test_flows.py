import random

import numpy as np
import pytest

from todavolterra import _kernels, catalog, flows
from todavolterra.polyalg import Poly
from todavolterra.poisson import PolyVectorField, hamiltonian_vf


T3 = catalog.SystemId("toda", "a", 3)


class TestCompiledField:
    def test_matches_exact_evaluation(self, rng):
        vf = catalog.flow(T3, 2)
        cf = flows.compile_field(vf)
        for _ in range(10):
            x = [rng.uniform(-1, 1) for _ in vf.variables]
            exact = [float(p.eval(x)) for p in vf.components]
            assert np.allclose(cf.eval(x), exact, rtol=1e-13, atol=1e-13)

    def test_numpy_backend_matches_exact(self, rng):
        vf = catalog.master_symmetry(T3)
        cf = flows.compile_field(vf)
        for _ in range(10):
            x = np.array([rng.uniform(-1, 1) for _ in vf.variables])
            exact = [float(p.eval(list(x))) for p in vf.components]
            got = _kernels.eval_field(cf.coefs, cf.expts, cf.comp_ptr, x)
            assert np.allclose(got, exact, rtol=1e-13, atol=1e-13)

    def test_gaussian_coefficients_rejected(self):
        vs = ("x1",)
        p = Poly.parse("i*x1", vs)
        with pytest.raises(ValueError):
            flows.compile_field(PolyVectorField(vs, [p]))


class TestIntegrate:
    def test_zero_field_constant(self):
        vf = PolyVectorField.zero(("a1", "b1"))
        traj = flows.integrate(vf, [1.0, 2.0], 1.0, 0.01)
        assert np.all(traj.states == traj.states[0])

    def test_conservation_small_lattice(self):
        sys = catalog.SystemId("toda", "a", 2)
        traj = flows.integrate(catalog.flow(sys, 2), [1.0, 0.0, 0.0], 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep.max_hamiltonian_drift < 1e-10

    def test_volterra_positivity(self, rng):
        sys = catalog.SystemId("volterra", "a", 4)
        x0 = [rng.uniform(0.1, 1.0) for _ in range(3)]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        assert np.all(traj.states > 0)

    def test_blowup_reported(self):
        vs = ("a1",)
        vf = PolyVectorField(vs, [Poly.parse("a1^2", vs)])  # finite-time blowup
        with pytest.raises(flows.NonFiniteStateError):
            flows.integrate(vf, [10.0], 10.0, 0.05)

    def test_record_stride(self):
        vf = PolyVectorField.zero(("a1",))
        traj = flows.integrate(vf, [1.0], 1.0, 0.01, record_stride=10)
        assert traj.states.shape[0] == 11
        assert traj.times[-1] == pytest.approx(1.0)


def dense_field(coefs, expts, comp_ptr, x):
    """The dense form the gather kernel replaced: O(nnz * dim) per call."""
    mono = np.prod(np.power(x[None, :], expts), axis=1)
    comp_idx = np.repeat(np.arange(len(comp_ptr) - 1), np.diff(comp_ptr))
    return np.bincount(comp_idx, weights=coefs * mono, minlength=len(comp_ptr) - 1)


def dense_rk4(coefs, expts, comp_ptr, x, h, n_steps):
    states = [x]
    for _ in range(n_steps):
        k1 = dense_field(coefs, expts, comp_ptr, x)
        k2 = dense_field(coefs, expts, comp_ptr, x + 0.5 * h * k1)
        k3 = dense_field(coefs, expts, comp_ptr, x + 0.5 * h * k2)
        k4 = dense_field(coefs, expts, comp_ptr, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


# (system, field, sign of the sheet the starting points are drawn from)
KERNEL_CASES = [
    ("toda-a:3", lambda: catalog.flow(T3, 2), 1),
    ("volterra-a:11", lambda: catalog.flow(catalog.SystemId("volterra", "a", 11), 2), 1),
    ("volterra-b:3", lambda: catalog.bn_volterra_flow(3), -1),  # a3' has a3^2
]


class TestKernelOracle:
    """The gather-form kernel is bitwise equal to the dense form it replaced."""

    @pytest.mark.parametrize("name, make_field, sign", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_field_values_bitwise(self, name, make_field, sign, rng):
        cf = flows.compile_field(make_field())
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1) for _ in range(cf.dim)])
            got = _kernels.eval_field(cf.coefs, cf.expts, cf.comp_ptr, x)
            assert np.array_equal(got, dense_field(cf.coefs, cf.expts, cf.comp_ptr, x))

    @pytest.mark.parametrize("name, make_field, sign", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_trajectory_bitwise(self, name, make_field, sign, rng):
        cf = flows.compile_field(make_field())
        x0 = np.array([sign * rng.uniform(0.1, 0.6) for _ in range(cf.dim)])
        states, done = _kernels.rk4_integrate(cf.coefs, cf.expts, cf.comp_ptr, x0, 1e-3, 2000, 1)
        assert done == 2000
        assert np.array_equal(states, dense_rk4(cf.coefs, cf.expts, cf.comp_ptr, x0, 1e-3, 2000))

    def test_factor_table_width(self):
        cf = flows.compile_field(catalog.bn_volterra_flow(3))
        idx, pows, comp = _kernels.factor_table(cf.expts, cf.comp_ptr)
        assert idx.shape == pows.shape == (len(cf.coefs), 2)
        assert pows.max() == 2
        assert np.array_equal(comp, np.repeat(np.arange(cf.dim), np.diff(cf.comp_ptr)))

    def test_constant_and_empty_fields(self):
        vs = ("a1", "a2")
        cf = flows.compile_field(PolyVectorField(vs, [Poly.parse("3", vs), Poly.zero(vs)]))
        assert np.array_equal(cf.eval([0.5, 0.25]), [3.0, 0.0])


class TestLaxRhs:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_hamiltonian_flow(self, n, k):
        sys = catalog.SystemId("toda", "a", n)
        lr = flows.lax_rhs(sys, k)
        assert lr.field == hamiltonian_vf(
            catalog.tensor(sys, 1), catalog.hamiltonian(sys, k + 1)
        )

    def test_toda_b(self):
        sys = catalog.SystemId("toda", "b", 2)
        lr = flows.lax_rhs(sys, 1)
        assert lr.field == catalog.flow(sys, 2)

    def test_volterra_km(self):
        sys = catalog.SystemId("volterra", "a", 5)
        lr = flows.lax_rhs(sys, 2)
        assert lr.field == catalog.flow(sys, 2)

    def test_zero_when_a_vanishes(self):
        sys = catalog.SystemId("toda", "a", 3)
        lr = flows.lax_rhs(sys, 1)
        point = [0.0, 0.0, 0.3, -0.1, 0.4]  # a = 0
        assert np.allclose(lr.eval_matrix(point), 0.0)


class TestMonitors:
    def test_constant_trajectory_zero_drift(self):
        vf = PolyVectorField.zero(catalog.variables(T3))
        traj = flows.integrate(vf, [0.3, 0.2, 0.1, -0.2, 0.4], 1.0, 0.01)
        rep = flows.monitors(traj, T3)
        assert rep.max_hamiltonian_drift == 0.0
        assert rep.max_charpoly_drift == 0.0

    def test_toda_b_conservation(self, rng):
        # positive a keeps the spectrum real (bounded scattering dynamics)
        sys = catalog.SystemId("toda", "b", 2)
        x0 = [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)] + [
            rng.uniform(-1, 1) for _ in range(2)
        ]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep.hamiltonian_drift[2] < 1e-8
        assert rep.hamiltonian_drift[4] < 1e-8

    def test_km_isospectrality(self, rng):
        sys = catalog.SystemId("volterra", "a", 5)
        x0 = [rng.uniform(0.1, 1.0) for _ in range(4)]
        traj = flows.integrate(catalog.flow(sys, 2), x0, 10.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep.max_charpoly_drift < 1e-8

    def test_bn_volterra_monitors(self, rng):
        # the natural sheet is a_i = -2 x_i^2 < 0; positive a_n blows up
        # in finite time through a_n' = a_n (a_{n-1} + a_n)
        sys = catalog.SystemId("volterra", "b", 3)
        x0 = [-rng.uniform(0.1, 0.6) for _ in range(3)]
        traj = flows.integrate(catalog.bn_volterra_flow(3), x0, 5.0, 1e-3)
        rep = flows.monitors(traj, sys)
        assert rep.hamiltonian_drift[4] < 1e-9
        assert rep.max_charpoly_drift < 1e-9


MONITOR_CASES = ["toda-a:5", "toda-b:2", "toda-c:3", "volterra-a:6", "volterra-b:3"]


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
            want = np.array([float(exact.eval(list(p))) for p in points])
            got = flows.hamiltonian_values(sys, k, points)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), (name, k)

    def test_lax_values_match_exact(self, rng):
        sys = catalog.parse_system("toda-b:2")
        L = catalog.lax(sys)
        point = [rng.uniform(-1, 1) for _ in catalog.variables(sys)]
        want = np.array([[float(p.eval(point)) for p in row] for row in L])
        assert np.array_equal(flows.lax_values(sys, np.array([point]))[0], want)

    def test_monitors_take_traces_once(self, monkeypatch):
        calls = []
        real = flows.power_traces

        def counted(mats, k_max):
            calls.append(k_max)
            return real(mats, k_max)

        monkeypatch.setattr(flows, "power_traces", counted)
        sys = catalog.parse_system("volterra-b:2")  # N = 5, monitors H_4 and H_8
        traj = flows.integrate(catalog.bn_volterra_flow(2), [-0.3, -0.2], 0.1, 0.01)
        flows.monitors(traj, sys)
        flows.trajectory_csv(traj, sys)
        assert calls == [8, 8]


class TestOrderAndCommutation:
    def test_rk4_order(self):
        sys = catalog.SystemId("toda", "a", 2)
        vf = catalog.flow(sys, 2)

        def drift(h):
            traj = flows.integrate(vf, [1.0, 0.3, -0.2], 5.0, h)
            return flows.monitors(traj, sys).max_hamiltonian_drift

        ratio = drift(4e-3) / drift(2e-3)
        assert 12.0 <= ratio <= 20.0

    def test_flow_self_commutation(self, rng):
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        d = flows.commutation_check(T3, [catalog.flow(T3, 2), catalog.flow(T3, 2)], x0, 0.5, 1e-3)
        assert d < 1e-12

    def test_h2_h3_flows_commute(self, rng):
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        d = flows.commutation_check(T3, [catalog.flow(T3, 2), catalog.flow(T3, 3)], x0, 0.5, 1e-3)
        assert d < 1e-6

    def test_bihamiltonian_flows_coincide_numerically(self, rng):
        # pi2 dH1 and pi1 dH2 are the same field; integrate both exactly
        f1 = hamiltonian_vf(catalog.tensor(T3, 2), catalog.hamiltonian(T3, 1))
        f2 = hamiltonian_vf(catalog.tensor(T3, 1), catalog.hamiltonian(T3, 2))
        assert f1 == f2
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        t1 = flows.integrate(f1, x0, 2.0, 1e-3)
        t2 = flows.integrate(f2, x0, 2.0, 1e-3)
        assert np.allclose(t1.states, t2.states, atol=1e-14)


class TestCsv:
    def test_header_and_decimation(self):
        sys = catalog.SystemId("toda", "a", 2)
        traj = flows.integrate(catalog.flow(sys, 2), [1.0, 0.1, -0.1], 0.1, 0.01)
        text = flows.trajectory_csv(traj, sys, decimate=5)
        lines = text.strip().splitlines()
        assert lines[0] == "t,a1,b1,b2,H1,H2,c1_drift,c2_drift"
        assert len(lines) == 1 + 3  # header + rows 0, 5, 10

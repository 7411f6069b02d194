from fractions import Fraction

import pytest

from todavolterra import catalog, reduction
from todavolterra.polyalg import GaussianRational, Poly
from todavolterra.poisson import (
    bracket,
    directional_action,
    hamiltonian_vf,
    is_poisson,
    lie_derivative_bivector,
)

from conftest import compose, entry_named, powers, sid


class TestSystemId:
    def test_parse_round_trip(self):
        for text in ("toda-a:3", "toda-b:2", "volterra-a:7", "volterra-b:4"):
            assert str(catalog.parse_system(text)) == text

    def test_bad_ids(self):
        for text in ("toda:3", "toda-a", "toda-x:3", "volterra-a:1"):
            with pytest.raises(ValueError):
                catalog.parse_system(text)


class TestVariables:
    def test_toda_a(self):
        assert catalog.variables(sid("toda-a:3")) == ("a1", "a2", "b1", "b2", "b3")

    def test_volterra_b_smallest(self):
        assert catalog.variables(sid("volterra-b:1")) == ("a1",)

    def test_toda_b(self):
        assert catalog.variables(sid("toda-b:2")) == ("a1", "a2", "b1", "b2")
        assert catalog.lax_size(sid("toda-b:2")) == 5


class TestLax:
    def test_toda_a_2(self):
        L = catalog.lax(sid("toda-a:2"))
        vs = catalog.variables(sid("toda-a:2"))
        assert [[str(p) for p in row] for row in L] == [["b1", "a1"], ["1", "b2"]]

    def test_volterra_a_2(self):
        L = catalog.lax(sid("volterra-a:2"))
        assert [[str(p) for p in row] for row in L] == [["0", "a1"], ["1", "0"]]

    def test_toda_b_1(self):
        L = catalog.lax(sid("toda-b:1"))
        assert [[str(p) for p in row] for row in L] == [
            ["b1", "a1", "0"],
            ["1", "0", "-a1"],
            ["0", "-1", "-b1"],
        ]

    def test_volterra_b_superdiagonal_mirror(self):
        L = catalog.lax(sid("volterra-b:2"))
        sup = [str(L[i][i + 1]) for i in range(4)]
        assert sup == ["a1", "a2", "-a2", "-a1"]

    @pytest.mark.parametrize("name", [f"{f}-{k}" for f in ("toda", "volterra") for k in "abc"])
    def test_bands_are_those_of_the_dense_matrix(self, name):
        # the band rule against `lax`: L[i][i] and L[i][i+1] L[i+1][i] at every i
        for n in range(2, 7):
            sys = sid(f"{name}:{n}")
            L, vars_ = catalog.lax(sys), catalog.variables(sys)
            diagonal, edges = catalog.lax_bands(sys)
            signed = {i: Poly.var(vars_, v).scale(c) for i, (c, v) in diagonal.items()}
            N, zero = catalog.lax_size(sys), Poly.zero(vars_)
            assert [L[i][i] for i in range(N)] == [signed.get(i, zero) for i in range(N)]
            assert sorted(edges) == list(range(N - 1))
            for i, (c, v) in edges.items():
                assert L[i][i + 1] * L[i + 1][i] == Poly.var(vars_, v).scale(c), (sys, i)
            assert (not diagonal) == (sys.family == "volterra")


class TestHamiltonians:
    def test_toda_a_h2(self):
        h2 = catalog.hamiltonian(sid("toda-a:2"), 2)
        assert h2.canonical_str() == "a1 + 1/2*b1^2 + 1/2*b2^2"

    def test_toda_b_odd_traces_vanish(self):
        assert catalog.hamiltonian(sid("toda-b:1"), 1).is_zero
        assert catalog.hamiltonian(sid("toda-b:2"), 3).is_zero

    def test_toda_b_h2(self):
        assert catalog.hamiltonian(sid("toda-b:1"), 2).canonical_str() == "2*a1 + b1^2"

    def test_volterra_h2_is_sum_of_a(self):
        h2 = catalog.hamiltonian(sid("volterra-a:5"), 2)
        assert h2.canonical_str() == "a1 + a2 + a3 + a4"

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_master_symmetry_raises_the_hierarchy(self, n):
        """Z1(H_l) = (l + 1) H_{l+1} for l = 1..7, the rule of which
        `checks.HAMILTONIAN_DEFORMATIONS` states the first three rows."""
        sys = catalog.SystemId("toda", "a", n)
        Z1 = catalog.master_symmetry(sys)
        H = {l: catalog.hamiltonian(sys, l) for l in range(1, 9)}
        for l in range(1, 8):
            assert directional_action(Z1, H[l]) == H[l + 1].scale(l + 1), l


class TestTensors:
    def test_unsupported_combination_named(self):
        with pytest.raises(ValueError, match="pi_2"):
            catalog.tensor(catalog.SystemId("toda", "b", 2), 2)

    def test_cubic_entry_value(self):
        # the recursion-pinned cubic bracket: {a1, b1}^3 = a1 b1^2 + a1^2
        # (opposite overall sign to the commonly printed table, which fails
        # the ladder pi3 dH1 = pi2 dH2; see the decisions notes)
        sys = catalog.SystemId("toda", "a", 2)
        assert entry_named(catalog.tensor(sys, 3), "a1", "b1").canonical_str() == "a1^2 + a1*b1^2"

    def test_cubic_matches_recursion(self):
        for n in (2, 3, 4):
            sys = catalog.SystemId("toda", "a", n)
            Z1 = catalog.master_symmetry(sys)
            assert catalog.tensor(sys, 3) == lie_derivative_bivector(
                Z1, catalog.tensor(sys, 2)
            ).scale(-1)

    def test_quartic_volterra_entries(self):
        sys = catalog.SystemId("volterra", "a", 5)
        assert entry_named(catalog.tensor(sys, 4), "a1", "a3").canonical_str() == "-a1*a2*a3"

    def test_quartic_pinned_by_ladder(self):
        for N in (4, 5, 6, 7):
            sys = catalog.SystemId("volterra", "a", N)
            lhs = hamiltonian_vf(catalog.tensor(sys, 4), catalog.hamiltonian(sys, 2))
            rhs = hamiltonian_vf(catalog.tensor(sys, 2), catalog.hamiltonian(sys, 4))
            assert lhs == rhs

    def test_volterra_b_boundary_entry(self):
        sys = catalog.SystemId("volterra", "b", 2)
        entry = entry_named(catalog.tensor(sys, 4), "a1", "a2")
        assert entry.canonical_str() == "-1/2*a1^2*a2 - a1*a2^2"

    def test_toda_b_tensors_frozen_from_reduction(self):
        # the closed forms stored in the catalog equal the live reduction
        for n in (1, 2, 3):
            sys_a = catalog.SystemId("toda", "a", 2 * n + 1)
            group = catalog.symmetry_group("phi_toda", sys_a)
            for k in (1, 3):
                red = reduction.reduced_bracket(catalog.tensor(sys_a, k), group)
                assert red == catalog.tensor(catalog.SystemId("toda", "b", n), k), (n, k)

    def test_volterra_b_frozen_from_reduction(self):
        for n in (1, 2, 3, 4):
            sys_a = catalog.SystemId("volterra", "a", 2 * n + 1)
            group = catalog.symmetry_group("phi_volterra", sys_a)
            red = reduction.reduced_bracket(catalog.tensor(sys_a, 4), group)
            assert red == catalog.tensor(catalog.SystemId("volterra", "b", n), 4), n


class TestSpecialFields:
    def test_master_symmetry_n2(self):
        # b-components match the printed table; the a-component coefficient
        # of b_{i+1} is 3+2i (the value forced by the deformation relations)
        Z1 = catalog.master_symmetry(catalog.SystemId("toda", "a", 2))
        assert Z1.variables == ("a1", "b1", "b2")
        assert [p.canonical_str() for p in Z1.components] == [
            "-a1*b1 + 5*a1*b2", "4*a1 + b1^2", "-2*a1 + b2^2",
        ]

    def test_bn_volterra_flow_smallest(self):
        f = catalog.bn_volterra_flow(1)
        assert f.components[0].canonical_str() == "a1^2"

    def test_bn_volterra_flow_is_km_restriction(self):
        for n in (1, 2, 3):
            N = 2 * n + 1
            km = catalog.flow(catalog.SystemId("volterra", "a", N), 2)
            group = catalog.symmetry_group("phi_volterra", catalog.SystemId("volterra", "a", N))
            chart = reduction.fixed_point_chart(group)
            bn = catalog.bn_volterra_flow(n)
            for i in range(1, n + 1):
                assert chart.restrict(km.component(f"a{i}")) == bn.component(f"a{i}")

    @pytest.mark.parametrize("name", ["volterra-b", "volterra-c"])
    def test_b_type_flow_is_its_lattice_equations(self, name):
        assert catalog.flow(sid(f"{name}:3"), 2) == catalog.bn_volterra_flow(3)
        with pytest.raises(ValueError, match="only its lattice equations"):
            catalog.flow(sid(f"{name}:3"), 3)

    def test_km_flow(self):
        sys = catalog.SystemId("volterra", "a", 4)
        f = catalog.flow(sys, 2)
        assert f.component("a1").canonical_str() == "-a1*a2"
        assert f.component("a2").canonical_str() == "a1*a2 - a2*a3"


class TestSymmetries:
    def test_psi_images(self):
        psi = catalog.symmetry("psi", sid("toda-a:2"))
        assert psi.images == {
            "a1": ("a1", Fraction(1)),
            "b1": ("b1", Fraction(-1)),
            "b2": ("b2", Fraction(-1)),
        }

    def test_phi_is_involution(self):
        assert len(powers(catalog.symmetry_group("phi_toda", sid("toda-a:5")).generator)) == 2

    def test_phi_tilde_structure(self):
        sys = catalog.SystemId("toda", "a", 5)
        pt = catalog.symmetry("phi_tilde", sys)
        assert len(powers(catalog.symmetry_group("phi_tilde", sys).generator)) == 4
        assert compose(pt, pt) == catalog.symmetry("psi", sys)
        # restriction to the zero-diagonal subspace is the a-mirror with sign
        for i in range(1, 5):
            src, c = pt.images[f"a{i}"]
            assert (src, c) == (f"a{5 - i}", GaussianRational.of(-1))

    def test_phi_tilde_needs_odd_size(self):
        with pytest.raises(ValueError):
            catalog.symmetry("phi_tilde", sid("toda-a:4"))


class TestI4:
    def test_values(self):
        assert catalog.i4_hamiltonian(1).is_zero
        assert catalog.i4_hamiltonian(2).canonical_str() == "1/2*a1^2 + 1/4*a1*a2"
        assert catalog.i4_hamiltonian(3).canonical_str() == (
            "1/2*a1^2 + 1/4*a1*a2 + 1/2*a2^2 + 1/4*a2*a3"
        )

    def test_casimir_h1_of_linear_bracket(self):
        for n in (2, 3, 4):
            sys = catalog.SystemId("toda", "a", n)
            X = hamiltonian_vf(catalog.tensor(sys, 1), catalog.hamiltonian(sys, 1))
            assert X.is_zero

    def test_involution_of_integrals(self):
        sys = catalog.SystemId("toda", "a", 3)
        hs = [catalog.hamiltonian(sys, k) for k in (1, 2, 3)]
        for k in (1, 2, 3):
            pi = catalog.tensor(sys, k)
            for Hi in hs:
                for Hj in hs:
                    assert bracket(pi, Hi, Hj).is_zero

    def test_involution_of_integrals_volterra(self):
        for system in ("volterra-a:6", "volterra-b:3"):
            sys = catalog.parse_system(system)
            ks = (2, 4) if sys.kind == "a" else (4, 8)
            hs = [catalog.hamiltonian(sys, k) for k in ks]
            brackets = (2, 4) if sys.kind == "a" else (4,)
            for k in brackets:
                pi = catalog.tensor(sys, k)
                for Hi in hs:
                    for Hj in hs:
                        assert bracket(pi, Hi, Hj).is_zero


class TestTodaC:
    def test_variables_and_lax(self):
        assert catalog.variables(sid("toda-c:2")) == ("a1", "a2", "b1", "b2")
        L = catalog.lax(sid("toda-c:2"))
        assert len(L) == 4
        sup = [str(L[i][i + 1]) for i in range(3)]
        assert sup == ["a1", "a2", "a1"]

    def test_c_lattice_from_even_mirror_reduction(self):
        # the odd brackets on the even-size chain reduce to the C-type space
        for n in (1, 2):
            sys_a = catalog.SystemId("toda", "a", 2 * n)
            group = catalog.symmetry_group("phi_toda", sys_a)
            red = reduction.reduced_bracket(catalog.tensor(sys_a, 1), group)
            assert is_poisson(red)
            assert red.variables == catalog.variables(catalog.SystemId("toda", "c", n))

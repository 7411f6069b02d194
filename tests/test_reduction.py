from fractions import Fraction

import pytest

from todavolterra import catalog, reduction
from todavolterra.cli import main
from todavolterra.polyalg import Poly
from todavolterra.poisson import LinearMap, PoissonTensor, bracket, hamiltonian_vf, is_poisson
from todavolterra.reduction import (
    FiniteGroupAction,
    FixedPointChart,
    NotPoissonActionError,
    ReductionReport,
    fixed_point_chart,
    invariant_average,
    reduced_bracket,
    verify_reduction,
)

from conftest import random_poly


def constraints(chart: FixedPointChart) -> list[Poly]:
    """Ambient linear forms vanishing exactly on the fixed-point set."""
    out = []
    for v in chart.ambient_variables:
        diff = Poly.var(chart.ambient_variables, v) - chart.lift(chart.section[v])
        if not diff.is_zero:
            out.append(diff)
    return out


def psi_group(N):
    return FiniteGroupAction(catalog.symmetry_group("psi", catalog.SystemId("toda", "a", N)))


def phi_group(N):
    return FiniteGroupAction(
        catalog.symmetry_group("phi_toda", catalog.SystemId("toda", "a", N))
    )


class TestGroupAction:
    def test_closure_required(self):
        sys = catalog.SystemId("toda", "a", 3)
        psi = catalog.symmetry("psi", sys)
        with pytest.raises(ValueError):
            FiniteGroupAction([psi])  # no identity


class TestChart:
    def test_psi_chart_kills_b(self):
        chart = fixed_point_chart(psi_group(3))
        assert chart.reduced_variables == ("a1", "a2")
        assert chart.section["b1"].is_zero
        assert chart.section["a1"] == Poly.var(("a1", "a2"), "a1")

    def test_phi_chart_on_five_sites(self):
        chart = fixed_point_chart(phi_group(5))
        red = chart.reduced_variables
        assert red == ("a1", "a2", "b1", "b2")
        assert chart.section["a4"] == Poly.var(red, "a1")
        assert chart.section["a3"] == Poly.var(red, "a2")
        assert chart.section["b3"].is_zero
        assert chart.section["b5"] == Poly.var(red, "b1").scale(-1)

    def test_projection_section_identity(self):
        chart = fixed_point_chart(phi_group(5))
        for u in chart.reduced_variables:
            f = Poly.var(chart.reduced_variables, u)
            assert chart.restrict(chart.lift(f)) == f

    def test_group_fixes_section_image(self):
        group = phi_group(5)
        chart = fixed_point_chart(group)
        for g in group.elements:
            for v in chart.ambient_variables:
                # (x o g) restricted to the image equals x restricted
                lhs = chart.restrict(Poly.var(chart.ambient_variables, v).subst_linear(g.images))
                assert lhs == chart.restrict(Poly.var(chart.ambient_variables, v))


class TestInvariantAverage:
    def test_odd_function_averages_to_zero(self):
        group = psi_group(3)
        vs = group.variables
        assert invariant_average(Poly.var(vs, "b1"), group).is_zero

    def test_invariant_function_unchanged(self):
        group = psi_group(3)
        vs = group.variables
        assert invariant_average(Poly.var(vs, "a1"), group) == Poly.var(vs, "a1")

    def test_mirror_average(self):
        group = phi_group(5)
        vs = group.variables
        avg = invariant_average(Poly.var(vs, "a1"), group)
        expect = (Poly.var(vs, "a1") + Poly.var(vs, "a4")).scale(Fraction(1, 2))
        assert avg == expect

    def test_result_is_invariant(self, rng):
        group = phi_group(5)
        vs = group.variables
        for _ in range(10):
            F = random_poly(rng, vs)
            avg = invariant_average(F, group)
            for g in group.elements:
                assert avg.subst_linear(g.images) == avg


class TestReducedBracket:
    def test_quadratic_to_volterra(self):
        for N in (3, 4, 5):
            red = reduced_bracket(catalog.tensor(catalog.SystemId("toda", "a", N), 2), psi_group(N))
            assert red == catalog.tensor(catalog.SystemId("volterra", "a", N), 2)

    def test_trivial_group(self):
        sys = catalog.SystemId("toda", "a", 3)
        pi = catalog.tensor(sys, 2)
        G = FiniteGroupAction([LinearMap.identity(pi.variables)])
        assert reduced_bracket(pi, G) == pi

    def test_cubic_to_b_type(self):
        sys_a = catalog.SystemId("toda", "a", 5)
        red = reduced_bracket(catalog.tensor(sys_a, 3), phi_group(5))
        assert red == catalog.tensor(catalog.SystemId("toda", "b", 2), 3)
        # the distinguished corner entry carries the doubled a^2 term
        assert red.entry_named("a2", "b2").canonical_str() == "a2^2 + 1/2*a2*b2^2"

    def test_rejects_anti_invariant_tensor(self):
        sys = catalog.SystemId("toda", "a", 3)
        with pytest.raises(NotPoissonActionError):
            reduced_bracket(catalog.tensor(sys, 1), psi_group(3))

    def test_reduced_is_poisson(self):
        red = reduced_bracket(
            catalog.tensor(catalog.SystemId("volterra", "a", 7), 4),
            FiniteGroupAction(
                catalog.symmetry_group(
                    "phi_volterra", catalog.SystemId("volterra", "a", 7)
                )
            ),
        )
        assert is_poisson(red)

    def test_builds_no_field_for_the_first_lift(self, monkeypatch, capsys):
        # entry (i, j) reads the field of lifts[j], j >= 1: one field per
        # reduced variable but the first (12 variables here)
        calls = []
        real = reduction.hamiltonian_vf
        monkeypatch.setattr(reduction, "hamiltonian_vf",
                            lambda pi, G: calls.append(G) or real(pi, G))
        argv = ["reduce", "--system", "toda-a:13", "--map", "phi_toda", "--bracket", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 11

    def test_hamiltonian_fields_tangent(self, rng):
        # for invariant F the pi-field of F is tangent to the fixed-point set:
        # applying the field to any constraint form vanishes on the image
        group = phi_group(5)
        chart = fixed_point_chart(group)
        pi = catalog.tensor(catalog.SystemId("toda", "a", 5), 3)
        for _ in range(6):
            F = invariant_average(random_poly(rng, group.variables, max_exp=1), group)
            X = hamiltonian_vf(pi, F)
            for constraint in constraints(chart):
                from todavolterra.poisson import directional_action

                assert chart.restrict(directional_action(X, constraint)).is_zero

    def test_well_defined_across_lifts(self, rng):
        # two invariant lifts differing by an (averaged) multiple of a
        # constraint give the same restricted bracket
        group = phi_group(5)
        chart = fixed_point_chart(group)
        pi = catalog.tensor(catalog.SystemId("toda", "a", 5), 3)
        red_vars = chart.reduced_variables
        u, v = Poly.var(red_vars, "a1"), Poly.var(red_vars, "b2")
        lift_u = invariant_average(chart.lift(u), group)
        lift_v = invariant_average(chart.lift(v), group)
        base = chart.restrict(bracket(pi, lift_u, lift_v))
        forms = constraints(chart)
        for _ in range(6):
            noise = random_poly(rng, group.variables, max_terms=2, max_exp=1)
            extra = invariant_average(forms[0] * noise, group)
            assert chart.restrict(extra).is_zero
            assert chart.restrict(bracket(pi, lift_u + extra, lift_v)) == base


class TestOneStageVsTwoStage:
    @pytest.mark.parametrize("n", [1, 2])
    def test_gaussian_four_group_matches_two_involutions(self, n):
        N = 2 * n + 1
        sys_t = catalog.SystemId("toda", "a", N)
        # one stage: the order-4 twist group on the embedded quartic tensor
        one = reduced_bracket(
            catalog.embedded_volterra_tensor(N, 4),
            FiniteGroupAction(catalog.symmetry_group("phi_tilde", sys_t)),
        )
        # two stages: b-sign flip down to the Volterra space, then the mirror
        stage1 = reduced_bracket(catalog.embedded_volterra_tensor(N, 4), psi_group(N))
        assert stage1 == catalog.tensor(catalog.SystemId("volterra", "a", N), 4)
        stage2 = reduced_bracket(
            stage1,
            FiniteGroupAction(
                catalog.symmetry_group(
                    "phi_volterra", catalog.SystemId("volterra", "a", N)
                )
            ),
        )
        assert one == stage2
        assert stage2 == catalog.tensor(catalog.SystemId("volterra", "b", n), 4)


class TestVerifyReduction:
    def test_matching_report(self):
        sys_a = catalog.SystemId("volterra", "a", 5)
        group = FiniteGroupAction(catalog.symmetry_group("phi_volterra", sys_a))
        report = verify_reduction(
            catalog.tensor(sys_a, 4),
            group,
            catalog.tensor(catalog.SystemId("volterra", "b", 2), 4),
        )
        assert report.matches and report.diffs == []

    def test_mismatch_report_lists_entries(self):
        sys_a = catalog.SystemId("volterra", "a", 5)
        group = FiniteGroupAction(catalog.symmetry_group("phi_volterra", sys_a))
        wrong = catalog.tensor(catalog.SystemId("volterra", "b", 2), 4).scale(2)
        report = verify_reduction(catalog.tensor(sys_a, 4), group, wrong)
        assert not report.matches
        assert report.diffs[0]["i"] == 1 and report.diffs[0]["j"] == 2
        assert "expected" in report.diffs[0] and "got" in report.diffs[0]

    @pytest.mark.parametrize("drop, add", [((0, 1), None), (None, (0, 3)), ((1, 2), (0, 3))])
    def test_diffs_cover_entries_stored_on_one_side(self, drop, add):
        # the report compares the entries either tensor stores; it must list
        # what comparing every pair lists, in the same order
        sys_a = catalog.SystemId("volterra", "a", 9)
        group = FiniteGroupAction(catalog.symmetry_group("phi_volterra", sys_a))
        pi = catalog.tensor(sys_a, 4)
        expected = catalog.tensor(catalog.SystemId("volterra", "b", 4), 4)
        upper = dict(expected.upper)
        if drop:
            del upper[drop]
        if add:
            upper[add] = Poly.var(expected.variables, "a1")
        bent = PoissonTensor(expected.variables, upper)
        got = reduced_bracket(pi, group)
        want = [
            {"i": i + 1, "j": j + 1, "expected": bent.entry(i, j).canonical_str(),
             "got": got.entry(i, j).canonical_str()}
            for i in range(got.dim) for j in range(i + 1, got.dim)
            if bent.entry(i, j) != got.entry(i, j)
        ]
        report = verify_reduction(pi, group, bent)
        assert not report.matches
        assert report.diffs == want and len(want) == (drop is not None) + (add is not None)

    def test_identity_case(self):
        sys = catalog.SystemId("toda", "a", 3)
        pi = catalog.tensor(sys, 2)
        G = FiniteGroupAction([LinearMap.identity(pi.variables)])
        assert verify_reduction(pi, G, pi).matches

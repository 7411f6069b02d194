import sys
from fractions import Fraction

import pytest

from todavolterra import catalog, checks, reduction
from todavolterra.cli import main
from todavolterra.polyalg import I_UNIT, Poly
from todavolterra.poisson import (
    LinearMap, PoissonTensor, bracket, hamiltonian_vf, is_poisson, pushforward_bivector,
    pushforward_sign)
from todavolterra.reduction import (
    FiniteGroupAction,
    FixedPointChart,
    NotPoissonActionError,
    fixed_point_chart,
    reduced_bracket,
    verify_reduction,
)

from conftest import (
    MIXED_CYCLES, compose, entry_named, identity, invariant_average, is_identity, lift,
    old_reduced_bracket, powers, random_poly)


def constraints(chart: FixedPointChart) -> list[Poly]:
    """Ambient linear forms vanishing exactly on the fixed-point set."""
    out = []
    for v in chart.ambient_variables:
        w, c = chart.section[v]
        diff = Poly.var(chart.ambient_variables, v) - Poly.var(chart.ambient_variables, w).scale(c)
        if not diff.is_zero:
            out.append(diff)
    return out


def psi_group(N):
    return catalog.symmetry_group("psi", catalog.SystemId("toda", "a", N))


def phi_group(N):
    return catalog.symmetry_group("phi_toda", catalog.SystemId("toda", "a", N))


# The order of each catalog symmetry, and (map, system) at sizes of both
# parities; phi_tilde acts on odd sizes only.
ORDERS = {"psi": 2, "phi_toda": 2, "phi_volterra": 2, "phi_tilde": 4}
GROUP_CASES = [
    (name, catalog.SystemId(*acts_on.split()[-1].split("-"), N))
    for name, (acts_on, *_) in catalog.SYMMETRIES.items()
    for N in range(2, 10)
    if N % 2 or not acts_on.startswith("odd-size")
]


class TestGroupAction:
    @pytest.mark.parametrize("name, sys", GROUP_CASES, ids=str)
    def test_generated_group_is_closed(self, name, sys):
        # the closure the element-list constructor checked at run time
        group = catalog.symmetry_group(name, sys)
        elements = powers(group.generator)
        assert group.generator == catalog.symmetry(name, sys)
        assert elements[0] == identity(catalog.variables(sys))
        assert not any(is_identity(g) for g in elements[1:])
        assert len(elements) == ORDERS[name]
        for g in elements:
            for h in elements:
                assert any(compose(g, h) == e for e in elements)

    @pytest.mark.parametrize("images", [
        {"a1": ("a1", 2)},
        {"a1": ("a2", 2), "a2": ("a1", 1)},
        {"a1": ("a1", 1), "a2": ("a2", 1 + I_UNIT)},
    ], ids=["scale 2", "swap, product 2", "fixed, scale 1+i"])
    def test_infinite_order_raises(self, images):
        # the power loop would never meet the identity; the cycle check raises at once
        with pytest.raises(ValueError, match="infinite order"):
            FiniteGroupAction(LinearMap(sorted(images), images))

    @pytest.mark.parametrize("images, order", [
        ({"a1": ("a2", 2), "a2": ("a1", Fraction(1, 2))}, 2),
        ({"a1": ("a2", 2), "a2": ("a1", Fraction(-1, 2))}, 4),
        ({"a1": ("a1", I_UNIT), "a2": ("a2", -I_UNIT)}, 4),
        (MIXED_CYCLES.images, 6),
    ], ids=["swap 2, 1/2", "swap 2, -1/2", "scales i, -i", "mixed cycles"])
    def test_finite_order_is_accepted(self, images, order):
        group = FiniteGroupAction(LinearMap(sorted(images), images))
        elements = powers(group.generator)
        assert len(elements) == order
        assert not any(is_identity(g) for g in elements[1:])

    def test_orders(self):
        assert list(ORDERS) == list(catalog.SYMMETRIES)
        assert list(ORDERS.values()) == [2, 2, 2, 4]
        assert len(GROUP_CASES) == 28


class TestChart:
    def test_psi_chart_kills_b(self):
        chart = fixed_point_chart(psi_group(3))
        assert chart.reduced_variables == ("a1", "a2")
        assert chart.section == {"a1": ("a1", 1), "a2": ("a2", 1),
                                 "b1": ("b1", 0), "b2": ("b2", 0), "b3": ("b3", 0)}

    def test_phi_chart_on_five_sites(self):
        chart = fixed_point_chart(phi_group(5))
        red = chart.reduced_variables
        assert red == ("a1", "a2", "b1", "b2")
        assert chart.section == {"a1": ("a1", 1), "a2": ("a2", 1), "a3": ("a2", 1),
                                 "a4": ("a1", 1), "b1": ("b1", 1), "b2": ("b2", 1),
                                 "b3": ("b3", 0), "b4": ("b2", -1), "b5": ("b1", -1)}

    def test_projection_section_identity(self):
        chart = fixed_point_chart(phi_group(5))
        for u in chart.reduced_variables:
            f = Poly.var(chart.reduced_variables, u)
            assert chart.restrict(lift(chart, f)) == f

    def test_restricted_exponent_above_the_limit_raises(self):
        # a4 = a1 on the fixed-point set: a1^20000 a4^20000 restricts to a1^40000
        chart = fixed_point_chart(phi_group(5))
        expo = [0] * len(chart.ambient_variables)
        expo[0] = expo[3] = 20000
        with pytest.raises(OverflowError):
            chart.restrict(Poly(chart.ambient_variables, {tuple(expo): 1}))

    def test_group_fixes_section_image(self):
        group = phi_group(5)
        chart = fixed_point_chart(group)
        for g in powers(group.generator):
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
            for g in powers(group.generator):
                assert avg.subst_linear(g.images) == avg


class TestReducedBracket:
    def test_quadratic_to_volterra(self):
        for N in (3, 4, 5):
            red = reduced_bracket(catalog.tensor(catalog.SystemId("toda", "a", N), 2), psi_group(N))
            assert red == catalog.tensor(catalog.SystemId("volterra", "a", N), 2)

    def test_trivial_group(self):
        sys = catalog.SystemId("toda", "a", 3)
        pi = catalog.tensor(sys, 2)
        G = FiniteGroupAction(identity(pi.variables))
        assert reduced_bracket(pi, G) == pi

    def test_cubic_to_b_type(self):
        sys_a = catalog.SystemId("toda", "a", 5)
        red = reduced_bracket(catalog.tensor(sys_a, 3), phi_group(5))
        assert red == catalog.tensor(catalog.SystemId("toda", "b", 2), 3)
        # the distinguished corner entry carries the doubled a^2 term
        assert entry_named(red, "a2", "b2").canonical_str() == "a2^2 + 1/2*a2*b2^2"

    def test_poisson_action_checked_on_the_generator_only(self, monkeypatch):
        # (g^k)_* = (g_*)^k: the order-4 twist needs one pushforward, not four
        pushed = []
        real = reduction.pushforward_sign
        monkeypatch.setattr(reduction, "pushforward_sign",
                            lambda g, pi: pushed.append(g) or real(g, pi))
        group = catalog.symmetry_group("phi_tilde", catalog.SystemId("toda", "a", 5))
        reduced_bracket(catalog.embedded_volterra_tensor(5, 4), group)
        assert pushed == [group.generator]

    def test_rejects_anti_invariant_tensor(self):
        sys = catalog.SystemId("toda", "a", 3)
        with pytest.raises(NotPoissonActionError):
            reduced_bracket(catalog.tensor(sys, 1), psi_group(3))

    def test_reduced_is_poisson(self):
        red = reduced_bracket(
            catalog.tensor(catalog.SystemId("volterra", "a", 7), 4),
            catalog.symmetry_group("phi_volterra", catalog.SystemId("volterra", "a", 7)),
        )
        assert is_poisson(red)

    def test_builds_no_field_and_no_action(self, monkeypatch, capsys):
        # one pass over the stored entries: no Hamiltonian field and no
        # directional derivative, under any name a module binds them to
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("todavolterra"):
                for op in ("hamiltonian_vf", "directional_action"):
                    if hasattr(module, op):
                        monkeypatch.setattr(module, op, lambda *a, op=op: calls.append(op))
        argv = ["reduce", "--system", "toda-a:13", "--map", "phi_toda", "--bracket", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []
        assert not hasattr(reduction, "invariant_average")
        assert not hasattr(FixedPointChart, "lift")

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
        lift_u = invariant_average(lift(chart, u), group)
        lift_v = invariant_average(lift(chart, v), group)
        base = chart.restrict(bracket(pi, lift_u, lift_v))
        forms = constraints(chart)
        for _ in range(6):
            noise = random_poly(rng, group.variables, max_terms=2, max_exp=1)
            extra = invariant_average(forms[0] * noise, group)
            assert chart.restrict(extra).is_zero
            assert chart.restrict(bracket(pi, lift_u + extra, lift_v)) == base


def random_invariant_tensor(rng, group: FiniteGroupAction) -> PoissonTensor:
    """The group average of g_* pi for a random bivector pi, some of whose
    entries are Gaussian: every g in the group pushes it forward to itself.
    The constant terms survive restriction to the fixed-point set."""
    vs = group.variables
    upper = {(i, j): (random_poly(rng, vs, max_terms=2, max_exp=1)
                      + Poly.const(vs, rng.randint(-2, 2))).scale(rng.choice([1, I_UNIT]))
             for i in range(len(vs)) for j in range(i + 1, len(vs)) if rng.random() < 0.5}
    pi, total = PoissonTensor(vs, upper), PoissonTensor(vs, {})
    elements = powers(group.generator)
    for g in elements:
        total = total + pushforward_bivector(g, pi)
    return total.scale(Fraction(1, len(elements)))


class TestAgainstTheAveragingRecipe:
    """`reduced_bracket` equals the recipe it replaced (`old_reduced_bracket`:
    average the lifts, bracket them through Hamiltonian fields, restrict)."""

    @pytest.mark.parametrize("which, n", [(w, n) for w in checks.REDUCTIONS for n in range(1, 7)])
    def test_paper_reductions(self, which, n):
        sys_id, map_name, k, _ = checks.REDUCTIONS[which](n)
        pi, group = checks.ambient_and_group(sys_id, map_name, k)
        assert reduced_bracket(pi, group) == old_reduced_bracket(pi, group)

    @pytest.mark.parametrize("name, sys_id", GROUP_CASES, ids=str)
    def test_every_catalog_bracket_with_a_poisson_action(self, name, sys_id):
        group = catalog.symmetry_group(name, sys_id)
        ks = catalog.BRACKETS["volterra-a" if name == "phi_tilde" else sys_id.name]
        poisson = set()
        for k in ks:
            pi = checks.acted_tensor(sys_id, name, k)
            if pushforward_sign(group.generator, pi) == 1:
                poisson.add(k)
                assert reduced_bracket(pi, group) == old_reduced_bracket(pi, group), k
            else:
                with pytest.raises(NotPoissonActionError):
                    reduced_bracket(pi, group)
        # each map preserves these at every size (phi_volterra keeps pi2 too on volterra-a:2)
        assert {"psi": {2}, "phi_toda": {1, 3}, "phi_volterra": {4}, "phi_tilde": {4}}[name] <= poisson

    @pytest.mark.parametrize("name, sys_id", [
        ("psi", catalog.SystemId("toda", "a", 4)),
        ("phi_toda", catalog.SystemId("toda", "a", 4)),
        ("phi_toda", catalog.SystemId("toda", "a", 5)),
        ("phi_volterra", catalog.SystemId("volterra", "a", 6)),
        ("phi_tilde", catalog.SystemId("toda", "a", 5)),
        ("phi_tilde", catalog.SystemId("toda", "a", 7)),
        ("mixed cycles", None),
    ], ids=str)
    def test_random_invariant_bivectors(self, rng, name, sys_id):
        # the catalog maps have cycles of length <= 2; MIXED_CYCLES has a
        # 3-cycle, a zero cycle and Gaussian scales
        group = (catalog.symmetry_group(name, sys_id) if sys_id
                 else FiniteGroupAction(MIXED_CYCLES))
        nonzero = 0
        for _ in range(6):
            pi = random_invariant_tensor(rng, group)
            got = reduced_bracket(pi, group)
            assert got == old_reduced_bracket(pi, group)
            nonzero += not got.is_zero
        assert nonzero >= 3


class TestOneStageVsTwoStage:
    @pytest.mark.parametrize("n", [1, 2])
    def test_gaussian_four_group_matches_two_involutions(self, n):
        N = 2 * n + 1
        sys_t = catalog.SystemId("toda", "a", N)
        # one stage: the order-4 twist group on the embedded quartic tensor
        one = reduced_bracket(
            catalog.embedded_volterra_tensor(N, 4),
            catalog.symmetry_group("phi_tilde", sys_t),
        )
        # two stages: b-sign flip down to the Volterra space, then the mirror
        stage1 = reduced_bracket(catalog.embedded_volterra_tensor(N, 4), psi_group(N))
        assert stage1 == catalog.tensor(catalog.SystemId("volterra", "a", N), 4)
        stage2 = reduced_bracket(
            stage1,
            catalog.symmetry_group("phi_volterra", catalog.SystemId("volterra", "a", N)),
        )
        assert one == stage2
        assert stage2 == catalog.tensor(catalog.SystemId("volterra", "b", n), 4)


class TestVerifyReduction:
    def test_matching_report(self):
        sys_a = catalog.SystemId("volterra", "a", 5)
        group = catalog.symmetry_group("phi_volterra", sys_a)
        diffs = verify_reduction(
            catalog.tensor(sys_a, 4),
            group,
            catalog.tensor(catalog.SystemId("volterra", "b", 2), 4),
        )
        assert diffs == []

    def test_mismatch_report_lists_entries(self):
        sys_a = catalog.SystemId("volterra", "a", 5)
        group = catalog.symmetry_group("phi_volterra", sys_a)
        wrong = catalog.tensor(catalog.SystemId("volterra", "b", 2), 4).scale(2)
        diffs = verify_reduction(catalog.tensor(sys_a, 4), group, wrong)
        assert diffs
        assert diffs[0]["i"] == 1 and diffs[0]["j"] == 2
        assert "expected" in diffs[0] and "got" in diffs[0]

    @pytest.mark.parametrize("drop, add", [((0, 1), None), (None, (0, 3)), ((1, 2), (0, 3))])
    def test_diffs_cover_entries_stored_on_one_side(self, drop, add):
        # the report compares the entries either tensor stores; it must list
        # what comparing every pair lists, in the same order
        sys_a = catalog.SystemId("volterra", "a", 9)
        group = catalog.symmetry_group("phi_volterra", sys_a)
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
        diffs = verify_reduction(pi, group, bent)
        assert diffs
        assert diffs == want and len(want) == (drop is not None) + (add is not None)

    def test_variable_list_mismatch_report(self):
        # psi reduces toda-a:3 to two variables; a target on three is reported
        # as one row that names both lists
        pi, group = catalog.tensor(catalog.SystemId("toda", "a", 3), 2), psi_group(3)
        wrong = catalog.tensor(catalog.SystemId("volterra", "a", 4), 2)
        assert verify_reduction(pi, group, wrong) == [
            {"i": 0, "j": 0, "expected": "a1,a2,a3", "got": "a1,a2"}]
        right = catalog.tensor(catalog.SystemId("volterra", "a", 3), 2)
        assert verify_reduction(pi, group, right) == []

    def test_identity_case(self):
        sys = catalog.SystemId("toda", "a", 3)
        pi = catalog.tensor(sys, 2)
        G = FiniteGroupAction(identity(pi.variables))
        assert verify_reduction(pi, G, pi) == []

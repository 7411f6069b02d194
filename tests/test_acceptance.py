"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All symbolic criteria are exact (polynomial zero); the numerical criteria
carry the stated float tolerances.  Three sub-items are marked strict-xfail
because the literally quoted values contradict identities enforced elsewhere
in this suite; the catalog follows the identities.  Each xfail reason states
the obstruction; see README "Sign conventions and recorded constants".
"""

import random

import pytest

from todavolterra import bogo, catalog, checks, flows, moser, reduction
from todavolterra.polyalg import Poly
from todavolterra.poisson import hamiltonian_vf, pushforward_sign

from conftest import (
    chain_rule_identity_holds, commutation_check, entry_named, i4_hamiltonian,
    max_charpoly_drift, max_hamiltonian_drift, sid)


def check(criterion: str, description: str, ok: bool):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"{criterion}: {description}"


def check_relations(criterion: str, doc: dict):
    """One line per relation of a `checks` result that lists relations."""
    assert doc["relations"]
    for row in doc["relations"]:
        check(criterion, f"{row['relation']} on {doc['system']}", row["ok"])


def check_sign(criterion: str, system: str, map_name: str, k: int):
    doc = checks.pushforward(sid(system), map_name, k)
    check(
        criterion,
        f"{map_name}_* pi{k} = {doc['expected_sign']} pi{k} on {system}",
        doc["ok"],
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_1_exact_jacobi():
    """Every catalog bracket has exactly zero Jacobiator on toda-a:2..16,
    toda-b:1..12, volterra-a:3..25 and volterra-b:1..12."""
    sizes = {
        "toda-a": range(2, 17),
        "toda-b": range(1, 13),
        "volterra-a": range(3, 26),
        "volterra-b": range(1, 13),
    }
    for name, ns in sizes.items():
        for n in ns:
            for k in catalog.BRACKETS[name]:
                ok = checks.jacobi(sid(f"{name}:{n}"), k)["ok"]
                check("criterion 1", f"jacobiator(pi{k}) = 0 on {name}:{n}", ok)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_compatibility():
    """jacobiator(pi_i + pi_j) = 0 exactly for the compatible pairs
    (toda-a:2..8, volterra-a:3..21)."""
    sizes = {"toda-a": range(2, 9), "volterra-a": range(3, 22)}
    for name, pairs in checks.COMPATIBLE_PAIRS.items():
        for n in sizes[name]:
            for i, j in pairs:
                ok = checks.compatible(sid(f"{name}:{n}"), (i, j))["ok"]
                check("criterion 2", f"{name}:{n} pair ({i},{j})", ok)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_deformation_relations():
    """The master-symmetry deformation relations, exact, on toda-a:2..4."""
    for n in (2, 3, 4):
        check_relations("criterion 3", checks.deformation(sid(f"toda-a:{n}")))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_pushforward_signs():
    """Each map transforms the catalog brackets with its `checks.SIGNS`
    rule; the order-4 twist preserves the embedded quartic tensor."""
    cases = [(f"toda-a:{n}", "psi") for n in (2, 3, 4)]
    cases += [(f"toda-a:{2 * n + 1}", "phi_toda") for n in (1, 2)]
    cases += [(f"volterra-a:{2 * n + 1}", "phi_volterra") for n in (1, 2, 3)]
    for system, map_name in cases:
        for k in catalog.BRACKETS[sid(system).name]:
            check_sign("criterion 4", system, map_name, k)
    for n in (1, 2):
        check_sign("criterion 4", f"toda-a:{2 * n + 1}", "phi_tilde", 4)


@pytest.mark.xfail(
    strict=True,
    reason="the mirror on even-size chains transforms pi_k with sign (-1)^(k+1) "
    "(verified exactly, and required for the C-type lattice to inherit the odd "
    "brackets pi1, pi3); the stated (-1)^k table is incompatible with that",
)
def test_criterion_4_even_mirror_stated_signs():
    """Stated variant: phi_C_* pi_k = (-1)^k pi_k on even chains (k = 1, 2)."""
    for n in (1, 2):
        sys_id = sid(f"toda-a:{2 * n}")
        phi = catalog.symmetry("phi_toda", sys_id)
        for k in (1, 2):
            check(
                "criterion 4 (stated even-mirror signs)",
                f"phi_C_* pi{k} = (-1)^{k} pi{k} on toda-a:{2 * n}",
                pushforward_sign(phi, catalog.tensor(sys_id, k)) == (-1) ** k,
            )


def test_criterion_4_even_mirror_verified_signs():
    """Machine-verified even-mirror signs: the same rule as on odd chains."""
    for N in (2, 4):
        for k in catalog.BRACKETS["toda-a"]:
            check_sign("criterion 4 (verified even-mirror signs)", f"toda-a:{N}", "phi_toda", k)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_reduction_regressions():
    """The four reduction regressions, entrywise exact."""
    sizes = {"psi": (2, 3, 4), "phi": (1, 2), "phi-volterra": (1, 2, 3, 4), "phi-tilde": (1, 2)}
    for which, ns in sizes.items():
        for n in ns:
            ok = checks.fixed_point_reduction(which, n)["ok"]
            check("criterion 5", f"{which}-reduction, n={n}", ok)
    # the distinguished corner entry carries the doubled a^2 term
    red = reduction.reduced_bracket(*checks.ambient_and_group(sid("toda-a:5"), "phi_toda", 3))
    check(
        "criterion 5",
        "corner entry {a_n, b_n} = (1/2)(a_n b_n^2 + 2 a_n^2) up to the global "
        "cubic sign",
        entry_named(red, "a2", "b2").canonical_str() == "a2^2 + 1/2*a2*b2^2",
    )
    # one stage (order-4 twist) equals two stages (two involutions)
    for n in (1, 2):
        N = 2 * n + 1
        sys_t = sid(f"toda-a:{N}")
        one = reduction.reduced_bracket(*checks.ambient_and_group(sys_t, "phi_tilde", 4))
        stage1 = reduction.reduced_bracket(
            catalog.embedded_volterra_tensor(N, 4), catalog.symmetry_group("psi", sys_t)
        )
        stage2 = reduction.reduced_bracket(
            stage1, catalog.symmetry_group("phi_volterra", sid(f"volterra-a:{N}"))
        )
        check(
            "criterion 5",
            f"one-stage (order 4) = two-stage (two involutions) on pi4, n={n}",
            one == stage2,
        )


@pytest.mark.xfail(
    strict=True,
    reason="the commonly printed cubic/quartic tables carry the opposite global "
    "sign to the master-symmetry recursion pi3 = -L_Z1 pi2 and the ladders of "
    "criteria 3 and 6, which this catalog satisfies exactly; the reductions "
    "reproduce those tables only up to that single global sign",
)
def test_criterion_5_literal_printed_entries():
    """Literally quoted reduced entries: {a_n,b_n}^3 = -1/2(a_n b_n^2 + 2a_n^2)
    and {a_{n-1},a_n}^4 = +1/2 a_{n-1} a_n (a_{n-1} + 2 a_n)."""
    red3 = reduction.reduced_bracket(
        catalog.tensor(sid("toda-a:5"), 3), catalog.symmetry_group("phi_toda", sid("toda-a:5"))
    )
    check(
        "criterion 5 (literal signs)",
        "{a2, b2}^3 = -1/2*a2*b2^2 - a2^2",
        entry_named(red3, "a2", "b2").canonical_str() == "-a2^2 - 1/2*a2*b2^2",
    )
    red4 = reduction.reduced_bracket(
        catalog.tensor(sid("volterra-a:5"), 4),
        catalog.symmetry_group("phi_volterra", sid("volterra-a:5")),
    )
    check(
        "criterion 5 (literal signs)",
        "{a1, a2}^4 = 1/2*a1*a2*(a1 + 2*a2)",
        entry_named(red4, "a1", "a2").canonical_str() == "1/2*a1^2*a2 + a1*a2^2",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_multi_hamiltonian_ladders():
    """The bi-Hamiltonian ladders on toda-a:2..4, toda-b:1..3 and
    volterra-a:4..7; hamiltonian_vf(pi2, H2) = KM; exact."""
    systems = [f"toda-a:{n}" for n in (2, 3, 4)]
    systems += [f"toda-b:{n}" for n in (1, 2, 3)]
    systems += [f"volterra-a:{N}" for N in (4, 5, 6, 7)]
    for system in systems:
        check_relations("criterion 6", checks.ladder(sid(system)))
    # the quadratic bracket generates the lattice equations themselves
    for N in (4, 5, 6):
        sys_id = sid(f"volterra-a:{N}")
        vs = catalog.variables(sys_id)
        X = hamiltonian_vf(catalog.tensor(sys_id, 2), catalog.hamiltonian(sys_id, 2))
        expected = []
        for i in range(1, N):
            rhs = Poly.zero(vs)
            ai = Poly.var(vs, f"a{i}")
            if i > 1:
                rhs = rhs + ai * Poly.var(vs, f"a{i - 1}")
            if i < N - 1:
                rhs = rhs - ai * Poly.var(vs, f"a{i + 1}")
            expected.append(rhs)
        check(
            "criterion 6",
            f"volterra-a:{N} pi2 dH2 = a_i(a_(i-1) - a_(i+1))",
            list(X.components) == expected,
        )


@pytest.mark.xfail(
    strict=True,
    reason="degree obstruction: the quartic B-type bracket has cubic entries and "
    "I4 is quadratic, so hamiltonian_vf(pi4, I4) is homogeneous of degree 4 "
    "while the B-type lattice equations are quadratic; no scalar can relate "
    "them (already visible at n=1, where pi4 and I4 both vanish but the "
    "equation a1' = a1^2 does not).  The lattice equations are instead the "
    "exact restriction of the KM flow, verified in the catalog tests.",
)
def test_criterion_6_i4_generates_lattice():
    """Stated pairing: hamiltonian_vf(pi4 of volterra-b, I4) = lattice
    equations up to one scalar."""
    for n in (1, 2, 3):
        sys_id = sid(f"volterra-b:{n}")
        X = hamiltonian_vf(catalog.tensor(sys_id, 4), i4_hamiltonian(n))
        target = catalog.bn_volterra_flow(n)
        scalars = set()
        ok = True
        for got, want in zip(X.components, target.components):
            if want.is_zero:
                ok = ok and got.is_zero
                continue
            # look for a single constant c with got = c * want
            candidates = {
                got.packed[e] / c for e, c in want.packed.items() if e in got.packed
            }
            if len(candidates) != 1:
                ok = False
                break
            c = candidates.pop()
            scalars.add(c)
            ok = ok and got == want.scale(c)
        check(
            "criterion 6 (I4 pairing)",
            f"volterra-b:{n} pi4 dI4 proportional to the lattice equations",
            ok and len(scalars) <= 1,
        )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_moser_nine_sites():
    """Odd-deleted block of L^2 at N=9 matches the reference 5x5 matrix
    symbol for symbol, and the induced equations are the B2 Toda system."""
    split = moser.square_and_split(9)
    got = [[p.canonical_str() for p in row] for row in split.odd_deleted.matrix]
    expected = [
        ["x1^2", "x1*x2", "0", "0", "0"],
        ["x1*x2", "x2^2 + x3^2", "x3*x4", "0", "0"],
        ["0", "x3*x4", "0", "-x3*x4", "0"],
        ["0", "0", "-x3*x4", "-x2^2 - x3^2", "-x1*x2"],
        ["0", "0", "0", "-x1*x2", "-x1^2"],
    ]
    check("criterion 7", "N=9 odd-deleted block matches the 5x5 reference", got == expected)
    ident = moser.identify_jacobi(split.odd_deleted, moser.x_flow(4))
    check(
        "criterion 7",
        "induced equations are the B2 Toda system",
        ident.equation_strings()
        == [
            "A1' = -A1*B1 + A1*B2",
            "A2' = -A2*B2",
            "B1' = 2*A1^2",
            "B2' = -2*A1^2 + 2*A2^2",
        ],
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_bogoyavlensky():
    """Marks solved exactly (A-marks all 1); chain-rule identity (a1)->(a2)
    exact; the B-route matches the B-type lattice after the recorded change."""
    for type_, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4))):
        for n in ranks:
            rd = bogo.root_data(type_, n)
            total = dict(rd.omega0)
            for k, w in zip(rd.marks, rd.simple_roots):
                for c, y in w.items():
                    total[c] = total.get(c, 0) + k * y
            check("criterion 8", f"{type_}{n} marks satisfy the integer relation",
                  not any(total.values()))
            if type_ == "A":
                check("criterion 8", f"A{n} marks all 1", rd.marks == (1,) * n)
            check(
                "criterion 8",
                f"{type_}{n} chain-rule identity for the x-variables",
                chain_rule_identity_holds(rd),
            )
    # the B-route: recorded diagonal change takes the edge system to the
    # B-type Volterra equations (rank-2 target comes from the rank-3 algebra,
    # whose Dynkin chain has two edges)
    for rank, m in ((2, 1), (3, 2), (4, 3)):
        rd = bogo.root_data("B", rank)
        f = bogo.transformed_x_system(bogo.x_system_rhs(rd), bogo.volterra_form(rd))
        check(
            "criterion 8",
            f"B{rank} edge system = B-type Volterra equations at rank {m}",
            f == catalog.bn_volterra_flow(m),
        )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_numerics():
    """RK4 on toda-a:3 (seeded x0 in [-1,1]^5, t in [0,10], h=1e-3):
    H and char-poly drifts < 1e-8; halving h gives a ratio in [12,20];
    H2/H3 flow commutation < 1e-6."""
    sys_id = sid("toda-a:3")
    cf = flows.compile_field(catalog.flow(sys_id, 2))
    r = random.Random(0)
    x0 = [r.uniform(-1, 1) for _ in range(5)]
    traj = flows.integrate(cf, x0, 10.0, 1e-3)
    rep = flows.monitors(traj, sys_id)
    check(
        "criterion 9",
        f"max H drift {max_hamiltonian_drift(rep):.2e} < 1e-8",
        max_hamiltonian_drift(rep) < 1e-8,
    )
    check(
        "criterion 9",
        f"max char-poly drift {max_charpoly_drift(rep):.2e} < 1e-8",
        max_charpoly_drift(rep) < 1e-8,
    )

    def drift(h):
        t = flows.integrate(cf, x0, 10.0, h)
        return max_hamiltonian_drift(flows.monitors(t, sys_id))

    # measure where truncation error dominates roundoff
    ratio = drift(8e-3) / drift(4e-3)
    check("criterion 9", f"halving h improves drift by {ratio:.1f} in [12, 20]", 12 <= ratio <= 20)

    disc = commutation_check(
        sys_id, [catalog.flow(sys_id, 2), catalog.flow(sys_id, 3)], x0, 0.5, 1e-3
    )
    check("criterion 9", f"H2/H3 flow commutation {disc:.2e} < 1e-6", disc < 1e-6)

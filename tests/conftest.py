import random
import re
from fractions import Fraction

import numpy as np
import pytest

from todavolterra import bogo, catalog, reduction
from todavolterra.flows import compile_field, integrate
from todavolterra.poisson import (
    PoissonTensor, PolyVectorField, directional_action, hamiltonian_vf)
from todavolterra.polyalg import GaussianRational, Poly, _ipow, normal


def pytest_addoption(parser):
    parser.addoption(
        "--cli-fuzz-examples", type=int, default=0,
        help="run tests/test_cli_contract.py on this many random argument lists "
        "instead of its 200 derandomized ones (a deep fuzz, outside Tier-1)")


def sid(text: str) -> catalog.SystemId:
    """A system from its CLI text, e.g. sid("toda-a:3")."""
    return catalog.parse_system(text)


@pytest.fixture
def rng():
    return random.Random(20240811)


def assert_normal(value):
    """`value` is an exact scalar in normal form: a rational is an `int` when
    integral and a `Fraction` otherwise, never a float; a `GaussianRational`
    has a nonzero imaginary part and parts that follow the same rule."""
    if isinstance(value, GaussianRational):
        assert value.im != 0, f"{value!r} is a rational held as a GaussianRational"
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    for q in parts:
        assert type(q) in (int, Fraction), f"{q!r} is not an exact rational"
        assert (type(q) is int) == (q.denominator == 1), f"{q!r} is not in normal form"


def random_poly(rng, variables, max_terms=4, max_exp=2, max_coef=4):
    """Small random polynomial with exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_exp) for _ in variables)
        coef = Fraction(rng.randint(-max_coef, max_coef), rng.randint(1, 3))
        if coef:
            terms[expo] = terms.get(expo, Fraction(0)) + coef
    return Poly(variables, terms)


def read_poly(text, variables):
    """A rational `Poly` from signed monomials: "-1/2*a1^2*b2 + 3*a2 + -b1"."""
    pos = {v: k for k, v in enumerate(variables)}
    terms = {}
    for signs, term in re.findall(r"([+-]*)([^+-]+)", text.replace(" ", "")):
        coef, expo = Fraction((-1) ** signs.count("-")), [0] * len(variables)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name[0].isdigit():
                coef *= Fraction(name)
            else:
                expo[pos[name]] += int(power or 1)
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coef
    return Poly(variables, terms)


def evaluate(p, point):
    """p at a point (exact scalars stay exact, floats go float)."""
    point = list(point)
    if len(point) != len(p.variables):
        raise ValueError(
            f"point has {len(point)} coordinates, expected {len(p.variables)}"
        )
    numeric = any(isinstance(x, (float, complex)) for x in point)
    if numeric:
        vals = [complex(x) for x in point]
        total = 0j
        for expo, coeff in p.terms.items():
            c = complex(coeff) if isinstance(coeff, GaussianRational) else float(coeff)
            term = complex(c)
            for x, e in zip(vals, expo):
                if e:
                    term *= x**e
            total += term
        if abs(total.imag) == 0.0:
            return total.real
        return total
    total = 0
    pt = [normal(x) for x in point]
    for expo, coeff in p.terms.items():
        term = coeff
        for x, e in zip(pt, expo):
            if e:
                term = term * _ipow(x, e)
        total = total + term
    return normal(total)


def chain_rule_identity_holds(rd: bogo.RootData) -> bool:
    """Symbolic check: d/dt of x_ij(b) along the B-system equals the X-system.

    Clearing denominators, with P_i the numerator of b_i' over Q = prod b_t:
        -(P_i b_j + b_i P_j) = sum_s k_s (c_is b_j + c_js b_i) prod_{t != s} b_t
    holds identically in the b variables for every edge (i, j).
    """
    n = rd.rank
    bvars = tuple(f"b{i}" for i in range(1, n + 1))
    bsys = bogo.b_system_rhs(rd)
    c = bogo.sign_matrix(rd)

    def prod_except(skip: set[int]) -> Poly:
        out = Poly.const(bvars, 1)
        for t in range(1, n + 1):
            if t not in skip:
                out = out * Poly.var(bvars, f"b{t}")
        return out

    P = []
    for i in range(n):
        acc = Poly.zero(bvars)
        for j, coeff in bsys.coeffs[i].items():
            acc = acc + prod_except({j}).scale(coeff)
        P.append(acc)

    for (i, j) in bogo.edges(rd):
        bi = Poly.var(bvars, f"b{i}")
        bj = Poly.var(bvars, f"b{j}")
        lhs = -(P[i - 1] * bj + bi * P[j - 1])
        rhs = Poly.zero(bvars)
        for s in range(1, n + 1):
            coeff_i = rd.marks[s - 1] * c[i - 1][s - 1]
            coeff_j = rd.marks[s - 1] * c[j - 1][s - 1]
            term = bj.scale(coeff_i) + bi.scale(coeff_j)
            rhs = rhs + term * prod_except({s})
        if lhs != rhs:
            return False
    return True


def commutation_check(
    sys: catalog.SystemId,
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


# ------------------------------------------- the fixed-point reduction's recipe
#
# `reduction.reduced_bracket` adds each stored entry, restricted and scaled by
# two lift weights, into one reduced entry.  It replaced the recipe below,
# which averages lifts upstairs and brackets them through Hamiltonian fields;
# the tests keep it as the oracle.


def lift(chart: reduction.FixedPointChart, f: Poly) -> Poly:
    """Read a reduced-coordinate polynomial as one in the ambient variables."""
    return f.subst_linear({u: (u, 1) for u in chart.reduced_variables}, chart.ambient_variables)


def invariant_average(F: Poly, group: reduction.FiniteGroupAction) -> Poly:
    """Group average (1/|G|) sum_g F o g; the result is exactly G-invariant."""
    total = None
    for g in group.elements:
        term = F.subst_linear(g.images)
        total = term if total is None else total + term
    return total.scale(Fraction(1, len(group)))


def old_reduced_bracket(pi: PoissonTensor, group: reduction.FiniteGroupAction) -> PoissonTensor:
    """Average each lifted reduced coordinate, bracket the lifts upstairs by
    {F, G} = X_G(F), restrict each bracket."""
    if group.variables != pi.variables:
        raise ValueError("group and tensor act on different variable lists")
    reduction.check_poisson_action(pi, group)
    chart = reduction.fixed_point_chart(group)
    red = chart.reduced_variables
    lifts = [invariant_average(lift(chart, Poly.var(red, u)), group) for u in red]
    fields = [hamiltonian_vf(pi, G) for G in lifts[1:]]
    upper = {
        (i, j): chart.restrict(directional_action(fields[j - 1], lifts[i]))
        for i in range(len(red)) for j in range(i + 1, len(red))
    }
    return PoissonTensor(red, upper)

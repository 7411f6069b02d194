import math
import random
import re
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from todavolterra import bogo, catalog, reduction
from todavolterra.flows import compile_field, integrate
from todavolterra.poisson import (
    LinearMap, PoissonTensor, PolyVectorField, directional_action, hamiltonian_vf)
from todavolterra.polyalg import (
    I_UNIT, GaussianRational, Poly, _ipow, add_product, divide, key_layout, normal,
    poly_from_sum, unit_keys, variable_sort_key)


def pytest_addoption(parser):
    parser.addoption(
        "--cli-fuzz-examples", type=int, default=0,
        help="run tests/test_cli_contract.py on this many random argument lists "
        "instead of its 200 derandomized ones (a deep fuzz, outside Tier-1)")


def sid(text: str) -> catalog.SystemId:
    """A system from its CLI text, e.g. sid("toda-a:3")."""
    return catalog.parse_system(text)


def entry_named(pi: PoissonTensor, u: str, v: str) -> Poly:
    """The entry {u, v} of pi, by variable names."""
    return pi.entry(pi.variables.index(u), pi.variables.index(v))


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


def to_complex(c) -> complex:
    """The complex value of an exact scalar of Q(i)."""
    if isinstance(c, GaussianRational):
        return complex(float(c.re), float(c.im))
    return complex(c)


def tensor_sum(pi: PoissonTensor, rho: PoissonTensor) -> PoissonTensor:
    """pi + rho, entry by entry: the sum whose Jacobiator the compatibility
    oracles compute, where the package reads the mixed term alone."""
    if pi.variables != rho.variables:
        raise ValueError("tensors on different variable lists")
    keys = set(pi.upper) | set(rho.upper)
    return PoissonTensor(pi.variables, {k: pi.entry(*k) + rho.entry(*k) for k in keys})


def poly_matrix_mul(A: list[list[Poly]], B: list[list[Poly]]) -> list[list[Poly]]:
    """The dense product A B of two matrices of polynomials: the oracle of
    the band rules (`moser.square_and_split`) and the closed walks
    (`catalog.hamiltonian`)."""
    zero, out = Poly.zero(A[0][0].variables), []
    guard = key_layout(len(zero.variables))[1]
    nonzero = [[(j, b.packed.items()) for j, b in enumerate(b_row) if b.packed] for b_row in B]
    for row in A:
        sums: list[dict] = [{} for _ in B[0]]
        for a, b_nonzero in zip(row, nonzero):
            for j, b in b_nonzero if a.packed else ():
                add_product(sums[j], a.packed.items(), b, guard)
        out.append([poly_from_sum(zero.variables, acc) if acc else zero for acc in sums])
    return out


def degree(p: Poly):
    """Total degree; the zero polynomial has degree -inf."""
    return max((sum(e) for e in p.terms), default=-math.inf)


def scaled_field(Z: PolyVectorField, c) -> PolyVectorField:
    """c * Z, component by component."""
    return PolyVectorField(Z.variables, [p.scale(c) for p in Z.components])


def i4_hamiltonian(n: int) -> Poly:
    """I4 = 1/4 sum_{i<n} (2 a_i^2 + a_i a_{i+1}) on the B-type Volterra space."""
    vars_ = catalog.variables(catalog.SystemId("volterra", "b", n))
    A0, A1 = catalog.A0, catalog.A1
    return catalog.local(vars_, unit_keys(vars_),
                         {(A0, A0): Fraction(1, 2), (A0, A1): Fraction(1, 4)}, range(1, n))


def max_hamiltonian_drift(rep) -> float:
    """The largest H_k drift of a `flows.monitors` report, 0.0 when none is monitored."""
    return max(rep["hamiltonian_drift"].values(), default=0.0)


def max_charpoly_drift(rep) -> float:
    """The largest char-poly coefficient drift of a `flows.monitors` report."""
    return max(rep["charpoly_drift"], default=0.0)


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


# ------------------------------------------------- maps and parts of a Poly
#
# The package needs neither a polynomial composition nor the real and
# imaginary parts of a polynomial; the tests read their claims through these.


def substitute(p: Poly, images) -> Poly:
    """p composed with a polynomial map: `images[v]` replaces variable v,
    for every variable of p; all images share one variable list."""
    missing = [v for v in p.variables if v not in images]
    if missing:
        raise KeyError(f"substitution does not cover variables {missing}")
    imgs = [images[v] for v in p.variables]
    target_vars = imgs[0].variables
    if any(q.variables != target_vars for q in imgs):
        raise ValueError("substitution images must share one variable list")
    result = Poly.zero(target_vars)
    for expo, coeff in p.terms.items():
        term = Poly.const(target_vars, coeff)
        for img, e in zip(imgs, expo):
            for _ in range(e):
                term = term * img
        result = result + term
    return result


def real_part(p: Poly) -> Poly:
    return Poly(p.variables, {e: c.re if isinstance(c, GaussianRational) else c
                              for e, c in p.terms.items()})


def imag_part(p: Poly) -> Poly:
    return Poly(p.variables, {e: c.im for e, c in p.terms.items()
                              if isinstance(c, GaussianRational)})


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
            term = to_complex(coeff)
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


# ----------------------------------------------------- a cyclic group's powers
#
# `reduction.FiniteGroupAction` reads the group off its generator's cycles and
# builds no power of it.  The oracles below average over the powers themselves.


def identity(variables) -> LinearMap:
    """The identity map of a variable list."""
    return LinearMap(variables, {v: (v, 1) for v in variables})


def is_identity(g: LinearMap) -> bool:
    return all(w == v and c == 1 for v, (w, c) in g.images.items())


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g: (f o g)(x) = f(g(x))."""
    if f.variables != g.variables:
        raise ValueError("maps act on different variable lists")
    images = {}
    for v, (w, c) in f.images.items():
        w2, c2 = g.images[w]
        images[v] = (w2, c * c2)
    return LinearMap(f.variables, images)


def powers(g: LinearMap) -> list[LinearMap]:
    """The cyclic group g generates, as its elements identity, g, g^2, ...
    (g must have finite order)."""
    elements = [identity(g.variables)]
    power = g
    while not is_identity(power):
        elements.append(power)
        power = compose(power, g)
    return elements


# A generator no catalog map matches: a 3-cycle with scales 2, 1/2, 1 (product
# 1), a variable it negates (a cycle forced to zero), and a 2-cycle with the
# Gaussian scales i, -i (product 1).  Its order is 6.
MIXED_CYCLES = LinearMap(("a1", "a2", "a3", "a4", "b1", "b2"), {
    "a1": ("a2", 2), "a2": ("a3", Fraction(1, 2)), "a3": ("a1", 1), "a4": ("a4", -1),
    "b1": ("b2", I_UNIT), "b2": ("b1", -I_UNIT)})


# The earlier chart: a union-find with multipliers over every group element;
# section[v] is the Poly in the reduced variables that x_v equals on the
# fixed-point set.
OldChart = namedtuple("OldChart", "ambient_variables reduced_variables section")


def old_fixed_point_chart(group: reduction.FiniteGroupAction) -> OldChart:
    vars_ = group.variables
    parent: dict[str, str] = {v: v for v in vars_}
    mult: dict[str, object] = {v: 1 for v in vars_}  # x_v = mult[v] * x_parent
    zero_roots: set[str] = set()

    def walk(u: str):
        """Path-compressing find: returns (root, m) with x_u = m * x_root."""
        if parent[u] == u:
            return u, 1
        root, m_up = walk(parent[u])
        m_here = mult[u] * m_up
        parent[u] = root
        mult[u] = m_here
        return root, m_here

    def union(v: str, w: str, c) -> None:
        # constraint from the fixed-point equation: x_v = c * x_w
        rv, mv = walk(v)
        rw, mw = walk(w)
        if rv == rw:
            if mv != c * mw:
                zero_roots.add(rv)
            return
        parent[rv] = rw
        mult[rv] = divide(c * mw, mv)  # x_rv = (c mw / mv) x_rw

    for g in powers(group.generator):
        for v, (w, c) in g.images.items():
            union(v, w, c)

    classes: dict[str, list[str]] = {}
    for v in vars_:
        root, _ = walk(v)
        classes.setdefault(root, []).append(v)

    reps = {root: min(members, key=variable_sort_key) for root, members in classes.items()}
    reduced = sorted(
        (reps[root] for root in classes if root not in zero_roots), key=variable_sort_key
    )

    section: dict[str, Poly] = {}
    for root, members in classes.items():
        rep = reps[root]
        _, m_rep = walk(rep)
        for v in members:
            if root in zero_roots:
                section[v] = Poly.zero(reduced)
            else:
                _, m_v = walk(v)
                scale = divide(m_v, m_rep)  # x_v = scale * x_rep on the fixed set
                section[v] = Poly.var(reduced, rep).scale(scale)
    return OldChart(tuple(vars_), tuple(reduced), section)


def old_restrict(chart: OldChart, F: Poly) -> Poly:
    return substitute(F, chart.section)


# ------------------------------------------- the fixed-point reduction's recipe
#
# `reduction.reduced_bracket` adds each stored entry, restricted and scaled by
# two lift weights, into one reduced entry.  It replaced the recipe below,
# which averages lifts upstairs and brackets them through Hamiltonian fields;
# the tests keep it as the oracle.


def lift(chart, f: Poly) -> Poly:
    """Read a reduced-coordinate polynomial as one in the ambient variables
    (`chart` is a `reduction.FixedPointChart` or an `OldChart`)."""
    return f.subst_linear({u: (u, 1) for u in chart.reduced_variables}, chart.ambient_variables)


def invariant_average(F: Poly, group: reduction.FiniteGroupAction) -> Poly:
    """Group average (1/|G|) sum_g F o g; the result is exactly G-invariant."""
    elements = powers(group.generator)
    total = None
    for g in elements:
        term = F.subst_linear(g.images)
        total = term if total is None else total + term
    return total.scale(Fraction(1, len(elements)))


def old_reduced_bracket(pi: PoissonTensor, group: reduction.FiniteGroupAction) -> PoissonTensor:
    """Average each lifted reduced coordinate, bracket the lifts upstairs by
    {F, G} = X_G(F), restrict each bracket.  The chart is the union-find
    `old_fixed_point_chart`, not the package's, so the two share no code that
    reads the group's cycles."""
    if group.variables != pi.variables:
        raise ValueError("group and tensor act on different variable lists")
    reduction.check_poisson_action(pi, group)
    chart = old_fixed_point_chart(group)
    red = chart.reduced_variables
    lifts = [invariant_average(lift(chart, Poly.var(red, u)), group) for u in red]
    fields = [hamiltonian_vf(pi, G) for G in lifts[1:]]
    upper = {
        (i, j): old_restrict(chart, directional_action(fields[j - 1], lifts[i]))
        for i in range(len(red)) for j in range(i + 1, len(red))
    }
    return PoissonTensor(red, upper)

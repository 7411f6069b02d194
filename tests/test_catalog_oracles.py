"""The catalog's template builds against the string constructions they replaced.

`catalog` builds its tensors, master symmetry, I4, embedded Volterra tensors
and Lax matrices from local templates.  The functions prefixed `old_` below
are the earlier constructions, which wrote every entry as a polynomial string
with hand-written index ranges and read it back; they are kept verbatim as
independent oracles, the strings read by the test-side `read_poly`.
`old_hamiltonian` is the earlier H_k = tr(L^k)/k by symbolic matrix powers,
the oracle for the closed-walk construction.  The Euler field, the B-type
Volterra equations and moser's x-flow, once built by hand, are now read off
templates; the symmetry maps, once four branches, are read off one table;
and the fixed-point chart, once a union-find with multipliers, is read off
the generator's cycles.  The earlier code is kept below as `old_euler_field`,
`old_bn_volterra_flow`, `old_x_flow`, `old_symmetry` and
`old_fixed_point_chart`.  A chart's section, once one `Poly` per ambient
variable that `old_restrict` composes with, is now a `subst_linear` table.
A group, once a closure-checked element list, then the powers of one
generator, is now that generator's cycles, and the Poisson-action check
pushes the tensor forward by the generator alone; `old_check_poisson_action`
is the earlier loop over every element, the powers that the test-side
`powers` builds.
"""

from collections import namedtuple
from fractions import Fraction

import pytest

from todavolterra import catalog, checks, moser
from todavolterra.catalog import SystemId, lax_size, variables
from todavolterra.poisson import (
    LinearMap, PoissonTensor, PolyVectorField, directional_action, hamiltonian_vf,
    pushforward_sign)
from todavolterra.polyalg import I_UNIT, Poly, divide, poly_matrix_mul, variable_sort_key
from todavolterra.reduction import (
    FiniteGroupAction, FixedPointChart, NotPoissonActionError, check_poisson_action,
    fixed_point_chart)

from conftest import MIXED_CYCLES, invariant_average, lift, powers, read_poly, sid


def old_tensor(sys: SystemId, k: int) -> PoissonTensor:
    vars_ = variables(sys)
    P = lambda s: read_poly(s, vars_)
    fam, kind, n = sys.family, sys.kind, sys.n
    key = (fam, kind, k)

    if key == ("toda", "a", 1):
        entries = {}
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "a", 2):
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}*b{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}*b{i + 1}")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "a", 3):
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-2*a{i}*a{i + 1}*b{i + 1}")
            entries[(f"a{i + 1}", f"b{i}")] = P(f"a{i}*a{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}*b{i}^2 + a{i}^2")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}*b{i + 1}^2 - a{i}^2")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-a{i}*b{i} - a{i}*b{i + 1}")
        for i in range(1, n - 1):
            entries[(f"a{i}", f"b{i + 2}")] = P(f"-a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "b", 1):
        entries = {}
        for i in range(1, n + 1):
            entries[(f"a{i}", f"b{i}")] = P(f"1/2*a{i}")
            if i < n:
                entries[(f"a{i}", f"b{i + 1}")] = P(f"-1/2*a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "b", 3):
        entries = {}
        for i in range(1, n):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}*b{i + 1}")
            entries[(f"a{i + 1}", f"b{i}")] = P(f"1/2*a{i}*a{i + 1}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-1/2*a{i}*b{i + 1}^2 - 1/2*a{i}^2")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-1/2*a{i}*b{i} - 1/2*a{i}*b{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"1/2*a{i}*b{i}^2 + 1/2*a{i}^2")
        entries[(f"a{n}", f"b{n}")] = P(f"1/2*a{n}*b{n}^2 + a{n}^2")
        for i in range(1, n - 1):
            entries[(f"a{i}", f"b{i + 2}")] = P(f"-1/2*a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("volterra", "a", 2):
        entries = {}
        m = n - 1
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("volterra", "a", 4):
        entries = {}
        m = n - 1
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}^2*a{i + 1} - a{i}*a{i + 1}^2")
        for i in range(1, m - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-a{i}*a{i + 1}*a{i + 2}")
        return PoissonTensor.from_brackets(vars_, entries)

    if kind in ("b", "c") and fam == "volterra" and k == 4:
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-1/2*a{i}^2*a{i + 1} - 1/2*a{i}*a{i + 1}^2")
        if n >= 2:
            entries[(f"a{n - 1}", f"a{n}")] = P(
                f"-1/2*a{n - 1}^2*a{n} - a{n - 1}*a{n}^2"
            )
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-1/2*a{i}*a{i + 1}*a{i + 2}")
        return PoissonTensor.from_brackets(vars_, entries)

    raise ValueError(f"no catalog tensor pi_{k} for {sys}")


def old_embedded_volterra_tensor(N: int, k: int) -> PoissonTensor:
    small = old_tensor(SystemId("volterra", "a", N), k)
    big_vars = variables(SystemId("toda", "a", N))
    upper = {}
    for (i, j), p in small.upper.items():
        terms = {tuple(dict(zip(small.variables, e)).get(v, 0) for v in big_vars): c
                 for e, c in p.terms.items()}
        upper[(i, j)] = Poly(big_vars, terms)
    return PoissonTensor(big_vars, upper)


def old_master_symmetry(sys: SystemId) -> PolyVectorField:
    n = sys.n
    vars_ = variables(sys)
    P = lambda s: read_poly(s, vars_)
    comps = []
    for i in range(1, n):
        comps.append(P(f"{1 - 2 * i}*a{i}*b{i} + {3 + 2 * i}*a{i}*b{i + 1}"))
    for i in range(1, n + 1):
        chunks = [f"b{i}^2"]
        if i >= 2:
            chunks.append(f"{2 - 2 * i}*a{i - 1}")
        if i <= n - 1:
            chunks.append(f"{2 + 2 * i}*a{i}")
        comps.append(P(" + ".join(chunks)))
    return PolyVectorField(vars_, comps)


def old_i4_hamiltonian(n: int) -> Poly:
    vars_ = variables(SystemId("volterra", "b", n))
    out = Poly.zero(vars_)
    for i in range(1, n):
        out = out + read_poly(f"1/2*a{i}^2 + 1/4*a{i}*a{i + 1}", vars_)
    return out


def old_lax(sys: SystemId) -> list[list[Poly]]:
    vars_ = variables(sys)
    N = lax_size(sys)
    zero = Poly.zero(vars_)
    one = Poly.const(vars_, 1)
    V = lambda name: Poly.var(vars_, name)
    L = [[zero for _ in range(N)] for _ in range(N)]
    fam, kind, n = sys.family, sys.kind, sys.n

    if fam == "toda" and kind == "a":
        for i in range(1, N + 1):
            L[i - 1][i - 1] = V(f"b{i}")
        for i in range(1, N):
            L[i - 1][i] = V(f"a{i}")
            L[i][i - 1] = one
        return L

    if fam == "toda" and kind == "b":
        for i in range(1, n + 1):
            L[i - 1][i - 1] = V(f"b{i}")
            L[N - i][N - i] = -V(f"b{i}")
        for s in range(1, N):
            L[s][s - 1] = one if s <= n else -one
            L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
        return L

    if fam == "toda" and kind == "c":
        for i in range(1, n + 1):
            L[i - 1][i - 1] = V(f"b{i}")
            L[N - i][N - i] = -V(f"b{i}")
        for s in range(1, N):
            L[s][s - 1] = one
            L[s - 1][s] = V(f"a{min(s, 2 * n - s)}")
        return L

    if fam == "volterra" and kind == "a":
        for s in range(1, N):
            L[s - 1][s] = V(f"a{s}")
            L[s][s - 1] = one
        return L

    for s in range(1, N):  # volterra-b, volterra-c
        L[s][s - 1] = one
        L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
    return L


def old_matrix_power(A: list[list[Poly]], k: int) -> list[list[Poly]]:
    if k < 1:
        raise ValueError("power must be >= 1")
    out = A
    for _ in range(k - 1):
        out = poly_matrix_mul(out, A)
    return out


def old_hamiltonian(sys: SystemId, k: int) -> Poly:
    P = old_matrix_power(old_lax(sys), k)
    tr = Poly.zero(variables(sys))
    for i in range(len(P)):
        tr = tr + P[i][i]
    return tr.scale(Fraction(1, k))


def old_euler_field(sys: SystemId) -> PolyVectorField:
    vars_ = variables(sys)
    comps = [
        Poly.var(vars_, v).scale(2 if v.startswith("a") else 1) for v in vars_
    ]
    return PolyVectorField(vars_, comps)


def old_bn_volterra_flow(n: int) -> PolyVectorField:
    sysv = SystemId("volterra", "b", n)
    vars_ = variables(sysv)
    V = lambda name: Poly.var(vars_, name)
    comps = []
    for i in range(1, n + 1):
        ai = V(f"a{i}")
        rhs = Poly.zero(vars_)
        if i > 1:
            rhs = rhs + ai * V(f"a{i - 1}")
        rhs = rhs - ai * V(f"a{i + 1}") if i < n else rhs + ai * ai
        comps.append(rhs)
    return PolyVectorField(vars_, comps)


def old_x_flow(n: int) -> PolyVectorField:
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = moser.x_variables(n)
    V = lambda name: Poly.var(vars_, name)
    comps = []
    for i in range(1, n + 1):
        xi = V(f"x{i}")
        if i == n:
            rhs = -(xi * xi * xi)
            if n > 1:
                rhs = rhs - xi * V(f"x{n - 1}") ** 2
        else:
            rhs = xi * V(f"x{i + 1}") ** 2
            if i > 1:
                rhs = rhs - xi * V(f"x{i - 1}") ** 2
        comps.append(rhs)
    return PolyVectorField(vars_, comps)


def old_symmetry(name: str, sys: SystemId) -> LinearMap:
    vars_ = variables(sys)
    N = sys.n
    fam, kind = sys.family, sys.kind

    if name == "psi":
        if (fam, kind) != ("toda", "a"):
            raise ValueError("psi acts on toda-a systems")
        images = {v: (v, 1) for v in vars_ if v.startswith("a")}
        images.update({v: (v, -1) for v in vars_ if v.startswith("b")})
        return LinearMap(vars_, images)

    if name == "phi_toda":
        if (fam, kind) != ("toda", "a"):
            raise ValueError("phi_toda acts on toda-a systems")
        images = {}
        for i in range(1, N):
            images[f"a{i}"] = (f"a{N - i}", 1)
        for i in range(1, N + 1):
            images[f"b{i}"] = (f"b{N + 1 - i}", -1)
        return LinearMap(vars_, images)

    if name == "phi_volterra":
        if (fam, kind) != ("volterra", "a"):
            raise ValueError("phi_volterra acts on volterra-a systems")
        images = {f"a{i}": (f"a{N - i}", -1) for i in range(1, N)}
        return LinearMap(vars_, images)

    if name == "phi_tilde":
        if (fam, kind) != ("toda", "a") or N % 2 == 0:
            raise ValueError("phi_tilde acts on odd-size toda-a systems")
        images = {}
        for i in range(1, N):
            images[f"a{i}"] = (f"a{N - i}", -1)
        for i in range(1, N + 1):
            images[f"b{i}"] = (f"b{N + 1 - i}", I_UNIT)
        return LinearMap(vars_, images)

    raise ValueError(f"unknown symmetry {name!r}")


# the earlier chart: section[v] is the Poly in the reduced variables that x_v
# equals on the fixed-point set
OldChart = namedtuple("OldChart", "ambient_variables reduced_variables section")


def old_fixed_point_chart(group: FiniteGroupAction) -> OldChart:
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
    return F.substitute(chart.section)


# Every catalog tensor at these sizes (264 in all).
TENSOR_RANGES = {
    ("toda", "a"): (range(2, 31), (1, 2, 3)),
    ("toda", "b"): (range(1, 31), (1, 3)),
    ("volterra", "a"): (range(2, 41), (2, 4)),
    ("volterra", "b"): (range(1, 31), (4,)),
    ("volterra", "c"): (range(1, 10), (4,)),
}


@pytest.mark.parametrize("family, kind", list(TENSOR_RANGES), ids="-".join)
def test_tensors_equal_old(family, kind):
    sizes, brackets = TENSOR_RANGES[(family, kind)]
    for n in sizes:
        sys = SystemId(family, kind, n)
        for k in brackets:
            new, old = catalog.tensor(sys, k), old_tensor(sys, k)
            assert new == old, (str(sys), k)
            assert new.to_json_dict() == old.to_json_dict()


def test_master_symmetry_equals_old():
    for n in range(2, 31):
        sys = SystemId("toda", "a", n)
        assert catalog.master_symmetry(sys) == old_master_symmetry(sys), n


def test_i4_equals_old():
    for n in range(1, 31):
        assert catalog.i4_hamiltonian(n) == old_i4_hamiltonian(n), n


def test_embedded_volterra_tensor_equals_old():
    for N in range(3, 16):
        for k in (2, 4):
            new = catalog.embedded_volterra_tensor(N, k)
            assert new == old_embedded_volterra_tensor(N, k), (N, k)


@pytest.mark.parametrize("name", ["toda-a", "toda-b", "toda-c", "volterra-a",
                                  "volterra-b", "volterra-c"])
def test_lax_equals_old(name):
    lo = 2 if name.endswith("-a") else 1
    for n in range(lo, 13):
        sys = catalog.parse_system(f"{name}:{n}")
        assert catalog.lax(sys) == old_lax(sys), str(sys)


# The sizes at which `verify all --max-rank 6` builds H_k (toda-a:2..6,
# toda-b:1..3, volterra-a:3..7), widened to toda-b:5 and volterra-a:2, and
# toda-c, volterra-b and volterra-c, whose H_k `verify` does not build, at 1..3.
HAMILTONIAN_SIZES = {
    "toda-a": range(2, 7),
    "toda-b": range(1, 6),
    "toda-c": range(1, 4),
    "volterra-a": range(2, 8),
    "volterra-b": range(1, 4),
    "volterra-c": range(1, 4),
}


@pytest.mark.parametrize("name", list(HAMILTONIAN_SIZES))
def test_hamiltonian_equals_old(name):
    for n in HAMILTONIAN_SIZES[name]:
        sys = catalog.parse_system(f"{name}:{n}")
        for k in range(1, 9):
            new, old = catalog.hamiltonian(sys, k), old_hamiltonian(sys, k)
            assert new.canonical_str() == old.canonical_str(), (str(sys), k)
            assert new == old


def test_hamiltonian_h10_equals_old():
    sys = SystemId("toda", "a", 10)
    assert catalog.hamiltonian(sys, 10).canonical_str() == old_hamiltonian(sys, 10).canonical_str()


@pytest.mark.parametrize("k", range(1, 7))
def test_perturbed_density_disagrees(monkeypatch, k):
    """Negative control: any one count of D_k off by one changes H_k.  A
    closed walk of length k visits at most k/2 + 1 sites, so on toda-a:k+1
    each monomial of D_k is read at some site, and all Lax entries are +1
    there, so no other monomial can cancel the change."""
    sys = SystemId("toda", "a", k + 1)
    old = old_hamiltonian(sys, k).canonical_str()
    density = catalog.walk_density(k)
    for mono in density:
        for delta in (1, -1):
            perturbed = dict(density)
            perturbed[mono] += delta
            monkeypatch.setattr(catalog, "walk_density", lambda _k, d=perturbed: d)
            assert catalog.hamiltonian(sys, k).canonical_str() != old, (mono, delta)


# ------------------------------------------- symmetry maps, charts, fields

MAPS = ("psi", "phi_toda", "phi_volterra", "phi_tilde")
FAMILIES = ("toda-a", "toda-b", "toda-c", "volterra-a", "volterra-b", "volterra-c")


def test_symmetry_names_are_the_sign_rules():
    assert set(checks.SIGNS) == set(catalog.SYMMETRIES) == set(MAPS)


def test_symmetry_equals_old():
    """Every map on every family at sizes 1..29: the same map, or the same error."""
    cases = errors = 0
    for name in FAMILIES:
        for n in range(1, 30):
            try:
                sys = catalog.parse_system(f"{name}:{n}")
            except ValueError:  # toda-a:1 and volterra-a:1
                continue
            for map_name in MAPS:
                cases += 1
                try:
                    old = old_symmetry(map_name, sys)
                except ValueError as exc:
                    errors += 1
                    with pytest.raises(ValueError) as info:
                        catalog.symmetry(map_name, sys)
                    assert str(info.value) == str(exc)
                    continue
                new = catalog.symmetry(map_name, sys)
                assert (new.variables, new.images) == (old.variables, old.images), (
                    map_name, str(sys))
                assert repr(new) == repr(old)
    assert (cases, errors) == (688, 590)
    with pytest.raises(ValueError, match="^unknown symmetry 'chi'$"):
        catalog.symmetry("chi", sid("toda-a:3"))


def test_hand_built_fields_equal_old():
    for n in range(1, 21):
        pairs = [(catalog.bn_volterra_flow(n), old_bn_volterra_flow(n)),
                 (moser.x_flow(n), old_x_flow(n))]
        for name in FAMILIES:
            if n > 1 or not name.endswith("-a"):
                sys = catalog.parse_system(f"{name}:{n}")
                pairs.append((catalog.euler_field(sys), old_euler_field(sys)))
        for new, old in pairs:
            assert new == old, n
            assert [c.canonical_str() for c in new.components] == [
                c.canonical_str() for c in old.components]


# The groups the charts are compared on: psi, phi_toda and phi_volterra at
# sizes 2..19, phi_tilde at the odd ones (63 groups, 1,080 sections).
CHART_GROUPS = [
    (map_name, SystemId(family, "a", N))
    for map_name, family in (("psi", "toda"), ("phi_toda", "toda"), ("phi_volterra", "volterra"))
    for N in range(2, 20)
] + [("phi_tilde", SystemId("toda", "a", N)) for N in range(3, 20, 2)]


def section_polys(chart: FixedPointChart) -> dict[str, Poly]:
    """The table section as the earlier Poly sections: x_v = c * x_w, or 0."""
    red = chart.reduced_variables
    return {v: Poly.var(red, w).scale(c) if c else Poly.zero(red)
            for v, (w, c) in chart.section.items()}


def assert_chart_equals_old(group: FiniteGroupAction, label) -> int:
    """Equal reduced variables and sections; the number of sections compared."""
    new, old = fixed_point_chart(group), old_fixed_point_chart(group)
    assert new.ambient_variables == old.ambient_variables
    assert new.reduced_variables == old.reduced_variables, label
    assert set(new.section) == set(old.section)
    polys = section_polys(new)
    for v in old.ambient_variables:
        a, b = polys[v], old.section[v]
        assert a.canonical_str() == b.canonical_str(), (*label, v)
        assert a == b, (*label, v)
    return len(old.section)


def test_chart_equals_old():
    """Equal reduced variables and sections."""
    sections = sum(assert_chart_equals_old(catalog.symmetry_group(map_name, sys),
                                           (map_name, str(sys)))
                   for map_name, sys in CHART_GROUPS)
    assert (len(CHART_GROUPS), sections) == (63, 1080)


def test_chart_equals_old_on_mixed_cycles():
    """A 3-cycle with scales 2, 1/2, 1, a zero cycle and Gaussian scales,
    which no catalog map has."""
    group = FiniteGroupAction(MIXED_CYCLES)
    assert assert_chart_equals_old(group, ("mixed cycles",)) == 6
    assert fixed_point_chart(group).section == {
        "a1": ("a1", 1), "a2": ("a1", Fraction(1, 2)), "a3": ("a1", 1), "a4": ("a4", 0),
        "b1": ("b1", 1), "b2": ("b1", -I_UNIT)}


def test_restrict_equals_old():
    """On every checks.REDUCTIONS case at n = 1..4, every polynomial the
    reduction restricts (each bracket X_G(F) of two lifts), the ambient
    tensor's entries and the lifts restrict as `old_restrict` does."""
    restricted = 0
    for which, case in checks.REDUCTIONS.items():
        for n in range(1, 5):
            sys_id, map_name, k, _ = case(n)
            pi, group = checks.ambient_and_group(sys_id, map_name, k)
            chart, old = fixed_point_chart(group), old_fixed_point_chart(group)
            red = chart.reduced_variables
            lifts = [invariant_average(lift(chart, Poly.var(red, u)), group) for u in red]
            fields = [hamiltonian_vf(pi, G) for G in lifts]
            polys = [*pi.upper.values(), *lifts,
                     *(directional_action(X, F) for X in fields for F in lifts)]
            for F in polys:
                got, want = chart.restrict(F), old_restrict(old, F)
                assert got.canonical_str() == want.canonical_str(), (which, n)
                assert got == want, (which, n)
            restricted += len(polys)
    assert restricted == 460


def chart_without_stabilizer_test(group: FiniteGroupAction) -> FixedPointChart:
    """Negative control: the orbit chart with its zero-orbit test left out."""
    elements = powers(group.generator)
    orbit = {v: [g.images[v] for g in elements] for v in group.variables}
    rep = {v: min((w for w, _ in images), key=variable_sort_key) for v, images in orbit.items()}
    reduced = tuple(sorted(set(rep.values()), key=variable_sort_key))
    section = {v: (r, next(c for w, c in orbit[v] if w == r)) for v, r in rep.items()}
    return FixedPointChart(group.variables, reduced, section)


@pytest.mark.parametrize("map_name, N, zero", [
    ("psi", 4, ("b1", "b2", "b3", "b4")),  # every b-orbit: psi fixes b_i with scale -1
    ("phi_tilde", 5, ("b3",)),  # the middle b: phi_tilde fixes b3 with scale i
])
def test_chart_without_stabilizer_test_fails(map_name, N, zero):
    group = catalog.symmetry_group(map_name, SystemId("toda", "a", N))
    old, bad = old_fixed_point_chart(group), chart_without_stabilizer_test(group)
    bad_polys = section_polys(bad)
    wrong = {v for v in old.ambient_variables
             if bad_polys[v].canonical_str() != old.section[v].canonical_str()}
    assert set(zero) <= wrong
    assert all(old.section[v].is_zero for v in wrong)
    assert set(zero) <= set(bad.reduced_variables) - set(old.reduced_variables)


def old_check_poisson_action(pi: PoissonTensor, group: FiniteGroupAction) -> None:
    for g in powers(group.generator):
        if pushforward_sign(g, pi) != 1:
            raise NotPoissonActionError("action is not Poisson for this tensor")


def action_outcome(check, pi: PoissonTensor, group: FiniteGroupAction) -> str:
    try:
        check(pi, group)
    except NotPoissonActionError as exc:
        return str(exc)
    return "ok"


def test_check_poisson_action_equals_old():
    """Every map on its systems at sizes 2..9 (phi_tilde: 3, 5, 7, 9), with
    every catalog bracket of the family and, on toda-a, the embedded
    volterra-a pi2 and pi4: the generator-only check accepts and rejects
    exactly the pairs the loop over every element does."""
    outcomes = {"ok": 0, "action is not Poisson for this tensor": 0}
    for map_name, (acts_on, *_) in catalog.SYMMETRIES.items():
        name = acts_on.split()[-1]
        for N in range(2, 10):
            if acts_on.startswith("odd-size") and N % 2 == 0:
                continue
            sys = SystemId(*name.split("-"), N)
            group = catalog.symmetry_group(map_name, sys)
            tensors = [(f"pi{k}", catalog.tensor(sys, k)) for k in catalog.BRACKETS[name]]
            if name == "toda-a":
                tensors += [(f"volterra pi{k}", catalog.embedded_volterra_tensor(N, k))
                            for k in (2, 4)]
            for label, pi in tensors:
                old = action_outcome(old_check_poisson_action, pi, group)
                assert action_outcome(check_poisson_action, pi, group) == old, (
                    map_name, str(sys), label)
                outcomes[old] += 1
    assert outcomes == {"ok": 55, "action is not Poisson for this tensor": 61}

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra import catalog, checks, reduction
from todavolterra.polyalg import EXPONENT_LIMIT, I_UNIT, GaussianRational, Poly
from todavolterra.poisson import (
    LinearMap,
    PoissonTensor,
    PolyVectorField,
    bracket,
    directional_action,
    hamiltonian_vf,
    is_compatible,
    is_poisson,
    jacobiator,
    lie_derivative_bivector,
    pushforward_bivector,
    pushforward_sign,
    pushforward_vf,
)

from conftest import (
    assert_normal, compose, identity, invariant_average, is_identity, lift, powers, random_poly,
    read_poly)


T2 = catalog.SystemId("toda", "a", 2)
T3 = catalog.SystemId("toda", "a", 3)
V2 = catalog.variables(T2)  # (a1, b1, b2)


def p2(text):
    return read_poly(text, V2)


class TestBracket:
    def test_linear_bracket_value(self):
        pi1 = catalog.tensor(T2, 1)
        assert bracket(pi1, p2("a1"), p2("b1")).canonical_str() == "a1"

    def test_antisymmetry_diagonal(self, rng):
        pi2 = catalog.tensor(T2, 2)
        for _ in range(10):
            F = random_poly(rng, V2)
            assert bracket(pi2, F, F).is_zero

    def test_quadratic_bb_entry(self):
        pi2 = catalog.tensor(T2, 2)
        assert bracket(pi2, p2("b1"), p2("b2")).canonical_str() == "-a1"

    def test_leibniz(self, rng):
        pi2 = catalog.tensor(T2, 2)
        for _ in range(15):
            F, G, H = (random_poly(rng, V2) for _ in range(3))
            lhs = bracket(pi2, F, G * H)
            assert lhs == G * bracket(pi2, F, H) + bracket(pi2, F, G) * H


class TestJacobiator:
    def test_catalog_linear_bracket_is_poisson(self):
        assert is_poisson(catalog.tensor(T3, 1))

    def test_zero_tensor(self):
        assert is_poisson(PoissonTensor(("b1", "b2", "b3"), {}))

    def test_non_poisson_candidate(self):
        # pi^12 = b1, pi^23 = b2, pi^13 = 0 has J^123 = b1 (hand-expanded)
        vs = ("b1", "b2", "b3")
        pi = PoissonTensor(
            vs,
            {(0, 1): Poly.var(vs, "b1"), (1, 2): Poly.var(vs, "b2")},
        )
        jac = jacobiator(pi)
        assert jac[(0, 1, 2)] == Poly.var(vs, "b1")
        assert not is_poisson(pi)

    def test_jacobiator_matches_cyclic_brackets(self, rng):
        # J = 0 iff {F,{G,H}} + cyc = 0; cross-check both formulations
        vs = ("b1", "b2", "b3")
        for _ in range(10):
            upper = {
                key: random_poly(rng, vs, max_terms=2, max_exp=1)
                for key in ((0, 1), (0, 2), (1, 2))
            }
            pi = PoissonTensor(vs, upper)
            F, G, H = (Poly.var(vs, v) for v in vs)
            cyclic = (
                bracket(pi, F, bracket(pi, G, H))
                + bracket(pi, G, bracket(pi, H, F))
                + bracket(pi, H, bracket(pi, F, G))
            )
            assert cyclic == jacobiator(pi).get((0, 1, 2), Poly.zero(vs))

    def test_cyclic_identity_for_poisson_tensor(self, rng):
        # for a tensor with zero jacobiator the cyclic sum vanishes for
        # arbitrary polynomials, not just coordinates
        pi = catalog.tensor(T3, 2)
        vs = catalog.variables(T3)
        for _ in range(8):
            F, G, H = (random_poly(rng, vs, max_terms=3, max_exp=2) for _ in range(3))
            cyclic = (
                bracket(pi, F, bracket(pi, G, H))
                + bracket(pi, G, bracket(pi, H, F))
                + bracket(pi, H, bracket(pi, F, G))
            )
            assert cyclic.is_zero


class TestCompatibility:
    def test_toda_pairs(self):
        assert is_compatible(catalog.tensor(T3, 1), catalog.tensor(T3, 2))
        assert is_compatible(catalog.tensor(T3, 2), catalog.tensor(T3, 3))

    def test_self_compatibility(self):
        pi = catalog.tensor(T3, 2)
        assert is_compatible(pi, pi)


class TestHamiltonianVF:
    def test_toda_equations(self):
        X = hamiltonian_vf(catalog.tensor(T2, 1), catalog.hamiltonian(T2, 2))
        assert X.variables == V2
        assert [p.canonical_str() for p in X.components] == ["a1*b1 - a1*b2", "-a1", "a1"]

    def test_constant_hamiltonian(self):
        X = hamiltonian_vf(catalog.tensor(T2, 2), Poly.const(V2, 7))
        assert X.is_zero

    def test_energy_conservation_symbolically(self, rng):
        pi = catalog.tensor(T3, 2)
        for _ in range(10):
            H = random_poly(rng, catalog.variables(T3))
            X = hamiltonian_vf(pi, H)
            assert directional_action(X, H).is_zero

    def test_km_field(self):
        sys = catalog.SystemId("volterra", "a", 5)
        X = hamiltonian_vf(catalog.tensor(sys, 2), catalog.hamiltonian(sys, 2))
        assert X.variables == catalog.variables(sys)
        assert [p.canonical_str() for p in X.components] == [
            "-a1*a2", "a1*a2 - a2*a3", "a2*a3 - a3*a4", "a3*a4",
        ]


class TestLieDerivative:
    def test_euler_scales_linear_bracket(self):
        pi1 = catalog.tensor(T2, 1)
        Z0 = catalog.euler_field(T2)
        assert lie_derivative_bivector(Z0, pi1) == pi1.scale(-1)

    def test_zero_tensor(self):
        Z = catalog.euler_field(T2)
        assert lie_derivative_bivector(Z, PoissonTensor(V2, {})).is_zero

    def test_master_symmetry_generates_cubic(self):
        for sys in (T2, T3):
            Z1 = catalog.master_symmetry(sys)
            assert lie_derivative_bivector(Z1, catalog.tensor(sys, 2)) == catalog.tensor(
                sys, 3
            ).scale(-1)


class TestPushforward:
    def test_psi_fixes_quadratic(self):
        psi = catalog.symmetry("psi", T2)
        assert pushforward_bivector(psi, catalog.tensor(T2, 2)) == catalog.tensor(T2, 2)

    def test_identity(self):
        ident = identity(V2)
        pi = catalog.tensor(T2, 3)
        assert pushforward_bivector(ident, pi) == pi

    def test_phi_fixes_cubic_on_five_sites(self):
        sys = catalog.SystemId("toda", "a", 5)
        phi = catalog.symmetry("phi_toda", sys)
        assert pushforward_sign(phi, catalog.tensor(sys, 3)) == 1

    def test_functoriality(self):
        sys = catalog.SystemId("toda", "a", 3)
        psi = catalog.symmetry("psi", sys)
        phi = catalog.symmetry("phi_toda", sys)
        pi = catalog.tensor(sys, 2)
        lhs = pushforward_bivector(compose(phi, psi), pi)
        rhs = pushforward_bivector(phi, pushforward_bivector(psi, pi))
        assert lhs == rhs

    def test_vector_field_pushforward(self):
        psi = catalog.symmetry("psi", T2)
        Z1 = catalog.master_symmetry(T2)
        assert pushforward_vf(psi, Z1) == Z1.scale(-1)


class TestDirectionalAction:
    def test_euler_on_h2(self):
        Z0 = catalog.euler_field(T2)
        H2 = catalog.hamiltonian(T2, 2)
        assert directional_action(Z0, H2) == H2.scale(2)

    def test_constant(self):
        Z = catalog.master_symmetry(T2)
        assert directional_action(Z, Poly.const(V2, 5)).is_zero

    def test_master_symmetry_raises_h1(self):
        Z1 = catalog.master_symmetry(T2)
        H1 = catalog.hamiltonian(T2, 1)
        assert directional_action(Z1, H1) == catalog.hamiltonian(T2, 2).scale(2)


class TestLinearMap:
    def test_inverse(self):
        phi = catalog.symmetry("phi_toda", T3)
        assert is_identity(compose(phi, phi.inverse()))

    @pytest.mark.parametrize("scale, want", [
        (2, Fraction(1, 2)), (3, Fraction(1, 3)), (Fraction(1, 3), 3), (-1, -1),
    ])
    def test_inverse_of_integer_scale_is_exact(self, scale, want):
        # an int `/` in the inverse would give the float 0.5 for the scale 2
        phi = LinearMap(V2, {"a1": ("a1", scale), "b1": ("b1", 1), "b2": ("b2", 1)})
        inv = phi.inverse()
        assert inv.images["a1"] == ("a1", want)
        for _, c in inv.images.values():
            assert_normal(c)
        assert is_identity(compose(phi, inv))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            LinearMap(V2, {"a1": ("a1", 0), "b1": ("b1", 1), "b2": ("b2", 1)})

    @pytest.mark.parametrize("images", [
        {"a1": ("a1", 1), "b1": ("a1", 1), "b2": ("b2", 1)},  # b1 is no one's image
        {"a1": ("b2", 1), "b1": ("b2", -1), "b2": ("b2", 2)},
    ])
    def test_not_a_bijection_rejected(self, images):
        # `Poly.subst_linear` takes any scaled map; a LinearMap must be invertible
        with pytest.raises(ValueError, match="bijection"):
            LinearMap(V2, images)

    def test_tensor_json(self):
        doc = catalog.tensor(T2, 1).to_json_dict()
        assert doc["dim"] == 3
        assert {"i": 1, "j": 2, "poly": "a1"} in doc["entries"]


# ------------------------------------------------- dense oracles (tests only)


def dense_jacobiator(pi):
    """Reference J^ijk over all i < j < k and all l, through entry()."""
    m = pi.dim
    vars_ = pi.variables
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                total = Poly.zero(vars_)
                for l in range(m):
                    vl = vars_[l]
                    total = total + pi.entry(i, l) * pi.entry(j, k).diff(vl)
                    total = total + pi.entry(j, l) * pi.entry(k, i).diff(vl)
                    total = total + pi.entry(k, l) * pi.entry(i, j).diff(vl)
                out[(i, j, k)] = total
    return out


def dense_lie_derivative(Z, pi):
    """Reference (L_Z pi)^ij summed over every i < j and every k."""
    vars_ = pi.variables
    m = pi.dim
    upper = {}
    for i in range(m):
        for j in range(i + 1, m):
            entry = Poly.zero(vars_)
            pij = pi.entry(i, j)
            for k in range(m):
                vk = vars_[k]
                entry = entry + Z.components[k] * pij.diff(vk)
                entry = entry - pi.entry(k, j) * Z.components[i].diff(vk)
                entry = entry - pi.entry(i, k) * Z.components[j].diff(vk)
            upper[(i, j)] = entry
    return PoissonTensor(vars_, upper)


def dense_hamiltonian_vf(pi, H):
    """Reference X_H^i = sum_j pi^ij dH/dx_j over every i and j, through entry()."""
    vars_ = pi.variables
    comps = []
    for i in range(pi.dim):
        comp = Poly.zero(vars_)
        for j, vj in enumerate(vars_):
            comp = comp + pi.entry(i, j) * H.diff(vj)
        comps.append(comp)
    return PolyVectorField(vars_, comps)


def dense_directional_action(Z, H):
    """Reference Z(H) = sum_i Z^i dH/dx_i over every i."""
    out = Poly.zero(Z.variables)
    for zi, vi in zip(Z.components, Z.variables):
        out = out + zi * H.diff(vi)
    return out


def assert_stored_normal(*polys):
    """No polynomial stores a zero coefficient, and every stored coefficient
    is in normal form (an int when integral)."""
    for p in polys:
        for c in p.packed.values():
            assert c != 0, p
            assert_normal(c)


def loop_bracket(pi, F, G):
    """{F, G} as its own loop over the stored entries, differentiating F and
    G again for each one (the loop `bracket` ran before it became X_G(F))."""
    out = Poly.zero(pi.variables)
    for (i, j), p in pi.upper.items():
        vi, vj = pi.variables[i], pi.variables[j]
        out = out + p * (F.diff(vi) * G.diff(vj) - F.diff(vj) * G.diff(vi))
    return out


def pair_loop_pushforward(A, pi):
    """A_* pi over every pair u < v through entry() (the loop
    `pushforward_bivector` ran before it visited stored entries only)."""
    inv = A.inverse()
    pos = {v: k for k, v in enumerate(pi.variables)}
    upper = {}
    for i, u in enumerate(pi.variables):
        su, cu = A.images[u]
        for j in range(i + 1, pi.dim):
            v = pi.variables[j]
            sv, cv = A.images[v]
            p = pi.entry(pos[su], pos[sv])
            if p.is_zero:
                continue
            q = p.subst_linear(inv.images).scale(cu * cv)
            if not q.is_zero:
                upper[(i, j)] = q
    return PoissonTensor(pi.variables, upper)


def assert_jacobiators_agree(pi):
    sparse = jacobiator(pi)
    dense = {key: p for key, p in dense_jacobiator(pi).items() if not p.is_zero}
    assert list(sparse) == list(dense)
    assert sparse == dense


def to_sympy(p, xs):
    sympy = pytest.importorskip("sympy")
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, expo)])
        for expo, c in p.terms.items()
    ])


def sympy_jacobiator(pi, xs):
    """The nonzero J^ijk, i < j < k, as sympy expressions, from sympy's own
    products and derivatives of the full antisymmetric matrix."""
    sympy = pytest.importorskip("sympy")
    P = [[to_sympy(pi.entry(i, j), xs) for j in range(pi.dim)] for i in range(pi.dim)]
    out = {}
    for i, j, k in combinations(range(pi.dim), 3):
        J = sympy.expand(sum(
            P[i][l] * sympy.diff(P[j][k], x) + P[j][l] * sympy.diff(P[k][i], x)
            + P[k][l] * sympy.diff(P[i][j], x)
            for l, x in enumerate(xs)
        ))
        if J != 0:
            out[(i, j, k)] = J
    return out


def catalog_tensors(max_dim):
    """(label, tensor) for every catalog tensor of dimension <= max_dim."""
    out = []
    for n in range(2, (max_dim + 1) // 2 + 1):
        out += [(f"toda-a:{n}", k) for k in (1, 2, 3)]
    for n in range(1, max_dim // 2 + 1):
        out += [(f"toda-b:{n}", k) for k in (1, 3)]
    for N in range(3, max_dim + 2):
        out += [(f"volterra-a:{N}", k) for k in (2, 4)]
    for n in range(1, max_dim + 1):
        out.append((f"volterra-b:{n}", 4))
    return [(f"pi{k} {s}", catalog.tensor(catalog.parse_system(s), k)) for s, k in out]


CATALOG = catalog_tensors(11)

COMPATIBILITY_SUMS = [
    (f"pi{i}+pi{j} toda-a:{n}",
     catalog.tensor(catalog.SystemId("toda", "a", n), i)
     + catalog.tensor(catalog.SystemId("toda", "a", n), j))
    for n in range(2, 7) for i, j in ((1, 2), (2, 3), (1, 3))
] + [
    (f"pi2+pi4 volterra-a:{N}",
     catalog.tensor(catalog.SystemId("volterra", "a", N), 2)
     + catalog.tensor(catalog.SystemId("volterra", "a", N), 4))
    for N in range(3, 13)
]


def perturbed(pi, power=1):
    """pi with its first stored entry changed by + x_1^power."""
    key = min(pi.upper)
    upper = dict(pi.upper)
    upper[key] = upper[key] + Poly.var(pi.variables, pi.variables[0]) ** power
    return PoissonTensor(pi.variables, upper)


class TestSparseAgainstDense:
    @pytest.mark.parametrize("label, pi", CATALOG + COMPATIBILITY_SUMS,
                             ids=[label for label, _ in CATALOG + COMPATIBILITY_SUMS])
    def test_jacobiator(self, label, pi):
        assert_jacobiators_agree(pi)

    def test_gaussian_tensor(self):
        # the rational embedded tensor times i: every coefficient Gaussian
        pi = catalog.embedded_volterra_tensor(5, 4).scale(I_UNIT)
        assert_jacobiators_agree(pi)

    @pytest.mark.parametrize("label, pi", [(l, p) for l, p in CATALOG if p.dim >= 3],
                             ids=[l for l, p in CATALOG if p.dim >= 3])
    def test_perturbed_jacobiator(self, label, pi):
        # every catalog tensor has J = 0, so only a perturbed one exercises
        # the signs of the sparse loop
        assert_jacobiators_agree(perturbed(pi))

    @pytest.mark.parametrize("label, pi", [(l, p) for l, p in CATALOG if p.dim >= 3],
                             ids=[l for l, p in CATALOG if p.dim >= 3])
    def test_quadratic_perturbation_is_not_poisson(self, label, pi):
        # + x_1 leaves some of these tensors Poisson; + x_1^2 breaks every one
        bent = perturbed(pi, 2)
        assert_jacobiators_agree(bent)
        assert not is_poisson(bent)

    @pytest.mark.parametrize("label, pi", [(l, p) for l, p in CATALOG if p.dim <= 7],
                             ids=[l for l, p in CATALOG if p.dim <= 7])
    def test_jacobiator_against_sympy(self, label, pi):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(pi.variables)
        for candidate in (pi, perturbed(pi, 2)) if pi.upper else (pi,):
            want = sympy_jacobiator(candidate, xs)
            got = jacobiator(candidate)
            assert list(got) == list(want)
            for key, p in got.items():
                assert sympy.expand(to_sympy(p, xs) - want[key]) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_perturbed_cubic_is_not_poisson(self, n):
        pi = perturbed(catalog.tensor(catalog.SystemId("toda", "a", n), 3))
        assert not is_poisson(pi)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lie_derivative_on_toda(self, n):
        sys = catalog.SystemId("toda", "a", n)
        for Z in (catalog.euler_field(sys), catalog.master_symmetry(sys)):
            for k in (1, 2, 3):
                pi = catalog.tensor(sys, k)
                assert lie_derivative_bivector(Z, pi) == dense_lie_derivative(Z, pi)

    def test_lie_derivative_on_catalog(self, rng):
        for label, pi in CATALOG:
            Z = PolyVectorField(pi.variables, [
                random_poly(rng, pi.variables, max_terms=2, max_exp=2) for _ in pi.variables
            ])
            assert lie_derivative_bivector(Z, pi) == dense_lie_derivative(Z, pi), label


VARS = tuple(f"x{k}" for k in range(1, 8))


def _small_poly(m):
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * m),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    return st.lists(term, max_size=3).map(lambda ts: Poly(VARS[:m], dict(ts)))


@st.composite
def tensor_and_field(draw):
    """A random antisymmetric tensor on 3..7 variables, banded or not, and a
    random vector field, with rational coefficients only or with rational and
    Gaussian ones mixed."""
    m = draw(st.integers(3, 7))
    band = draw(st.sampled_from([1, 2, m]))
    upper = {
        (i, j): draw(_small_poly(m))
        for i in range(m) for j in range(i + 1, min(m, i + band + 1))
    }
    comps = [draw(_small_poly(m)) for _ in range(m + 2)]
    scales = [1, -1, 2, Fraction(1, 3)]
    if draw(st.booleans()):
        factors = st.sampled_from([1, I_UNIT, GaussianRational(1, 1)])
        upper = {key: p.scale(draw(factors)) for key, p in upper.items()}
        comps = [p.scale(draw(factors)) for p in comps]
        scales.append(I_UNIT)
    perm = draw(st.permutations(VARS[:m]))
    A = LinearMap(VARS[:m], {v: (w, draw(st.sampled_from(scales))) for v, w in zip(VARS[:m], perm)})
    return (PoissonTensor(VARS[:m], upper), PolyVectorField(VARS[:m], comps[:m]),
            comps[m:], A)


@settings(max_examples=60, deadline=None)
@given(tensor_and_field())
def test_sparse_matches_dense_on_random_tensors(case):
    """The sparse operations against their reference loops on random tensors,
    random polynomials F and G, and a random scaled permutation A.  X_F(F) =
    {F, F} is a sum that cancels to zero for every antisymmetric tensor."""
    pi, Z, (F, G), A = case
    assert_jacobiators_agree(pi)
    lie = lie_derivative_bivector(Z, pi)
    assert lie == dense_lie_derivative(Z, pi)
    XF = hamiltonian_vf(pi, F)
    assert XF == dense_hamiltonian_vf(pi, F)
    assert directional_action(Z, G) == dense_directional_action(Z, G)
    assert directional_action(XF, F).is_zero
    assert bracket(pi, F, G) == loop_bracket(pi, F, G)
    assert pushforward_bivector(A, pi) == pair_loop_pushforward(A, pi)
    assert_stored_normal(*jacobiator(pi).values(), *lie.upper.values(), *XF.components,
                         directional_action(Z, G), bracket(pi, F, G))


# ------------------------------------------ the fused sums: normal form, overflow


def overflow_cases(M):
    """{label: call} of the four fused operations at degree M.  Their largest
    product has degree 2M - 1 in one variable, at most EXPONENT_LIMIT up to
    M = EXPONENT_LIMIT // 2 + 1; from M = EXPONENT_LIMIT // 2 + 2 on each
    call forms a product past the limit.  In the "cancels" cases every such
    product cancels in its sum, so the exact result would be zero."""
    vs = ("x", "y", "z")
    x, y, z = (Poly.var(vs, v) for v in vs)
    Z = PolyVectorField(vs, [x ** M, Poly.zero(vs), Poly.zero(vs)])
    # pi^01 = x^M against pi^02 = x^(M-1) or x^M: J^012 = -x^(2M-2), or 0
    pi_j = PoissonTensor(vs, {(0, 1): x ** M, (0, 2): x ** (M - 1)})
    pi_j0 = PoissonTensor(vs, {(0, 1): x ** M, (0, 2): x ** M})
    # (L_Z pi)^01 = Z^0 d_x pi^01 - pi^01 d_x Z^0: -x^(2M-2), or 0
    pi_l = PoissonTensor(vs, {(0, 1): x ** (M - 1)})
    pi_l0 = PoissonTensor(vs, {(0, 1): x ** M})
    # X_H^0 = pi^01 d_y H + pi^02 d_z H = M y^(2M-1) z^M - M y^(2M-1) z^M
    H = y ** M * z ** M
    pi_h0 = PoissonTensor(vs, {(0, 1): y ** M, (0, 2): -(y ** (M - 1) * z)})
    # X_H(H) = {H, H} = 0, through products of degree 2M - 1 in y and in z
    X = hamiltonian_vf(PoissonTensor(vs, {(1, 2): Poly.const(vs, 1)}), H)
    return {
        "jacobiator": lambda: jacobiator(pi_j),
        "jacobiator cancels": lambda: jacobiator(pi_j0),
        "lie_derivative": lambda: lie_derivative_bivector(Z, pi_l),
        "lie_derivative cancels": lambda: lie_derivative_bivector(Z, pi_l0),
        "hamiltonian_vf": lambda: hamiltonian_vf(pi_l0, x ** M),
        "hamiltonian_vf cancels": lambda: hamiltonian_vf(pi_h0, H),
        "directional_action": lambda: directional_action(Z, x ** M),
        "directional_action cancels": lambda: directional_action(X, H),
    }


class TestFusedSums:
    """Each operation adds its products into one sum per output entry and
    normalises that sum once, at the end."""

    def test_sums_with_rational_and_gaussian_parts_are_normal(self):
        # (1+i) + (1-i) = 2 and 1/2 * 2 = 1 must come out as ints; i*i = -1
        # leaves the Jacobiator of i*pi as sums that cancel
        x, y, z = (Poly.var(("x", "y", "z"), v) for v in ("x", "y", "z"))
        vs = x.variables
        half = Fraction(1, 2)
        Z = PolyVectorField(vs, [z.scale(GaussianRational(1, 1)),
                                 z.scale(GaussianRational(1, -1)), x.scale(half)])
        H = x + y + z.scale(2)
        assert directional_action(Z, H) == z.scale(2) + x
        pi = PoissonTensor(vs, {(0, 1): z.scale(half), (0, 2): z.scale(half),
                                (1, 2): x.scale(I_UNIT)})
        XH = hamiltonian_vf(pi, x + y + z)
        assert XH == dense_hamiltonian_vf(pi, x + y + z)
        assert XH.components[0] == z
        sys = catalog.SystemId("toda", "a", 4)
        for k in (1, 2, 3):
            ipi = catalog.tensor(sys, k).scale(I_UNIT)
            H2 = catalog.hamiltonian(sys, 2).scale(GaussianRational(1, 1))
            X = hamiltonian_vf(ipi, H2)
            assert jacobiator(ipi) == {}
            assert lie_derivative_bivector(X, ipi).is_zero  # X is Hamiltonian for ipi
            assert directional_action(X, H2).is_zero
            assert_stored_normal(*X.components)
        assert_stored_normal(directional_action(Z, H), *XH.components,
                             *lie_derivative_bivector(Z, pi).upper.values())

    @pytest.mark.parametrize("label", list(overflow_cases(5)))
    def test_overflow_raises_past_the_limit_even_where_it_cancels(self, label):
        overflow_cases(EXPONENT_LIMIT // 2 + 1)[label]()  # every product fits
        with pytest.raises(OverflowError):
            overflow_cases(EXPONENT_LIMIT // 2 + 2)[label]()

    def test_the_cases_below_the_limit(self):
        # the same constructions at M = 5: the cancelling sums are zero
        results = {label: call() for label, call in overflow_cases(5).items()}
        x = Poly.var(("x", "y", "z"), "x")
        assert results["jacobiator"] == {(0, 1, 2): -(x ** 8)}
        assert results["lie_derivative"] == PoissonTensor(x.variables, {(0, 1): -(x ** 8)})
        assert results["jacobiator cancels"] == {}
        assert results["lie_derivative cancels"].is_zero
        assert results["hamiltonian_vf cancels"].is_zero
        assert results["directional_action cancels"].is_zero


# ---------------------------------- the rewritten operations against their loops


VERIFY_ALL_RANK = 4  # the sizes of `verify all --max-rank 4`
VERIFY_ALL_SIZES = {
    "toda-a": range(2, VERIFY_ALL_RANK + 1),
    "toda-b": range(1, VERIFY_ALL_RANK + 1),
    "volterra-a": range(3, 2 * VERIFY_ALL_RANK + 2),
    "volterra-b": range(1, VERIFY_ALL_RANK + 1),
}
VERIFY_ALL_SYSTEMS = [
    catalog.SystemId(*name.split("-"), n) for name, sizes in VERIFY_ALL_SIZES.items() for n in sizes
]


@pytest.mark.parametrize("sys", VERIFY_ALL_SYSTEMS, ids=str)
def test_bracket_matches_loop_on_hamiltonians(sys):
    H = [catalog.hamiltonian(sys, l) for l in (1, 2, 3, 4)]
    for k in catalog.BRACKETS[sys.name]:
        pi = catalog.tensor(sys, k)
        for F in H:
            for G in H:
                assert bracket(pi, F, G) == loop_bracket(pi, F, G)


@pytest.mark.parametrize("which, n", [(w, n) for w in checks.REDUCTIONS for n in (1, 2, 3)])
def test_bracket_matches_loop_on_reduction_lifts(which, n):
    sys, map_name, k, _ = checks.REDUCTIONS[which](n)
    pi, group = checks.ambient_and_group(sys, map_name, k)
    chart = reduction.fixed_point_chart(group)
    red = chart.reduced_variables
    lifts = [invariant_average(lift(chart, Poly.var(red, u)), group) for u in red]
    for F, G in combinations(lifts, 2):
        assert bracket(pi, F, G) == loop_bracket(pi, F, G)


SYMMETRY_CASES = [
    (name, f"{family}:{n}", k)
    for name, family, sizes in [
        ("psi", "toda-a", range(2, 8)),
        ("phi_toda", "toda-a", range(2, 8)),
        ("phi_volterra", "volterra-a", range(3, 12)),
        ("phi_tilde", "toda-a", (3, 5, 7)),
    ]
    for n in sizes
    for k in catalog.BRACKETS["volterra-a" if name == "phi_tilde" else family]
]


@pytest.mark.parametrize("name, system, k", SYMMETRY_CASES)
def test_pushforward_matches_pair_loop(name, system, k):
    sys = catalog.parse_system(system)
    pi = checks.acted_tensor(sys, name, k)  # phi_tilde: the embedded volterra tensor
    for g in powers(catalog.symmetry(name, sys)):
        assert pushforward_bivector(g, pi) == pair_loop_pushforward(g, pi)


def unsigned_pushforward(A, pi):
    """pushforward_bivector without the sign flip for u after v (a mutant)."""
    inv = A.inverse()
    vars_ = pi.variables
    pos = {v: k for k, v in enumerate(vars_)}
    upper = {}
    for (a, b), p in pi.upper.items():
        u, v = pos[inv.images[vars_[a]][0]], pos[inv.images[vars_[b]][0]]
        c = A.images[vars_[u]][1] * A.images[vars_[v]][1]
        upper[(min(u, v), max(u, v))] = p.subst_linear(inv.images).scale(c)
    return PoissonTensor(vars_, upper)


@pytest.mark.parametrize("k", [2, 3])
def test_pushforward_without_sign_flip_disagrees(k):
    # phi_toda mirrors the indices, so it reverses (a1, a2) and (b1, b2); pi1
    # pairs only an a with a b, an order the mirror keeps
    sys = catalog.SystemId("toda", "a", 3)
    phi, pi = catalog.symmetry("phi_toda", sys), catalog.tensor(sys, k)
    assert pushforward_bivector(phi, pi) == pair_loop_pushforward(phi, pi)
    assert unsigned_pushforward(phi, pi) != pair_loop_pushforward(phi, pi)


# ------------------------------------------------- one variable list per operation


class TestOneVariableList:
    """An operand on another variable list raises; nothing is extended to fit."""

    OTHER_LISTS = [("a1", "b2"), ("b2", "b1", "a1"), ("a1", "b1", "b2", "b3")]

    @pytest.mark.parametrize("other", OTHER_LISTS)
    def test_tensor_rejects_entry_on_another_list(self, other):
        with pytest.raises(ValueError):
            PoissonTensor(V2, {(0, 1): Poly.var(other, "a1")})

    @pytest.mark.parametrize("other", OTHER_LISTS)
    def test_vector_field_rejects_component_on_another_list(self, other):
        comps = [Poly.var(V2, v) for v in V2]
        comps[2] = Poly.var(other, "b2")
        with pytest.raises(ValueError):
            PolyVectorField(V2, comps)

    @pytest.mark.parametrize("other", OTHER_LISTS)
    @pytest.mark.parametrize("H", ["a1", "b2", "a1*b2 + 3"])
    def test_operations_reject_polynomial_on_another_list(self, other, H):
        pi, Z, H = catalog.tensor(T2, 2), catalog.euler_field(T2), read_poly(H, other)
        F = p2("a1*b1")
        with pytest.raises(ValueError):
            hamiltonian_vf(pi, H)
        with pytest.raises(ValueError):
            directional_action(Z, H)
        with pytest.raises(ValueError):
            bracket(pi, F, H)
        with pytest.raises(ValueError):
            bracket(pi, H, F)


# ------------------------------------------------------------- metamorphic

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# rational scales and Gaussian ones with a nonzero imaginary part
_nonzero_scales = st.one_of(_rationals.filter(bool),
                            st.builds(GaussianRational, _rationals, _rationals.filter(bool)))


@pytest.mark.parametrize("system, k", [("toda-a:5", 2), ("toda-a:4", 3), ("volterra-a:7", 4),
                                       ("toda-b:3", 3)])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_pushforward_keeps_the_jacobiator_support(system, k, data):
    # A_* J(pi) = J(A_* pi) and a scaled permutation maps the entries of a
    # trivector one to one, so the nonzero ones stay as many; the catalog
    # tensor stays Poisson, and one bent by + x_1^2 keeps its defect
    pi = catalog.tensor(catalog.parse_system(system), k)
    vs = pi.variables
    perm = data.draw(st.permutations(vs))
    scales = data.draw(st.lists(_nonzero_scales, min_size=len(vs), max_size=len(vs)))
    A = LinearMap(vs, {v: (w, c) for v, w, c in zip(vs, perm, scales)})
    bent = perturbed(pi, 2)
    assert len(jacobiator(pushforward_bivector(A, bent))) == len(jacobiator(bent)) > 0
    assert is_poisson(pushforward_bivector(A, pi))

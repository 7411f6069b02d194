import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra.polyalg import (
    GAUSS,
    RAT,
    FieldMismatchError,
    GaussianRational,
    I_UNIT,
    Poly,
    coerce_scalar,
)

from conftest import assert_normal, random_poly, read_poly

V = ("a1", "a2", "b1", "b2")


def var(name):
    return Poly.var(V, name)


def read(text):
    return read_poly(text, V)


def naive_mul(p: Poly, q: Poly) -> Poly:
    """Independent term-by-term expansion oracle for multiplication."""
    out = Poly.zero(p.variables, p.field)
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            mono = Poly(p.variables, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2}, p.field)
            out = out + mono
    return out


class TestRingOps:
    def test_cancellation(self):
        assert (read("a1 + b1") + read("a1 - b1")).canonical_str() == "2*a1"

    def test_zero_annihilates(self):
        assert (var("a1") * Poly.zero(V)).is_zero

    def test_square_expansion_matches_oracle(self):
        p = var("a1") + var("a2")
        expected = naive_mul(p, p)
        assert p * p == expected
        assert (p * p).canonical_str() == "a1^2 + 2*a1*a2 + a2^2"

    def test_random_products_match_oracle(self, rng):
        for _ in range(40):
            p = random_poly(rng, V)
            q = random_poly(rng, V)
            assert p * q == naive_mul(p, q)

    def test_field_mixing_raises(self):
        with pytest.raises(FieldMismatchError):
            var("a1") + var("a1").to_gaussian()

    @pytest.mark.parametrize("other", [("a1", "b1"), ("a2", "a1", "b1", "b2"), V + ("c1",)])
    def test_different_variable_lists_raise(self, other):
        # one variable list per computation: operands are never merged
        p, q = read("a1*b1 + 2"), read_poly("a1 + b1", other)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(p, q)
            with pytest.raises(ValueError):
                op(q, p)


class TestDiff:
    def test_power_rule(self):
        assert (var("a1") * var("b1") ** 2).diff("b1").canonical_str() == "2*a1*b1"

    def test_independent_variable(self):
        assert var("a2").diff("a1").is_zero

    def test_monomial_wise(self):
        p = read("a1^2*b2 + a1")
        assert p.diff("a1").canonical_str() == "2*a1*b2 + 1"

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            var("a1").diff("c1")

    def test_mixed_partials_commute(self, rng):
        for _ in range(25):
            p = random_poly(rng, V, max_terms=5, max_exp=3)
            assert p.diff("a1").diff("b2") == p.diff("b2").diff("a1")


class TestSubstLinear:
    def test_sign_flip(self):
        table = {"a1": ("a1", 1), "a2": ("a2", 1), "b1": ("b1", -1), "b2": ("b2", -1)}
        assert var("b1").subst_linear(table) == -var("b1")

    def test_identity(self):
        table = {v: (v, 1) for v in V}
        p = var("a1") * var("a2")
        assert p.subst_linear(table) == p

    def test_mirror_on_five_site_chain(self):
        # a_i -> a_{5-i}, b_i -> -b_{6-i} applied to a1*b2 gives -a4*b4
        vs = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4", "b5")
        table = {f"a{i}": (f"a{5 - i}", 1) for i in range(1, 5)}
        table.update({f"b{i}": (f"b{6 - i}", -1) for i in range(1, 6)})
        p = Poly.var(vs, "a1") * Poly.var(vs, "b2")
        assert p.subst_linear(table) == -(Poly.var(vs, "a4") * Poly.var(vs, "b4"))

    def test_not_a_permutation_rejected(self):
        table = {v: ("a1", 1) for v in V}
        with pytest.raises(ValueError):
            var("a1").subst_linear(table)

    def test_ring_homomorphism(self, rng):
        table = {"a1": ("a2", 2), "a2": ("a1", -1), "b1": ("b2", Fraction(1, 3)), "b2": ("b1", 1)}
        for _ in range(25):
            p = random_poly(rng, V)
            q = random_poly(rng, V)
            assert (p * q).subst_linear(table) == p.subst_linear(table) * q.subst_linear(table)

    def test_eval_compat_with_point_map(self, rng):
        from todavolterra.poisson import LinearMap

        A = LinearMap(
            V,
            {
                "a1": ("a2", 2),
                "a2": ("a1", Fraction(1, 2)),
                "b1": ("b2", -3),
                "b2": ("b1", Fraction(-1, 3)),
            },
        )
        for _ in range(20):
            p = random_poly(rng, V)
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in V]
            pos = {v: k for k, v in enumerate(V)}
            image = [c * x[pos[w]] for w, c in (A.images[v] for v in V)]
            assert p.subst_linear(A.images).eval(x) == p.eval(image)


class TestEval:
    def test_simple_sum(self):
        assert (var("a1") + var("b1")).eval([1, 0, 2, 0]) == 3

    def test_zero_everywhere(self):
        assert Poly.zero(V).eval([5, 5, 5, 5]) == 0

    def test_monomial(self):
        assert (var("a1") * var("b1") ** 2).eval([3, 0, 2, 0]) == 12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            var("a1").eval([1, 2])

    def test_float_path(self):
        val = (var("a1") * var("b1")).eval([0.5, 0.0, 2.0, 0.0])
        assert val == pytest.approx(1.0)


class TestGaussian:
    def test_imaginary_unit_squares(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == Fraction(-1)

    def test_gaussian_poly_product(self):
        p = Poly.const(V, I_UNIT, "Qi") * var("a1").to_gaussian()
        assert p * p == -(var("a1") ** 2).to_gaussian()

    def test_real_imag_split(self):
        a1, a2 = (Poly.var(V, v, GAUSS) for v in ("a1", "a2"))
        p = a1.scale(GaussianRational(Fraction(1, 2), -3)) + a2.scale(I_UNIT)
        assert p.canonical_str() == "(1/2-3*i)*a1 + i*a2"
        assert p.real_part().canonical_str() == "1/2*a1"
        assert p.imag_part().canonical_str() == "-3*a1 + a2"

    @pytest.mark.parametrize("num, den, want", [
        (GaussianRational(1, 0), 2, GaussianRational(Fraction(1, 2), 0)),
        (GaussianRational(1, 1), GaussianRational(1, -1), I_UNIT),
        (GaussianRational(2, 4), GaussianRational(1, 2), GaussianRational(2, 0)),
        (3, GaussianRational(0, 3), -I_UNIT),
    ])
    def test_division_is_exact_and_normal(self, num, den, want):
        # an int `/` in the conjugate quotient would give float parts
        got = num / den
        assert isinstance(got, GaussianRational) and got == want
        assert_normal(got)

    @pytest.mark.parametrize("field", [RAT, GAUSS])
    def test_float_scalars_rejected(self, field):
        # 1 / 3 read back as a Fraction would be inexact; a float must not enter
        with pytest.raises(TypeError):
            coerce_scalar(1 / 3, field)
        with pytest.raises(TypeError):
            Poly.const(V, 0.5, field)
        with pytest.raises(TypeError):
            var("a1").scale(2.0)

    def test_degree_sentinel(self):
        assert Poly.zero(V).degree() == -math.inf
        assert read("a1*b1^2").degree() == 3


class TestCanonicalString:
    CASES = [
        "0",
        "1",
        "-1/2",
        "a1",
        "-a1 + b2",
        "2*a1*b1^2 - 1/2*a2",
        "a1^2 + 2*a1*a2 + a2^2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        assert read(text).canonical_str() == text


small_polys = st.builds(
    lambda terms: Poly(V, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * 4),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
        ),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * (q * r) == (p * q) * r
    assert p * q == q * p
    assert p + q == q + p


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_leibniz_rule_for_diff(p):
    q = read("a1*b2 + 1/2*b1")
    lhs = (p * q).diff("a1")
    assert lhs == p.diff("a1") * q + p * q.diff("a1")

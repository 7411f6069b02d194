"""Differential oracle: `Poly` arithmetic against sympy on small random polynomials.

Sums, products, negation, scaling, derivatives and scaled variable maps
build their results through the unchecked `Poly._make`; every result here is also
checked against that constructor's invariant: nonzero coefficients in the
normal form (a rational is an `int` exactly when it is integral, else a
`Fraction`; a `GaussianRational` has a nonzero imaginary part and parts that
follow that rule) and exponent tuples of the right length.  Coefficients mix
rationals and Gaussian rationals in one polynomial.  Products, derivatives
and linear substitutions whose exponents land just below `EXPONENT_LIMIT`
check the packed monomial keys where a carry between fields would show.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra.polyalg import EXPONENT_LIMIT, I_UNIT, GaussianRational, Poly, normal

from conftest import assert_normal, evaluate, imag_part, random_poly, real_part, substitute

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

V = ("a1", "a2", "b1")
W = ("a1", "a2", "a3", "b1", "b2")  # a superset of V, a target list of subst_linear
SYMS = {v: sympy.Symbol(v) for v in W}

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)
scalars = st.one_of(fractions, gaussians)


def polys(coeffs=scalars):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * len(V)), coeffs)
    return st.lists(term, max_size=4).map(lambda ts: Poly(V, dict(ts)))


def _rational(value) -> sympy.Rational:
    return sympy.Rational(value.numerator, value.denominator)


def to_sympy_scalar(c):
    if isinstance(c, GaussianRational):
        return _rational(c.re) + sympy.I * _rational(c.im)
    return _rational(c)


def to_sympy(p: Poly):
    return sympy.Add(*[
        to_sympy_scalar(c) * sympy.Mul(*[SYMS[v] ** e for v, e in zip(p.variables, expo)])
        for expo, c in p.terms.items()
    ])


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def exact(c):
    """A sympy number as an exact scalar in normal form."""
    re, im = c.as_real_imag()
    return normal(GaussianRational(_fraction(re), _fraction(im)))


def from_sympy(expr, variables) -> dict:
    """Term dict of a sympy expression over `variables`, in normal form."""
    poly = sympy.Poly(sympy.expand(expr), *[SYMS[v] for v in variables])
    return {tuple(expo): value for expo, c in poly.terms() if (value := exact(c))}


def assert_matches(q: Poly, expr, variables):
    assert q.variables == variables
    for expo, c in q.terms.items():
        assert c
        assert_normal(c)
        assert len(expo) == len(variables) and all(type(e) is int and e >= 0 for e in expo)
    assert q.terms == from_sympy(expr, variables)


def read_back(text) -> dict:
    """The term dict of `canonical_str` text read by sympy (`^` a power, `i`
    the imaginary unit)."""
    expr = parse_expr(text, local_dict={**SYMS, "i": sympy.I},
                      transformations=standard_transformations + (convert_xor,))
    return from_sympy(expr, V)


def test_random_round_trip(rng):
    for _ in range(50):
        p = random_poly(rng, V, max_terms=6, max_exp=3)
        assert read_back(p.canonical_str()) == p.terms


def test_gaussian_round_trip(rng):
    for _ in range(30):
        p = random_poly(rng, V) + random_poly(rng, V).scale(I_UNIT)
        assert read_back(p.canonical_str()) == p.terms


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_ring_operations(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    assert_matches(p + q, sp + sq, V)
    assert_matches(p - q, sp - sq, V)
    assert_matches(-p, -sp, V)
    assert_matches(p * q, sp * sq, V)


@settings(max_examples=40, deadline=None)
@given(polys(), scalars)
def test_scale_diff_move(p, c):
    sp = to_sympy(p)
    assert_matches(p.scale(c), to_sympy_scalar(c) * sp, V)
    for v in V:
        assert_matches(p.diff(v), sympy.diff(sp, SYMS[v]), V)
    assert_matches(p.subst_linear({v: (v, 1) for v in V}, W), sp, W)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subst_linear(data):
    p = data.draw(polys())
    sources = data.draw(st.permutations(V))
    nonzero = scalars.filter(bool)
    table = {v: (w, data.draw(nonzero)) for v, w in zip(V, sources)}
    images = {SYMS[v]: to_sympy_scalar(c) * SYMS[w] for v, (w, c) in table.items()}
    assert_matches(p.subst_linear(table), to_sympy(p).xreplace(images), V)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subst_linear_into_a_target_list(data):
    # images in a reordered superset, zero scales among them; a pool of one
    # or two image variables sends two or all three variables of V to one
    p = data.draw(polys())
    target = tuple(data.draw(st.permutations(W)))
    pool = data.draw(st.sampled_from([W[:1], W[2:4], W]))
    table = {v: (data.draw(st.sampled_from(pool)), data.draw(st.one_of(st.just(0), scalars)))
             for v in V}
    images = {SYMS[v]: to_sympy_scalar(c) * SYMS[w] for v, (w, c) in table.items()}
    assert_matches(p.subst_linear(table, target), to_sympy(p).xreplace(images), target)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(V), st.integers(-3, 3).filter(bool))
def test_results_turning_integral(v, k):
    # each result is integral only after Fraction arithmetic (k/2 * 2,
    # k/2 + k/2) or after the imaginary parts cancel ((k/2 + i) + (k/2 - i),
    # i * -k i)
    x, half = Poly.var(V, v), Fraction(1, 2)
    want = k * SYMS[v]
    assert_matches(x.scale(2 * k).scale(half), want, V)
    assert_matches(x.scale(k * half) + x.scale(k * half), want, V)
    assert_matches(x.scale(k * half) * Poly.const(V, 2), want, V)
    assert_matches((x * x).scale(k * half).diff(v), want, V)
    plus, minus = GaussianRational(k * half, 1), GaussianRational(k * half, -1)
    assert_matches(x.scale(plus) + x.scale(minus), want, V)
    assert_matches(x.scale(I_UNIT) * Poly.const(V, GaussianRational(0, -k)), want, V)


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_every_public_result_in_normal_form(p, q):
    images = {v: q for v in V}
    half = {"a1": ("a2", Fraction(1, 2)), "a2": ("a1", 2), "b1": ("b1", 1)}
    results = [
        p * p,
        substitute(p, images),
        p.subst_linear(half),
        p.subst_linear({**half, "b1": ("b1", I_UNIT)}),
        real_part(p),
        imag_part(p),
    ]
    for r in results:
        for c in r.terms.values():
            assert_normal(c)
    if not p.is_zero:
        assert_normal(evaluate(p, [Fraction(1, 2), 2, Fraction(-1, 3)]))


@settings(max_examples=30, deadline=None)
@given(polys(st.builds(lambda im: GaussianRational(Fraction(0), im), fractions)))
def test_real_part_of_imaginary_polynomial_is_zero(p):
    assert real_part(p).terms == {}
    assert imag_part(p) == real_part(-p.scale(GaussianRational(Fraction(0), Fraction(1))))


def sparse_from_sympy(expr, variables) -> dict:
    """Like `from_sympy`, without sympy's dense `Poly`, which would hold a
    coefficient list as long as the degree."""
    syms = [SYMS[v] for v in variables]
    sums = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, mono = term.as_independent(*syms, as_Add=False)
        powers = mono.as_powers_dict()
        expo = tuple(int(powers.get(s, 0)) for s in syms)
        sums[expo] = sums.get(expo, 0) + c
    return {expo: value for expo, c in sums.items() if (value := exact(c))}


def near_limit_polys(exponents):
    term = st.tuples(st.tuples(*[st.sampled_from(exponents)] * len(V)), scalars)
    return st.lists(term, min_size=1, max_size=4).map(lambda ts: Poly(V, dict(ts)))


# scale factors whose powers near EXPONENT_LIMIT sympy evaluates at once
# (a power of 1 + i it would expand term by term)
NEAR_LIMIT_SCALES = [-1, 2, Fraction(-1, 2), I_UNIT, -I_UNIT, GaussianRational(0, 2)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_products_near_the_exponent_limit(data):
    # 16383 + 16384 = 32767 = EXPONENT_LIMIT: the sums fill a key field up to its guard bit
    p = data.draw(near_limit_polys([0, 1, 16382, 16383]))
    q = data.draw(near_limit_polys([0, 2, 16383, 16384]))
    got, expr = p * q, to_sympy(p) * to_sympy(q)
    assert got.variables == V
    for c in got.terms.values():
        assert_normal(c)
    assert got.terms == sparse_from_sympy(expr, V)
    assert max((max(e) for e in got.terms), default=0) <= EXPONENT_LIMIT
    v = data.draw(st.sampled_from(V))
    assert got.diff(v).terms == sparse_from_sympy(sympy.diff(expr, SYMS[v]), V)
    # each scale is raised to a power near the limit, by square-and-multiply
    sources = data.draw(st.permutations(V))
    table = {v: (w, data.draw(st.sampled_from(NEAR_LIMIT_SCALES))) for v, w in zip(V, sources)}
    images = {SYMS[v]: to_sympy_scalar(c) * SYMS[w] for v, (w, c) in table.items()}
    moved = got.subst_linear(table)
    for c in moved.terms.values():
        assert_normal(c)
    assert moved.terms == sparse_from_sympy(expr.xreplace(images), V)

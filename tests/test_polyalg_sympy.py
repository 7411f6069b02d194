"""Differential oracle: `Poly` arithmetic against sympy on small random polynomials.

Sums, products, negation, scaling, derivatives and variable extension build
their results through the unchecked `Poly._make`; every result here is also
checked against that constructor's invariant: nonzero coefficients in the
normal form (a rational is an `int` exactly when it is integral, else a
`Fraction`; a Gaussian coefficient is a `GaussianRational` whose parts follow
that rule) and exponent tuples of the right length.  Products and derivatives
whose exponents land just below `EXPONENT_LIMIT` check the packed monomial
keys where a carry between fields would show.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra.polyalg import EXPONENT_LIMIT, GAUSS, RAT, I_UNIT, GaussianRational, Poly

from conftest import assert_normal, evaluate, random_poly

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

V = ("a1", "a2", "b1")
W = ("a1", "a2", "a3", "b1", "b2")  # a superset of V, for extend
SYMS = {v: sympy.Symbol(v) for v in W}

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)
fields = st.sampled_from([RAT, GAUSS])


def scalars(field):
    return fractions if field == RAT else gaussians


def polys(field, coeffs=None):
    if coeffs is None:
        coeffs = scalars(field)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * len(V)), coeffs)
    return st.lists(term, max_size=4).map(lambda ts: Poly(V, dict(ts), field))


@st.composite
def poly_pairs(draw):
    field = draw(fields)
    return draw(polys(field)), draw(polys(field))


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


def from_sympy(expr, variables, field) -> dict:
    """Term dict of a sympy expression over `variables`, in `field`."""
    poly = sympy.Poly(sympy.expand(expr), *[SYMS[v] for v in variables])
    out = {}
    for expo, c in poly.terms():
        re, im = c.as_real_imag()
        if field == RAT:
            assert im == 0
            value = _fraction(re)
        else:
            value = GaussianRational(_fraction(re), _fraction(im))
        if value:
            out[tuple(expo)] = value
    return out


def assert_matches(q: Poly, expr, variables, field):
    assert q.variables == variables and q.field == field
    for expo, c in q.terms.items():
        assert isinstance(c, GaussianRational) == (field == GAUSS) and c
        assert_normal(c)
        assert len(expo) == len(variables) and all(type(e) is int and e >= 0 for e in expo)
    assert q.terms == from_sympy(expr, variables, field)


def read_back(text, field) -> dict:
    """The term dict of `canonical_str` text read by sympy (`^` a power, `i`
    the imaginary unit)."""
    expr = parse_expr(text, local_dict={**SYMS, "i": sympy.I},
                      transformations=standard_transformations + (convert_xor,))
    return from_sympy(expr, V, field)


def test_random_round_trip(rng):
    for _ in range(50):
        p = random_poly(rng, V, max_terms=6, max_exp=3)
        assert read_back(p.canonical_str(), RAT) == p.terms


def test_gaussian_round_trip(rng):
    for _ in range(30):
        p = random_poly(rng, V, field=GAUSS) + random_poly(rng, V, field=GAUSS).scale(I_UNIT)
        assert read_back(p.canonical_str(), GAUSS) == p.terms


@settings(max_examples=40, deadline=None)
@given(poly_pairs())
def test_ring_operations(pair):
    p, q = pair
    sp, sq = to_sympy(p), to_sympy(q)
    assert_matches(p + q, sp + sq, V, p.field)
    assert_matches(p - q, sp - sq, V, p.field)
    assert_matches(-p, -sp, V, p.field)
    assert_matches(p * q, sp * sq, V, p.field)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scale_diff_extend(data):
    field = data.draw(fields)
    p = data.draw(polys(field))
    c = data.draw(scalars(field))
    sp = to_sympy(p)
    assert_matches(p.scale(c), to_sympy_scalar(c) * sp, V, field)
    for v in V:
        assert_matches(p.diff(v), sympy.diff(sp, SYMS[v]), V, field)
    assert_matches(p.extend(W), sp, W, field)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subst_linear(data):
    field = data.draw(fields)
    p = data.draw(polys(field))
    sources = data.draw(st.permutations(V))
    nonzero = st.one_of(fractions, gaussians).filter(bool)
    table = {v: (w, data.draw(nonzero)) for v, w in zip(V, sources)}
    out_field = GAUSS if field == GAUSS or any(
        isinstance(c, GaussianRational) for _, c in table.values()
    ) else RAT
    images = {SYMS[v]: to_sympy_scalar(c) * SYMS[w] for v, (w, c) in table.items()}
    assert_matches(p.subst_linear(table), to_sympy(p).xreplace(images), V, out_field)


@settings(max_examples=30, deadline=None)
@given(fields, st.sampled_from(V), st.integers(-3, 3).filter(bool))
def test_fraction_results_turning_integral(field, v, k):
    # each result is integral only after Fraction arithmetic: k/2 * 2, k/2 + k/2
    x, half = Poly.var(V, v, field), Fraction(1, 2)
    want = k * SYMS[v]
    assert_matches(x.scale(2 * k).scale(half), want, V, field)
    assert_matches(x.scale(k * half) + x.scale(k * half), want, V, field)
    assert_matches(x.scale(k * half) * Poly.const(V, 2, field), want, V, field)
    assert_matches((x * x).scale(k * half).diff(v), want, V, field)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_public_result_in_normal_form(data):
    field = data.draw(fields)
    p, q = data.draw(polys(field)), data.draw(polys(field))
    images = {v: q for v in V}
    half = {"a1": ("a2", Fraction(1, 2)), "a2": ("a1", 2), "b1": ("b1", 1)}
    results = [
        p ** 2,
        p.substitute(images),
        p.subst_linear(half),
        p.subst_linear({**half, "b1": ("b1", I_UNIT)}),
        p.to_gaussian(),
        p.real_part(),
        p.imag_part(),
        p.with_field(RAT if field == GAUSS else GAUSS),
    ]
    for r in results:
        for c in r.terms.values():
            assert_normal(c)
    if not p.is_zero:
        assert_normal(evaluate(p, [Fraction(1, 2), 2, Fraction(-1, 3)]))


@settings(max_examples=30, deadline=None)
@given(polys(GAUSS, st.builds(lambda im: GaussianRational(Fraction(0), im), fractions)))
def test_real_part_of_imaginary_polynomial_is_zero(p):
    re = p.real_part()
    assert re.field == RAT and re.terms == {}
    assert p.imag_part() == (-p.scale(GaussianRational(Fraction(0), Fraction(1)))).real_part()


def sparse_from_sympy(expr, variables, field) -> dict:
    """Like `from_sympy`, without sympy's dense `Poly`, which would hold a
    coefficient list as long as the degree."""
    syms = [SYMS[v] for v in variables]
    sums = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, mono = term.as_independent(*syms, as_Add=False)
        powers = mono.as_powers_dict()
        expo = tuple(int(powers.get(s, 0)) for s in syms)
        sums[expo] = sums.get(expo, 0) + c
    out = {}
    for expo, c in sums.items():
        re, im = c.as_real_imag()
        if field == RAT:
            assert im == 0
        value = _fraction(re) if field == RAT else GaussianRational(_fraction(re), _fraction(im))
        if value:
            out[expo] = value
    return out


def near_limit_polys(field, exponents):
    term = st.tuples(st.tuples(*[st.sampled_from(exponents)] * len(V)), scalars(field))
    return st.lists(term, min_size=1, max_size=4).map(lambda ts: Poly(V, dict(ts), field))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_products_near_the_exponent_limit(data):
    # 16383 + 16384 = 32767 = EXPONENT_LIMIT: the sums fill a key field up to its guard bit
    field = data.draw(fields)
    p = data.draw(near_limit_polys(field, [0, 1, 16382, 16383]))
    q = data.draw(near_limit_polys(field, [0, 2, 16383, 16384]))
    got, expr = p * q, to_sympy(p) * to_sympy(q)
    assert got.variables == V and got.field == field
    for c in got.terms.values():
        assert_normal(c)
    assert got.terms == sparse_from_sympy(expr, V, field)
    assert max((max(e) for e in got.terms), default=0) <= EXPONENT_LIMIT
    v = data.draw(st.sampled_from(V))
    assert got.diff(v).terms == sparse_from_sympy(sympy.diff(expr, SYMS[v]), V, field)

"""Differential oracle: `Poly` arithmetic against sympy on small random polynomials.

Sums, products, negation, scaling, derivatives and variable extension build
their results through the unchecked `Poly._make`; every result here is also
checked against that constructor's invariant (typed, nonzero coefficients and
exponent tuples of the right length).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todavolterra.polyalg import GAUSS, RAT, GaussianRational, Poly

sympy = pytest.importorskip("sympy")

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
    kind = Fraction if field == RAT else GaussianRational
    for expo, c in q.terms.items():
        assert type(c) is kind and c
        assert len(expo) == len(variables) and all(type(e) is int and e >= 0 for e in expo)
    assert q.terms == from_sympy(expr, variables, field)


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
@given(polys(GAUSS, st.builds(lambda im: GaussianRational(Fraction(0), im), fractions)))
def test_real_part_of_imaginary_polynomial_is_zero(p):
    re = p.real_part()
    assert re.field == RAT and re.terms == {}
    assert p.imag_part() == (-p.scale(GaussianRational(Fraction(0), Fraction(1)))).real_part()

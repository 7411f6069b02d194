import random
from fractions import Fraction

import pytest

from todavolterra.polyalg import GaussianRational, Poly


@pytest.fixture
def rng():
    return random.Random(20240811)


def assert_normal(value):
    """`value` is an exact scalar in normal form: a rational is an `int` when
    integral and a `Fraction` otherwise, never a float; a `GaussianRational`'s
    parts follow the same rule."""
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    for q in parts:
        assert type(q) in (int, Fraction), f"{q!r} is not an exact rational"
        assert (type(q) is int) == (q.denominator == 1), f"{q!r} is not in normal form"


def random_poly(rng, variables, max_terms=4, max_exp=2, max_coef=4, field="Q"):
    """Small random polynomial with exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_exp) for _ in variables)
        coef = Fraction(rng.randint(-max_coef, max_coef), rng.randint(1, 3))
        if coef:
            terms[expo] = terms.get(expo, Fraction(0)) + coef
    p = Poly(variables, terms)
    return p.to_gaussian() if field == "Qi" else p

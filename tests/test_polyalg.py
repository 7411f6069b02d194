import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from todavolterra.polyalg import (
    EXPONENT_LIMIT,
    GaussianRational,
    I_UNIT,
    Poly,
    _ipow,
    add_product,
    cleared,
    divide,
    key_fields,
    key_layout,
    normal,
    poly_from_sum,
)

from todavolterra._linsolve import solve_exact

from conftest import (
    assert_normal, degree, evaluate, imag_part, random_poly, read_poly, real_part, substitute)
from test_linsolve import dense_solve_exact, to_columns

V = ("a1", "a2", "b1", "b2")


# an independent reading of a key: the exponent tuple as big-endian 16-bit
# words, by `struct`, which `key_fields` and `Poly.terms` must agree with
@lru_cache(maxsize=None)
def _codec(n: int) -> struct.Struct:
    return struct.Struct(f">{n}H")


def _pack(expo: tuple[int, ...]) -> int:
    return int.from_bytes(_codec(len(expo)).pack(*expo), "big")


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return _codec(n).unpack(key.to_bytes(2 * n, "big"))


def var(name):
    return Poly.var(V, name)


def read(text):
    return read_poly(text, V)


def naive_mul(p: Poly, q: Poly) -> Poly:
    """Independent term-by-term expansion oracle for multiplication."""
    out = Poly.zero(p.variables)
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            mono = Poly(p.variables, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
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

    @pytest.mark.parametrize("other", [("a1", "b1"), ("a2", "a1", "b1", "b2"), V + ("c1",)])
    def test_different_variable_lists_raise(self, other):
        # one variable list per computation: operands are never merged
        p, q = read("a1*b1 + 2"), read_poly("a1 + b1", other)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(p, q)
            with pytest.raises(ValueError):
                op(q, p)


class TestExponents:
    """Exponents are read with `operator.index` and fit the 16-bit key fields."""

    XY = ("x", "y")

    @pytest.mark.parametrize("terms", [
        {(1.5, 0): 1},
        {(True, 2.9): 3},
        {("3", 0): 1},
        {(Fraction(2), 0): 1},
    ])
    def test_non_integral_exponents_raise(self, terms):
        # int() would truncate: {(1.5, 0): 1, (True, 2.9): 3} would read as 3*x*y^2 + x
        with pytest.raises(TypeError):
            Poly(self.XY, terms)

    def test_index_like_exponents_accepted(self):
        np = pytest.importorskip("numpy")
        got = Poly(self.XY, {(True, np.int64(2)): 3, (np.uint8(1), False): 1})
        assert got == Poly(self.XY, {(1, 2): 3, (1, 0): 1})
        assert got.canonical_str() == "3*x*y^2 + x"

    @pytest.mark.parametrize("expo", [(EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT)])
    def test_largest_exponent_builds_and_reads_back(self, expo):
        p = Poly(self.XY, {expo: 2})
        assert p.terms == {expo: 2} and degree(p) == EXPONENT_LIMIT

    @pytest.mark.parametrize(
        "expo", [(EXPONENT_LIMIT + 1, 0), (0, EXPONENT_LIMIT + 1), (1 << 16, 0)])
    def test_exponent_past_the_width_raises(self, expo):
        with pytest.raises(OverflowError):
            Poly(self.XY, {expo: 1})

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            Poly(self.XY, {(0, -1): 1})

    @pytest.mark.parametrize("name", XY)
    def test_product_past_the_width_raises(self, name):
        # each field's top bit is a guard: the sum lands there, never in the next field
        x = Poly.var(self.XY, name)
        top = _ipow(x, EXPONENT_LIMIT)
        assert top.terms == {tuple(EXPONENT_LIMIT if v == name else 0 for v in self.XY): 1}
        with pytest.raises(OverflowError):
            top * x
        with pytest.raises(OverflowError):
            x * top
        with pytest.raises(OverflowError):
            _ipow(x, EXPONENT_LIMIT + 1)

    def test_half_width_factors(self):
        x, y = (Poly.var(self.XY, v) for v in self.XY)
        half = (EXPONENT_LIMIT + 1) // 2
        assert (_ipow(x, half - 1) * y) * (_ipow(x, half) + y) == Poly(
            self.XY, {(EXPONENT_LIMIT, 1): 1, (half - 1, 2): 1})
        with pytest.raises(OverflowError):
            _ipow(x, half) * (_ipow(x, half) + y)

    def test_a_sum_of_products_past_the_width_raises_though_it_cancels(self):
        # x^L * x - x * x^L is zero, but its one key passed the limit
        x = Poly.var(self.XY, "x")
        top, acc, (_, guard) = _ipow(x, EXPONENT_LIMIT).packed.items(), {}, key_layout(2)
        with pytest.raises(OverflowError):
            add_product(acc, top, x.packed.items(), guard)
            add_product(acc, x.scale(-1).packed.items(), top, guard)
            poly_from_sum(self.XY, acc)

    def test_cleared_scales_by_the_lcm_of_every_denominator(self):
        # 1/4, a Gaussian 1/6 + i and 2/3 share D = 12; a sum of products of
        # the cleared lists over D^2 is the exact product
        x, y = (Poly.var(self.XY, v) for v in self.XY)
        kx, ky = next(iter(x.packed)), next(iter(y.packed))
        p = x.scale(Fraction(1, 4)) + y.scale(GaussianRational(Fraction(1, 6), 1))
        q = x.scale(Fraction(2, 3)) + y
        d, (cp, cq) = cleared([p, q])
        assert d == 12
        assert dict(cp) == {kx: 3, ky: GaussianRational(2, 12)}
        assert dict(cq) == {kx: 8, ky: 12}
        for _, c in [*cp, *cq]:
            parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
            assert all(type(part) is int for part in parts)
        acc = {}
        add_product(acc, cp, cq, key_layout(2)[1])
        assert poly_from_sum(self.XY, acc, d * d) == p * q
        s = x + y  # no Fraction: D = 1 and the stored terms as they are
        d, (cs,) = cleared([s])
        assert d == 1 and list(cs) == list(s.packed.items())

    def test_terms_view_does_not_alias(self):
        p = read("a1*b2 + 2")
        view = p.terms
        view[(0, 0, 0, 0)] = 5
        assert p == read("a1*b2 + 2")


def unpacked_occurring(p: Poly) -> list[int]:
    """`Poly.occurring` by unpacking every field of the OR of the keys."""
    fields = _unpack(reduce(operator.or_, p.packed, 0), len(p.variables))
    return [k for k, e in enumerate(fields) if e]


class TestKeyFields:
    def test_matches_unpacking_on_random_keys(self, rng):
        for _ in range(300):
            n = rng.randint(1, 40)
            expo = [0] * n
            for k in rng.sample(range(n), rng.randint(0, n)):
                expo[k] = rng.choice([1, 2, rng.randint(1, EXPONENT_LIMIT), EXPONENT_LIMIT])
            p = Poly([f"x{k}" for k in range(n)], {tuple(expo): 1})
            (key,) = p.packed
            assert key == _pack(tuple(expo))  # `Poly(...)` encodes by the unit keys
            fields = [(k, e) for k, e in enumerate(_unpack(key, n)) if e]
            assert key_fields(key, n) == ([k for k, _ in fields], [e for _, e in fields])
            assert p.terms == {_unpack(key, n): 1}


class TestOccurring:
    def test_matches_unpacking_on_random_keys(self, rng):
        for _ in range(300):
            n = rng.randint(1, 40)
            terms = {}
            for _ in range(rng.randint(0, 4)):
                expo = [0] * n
                for k in rng.sample(range(n), rng.randint(0, min(n, 3))):
                    expo[k] = rng.choice([1, 2, rng.randint(1, EXPONENT_LIMIT), EXPONENT_LIMIT])
                terms[tuple(expo)] = rng.randint(1, 5)
            p = Poly([f"x{k}" for k in range(n)], terms)
            assert p.occurring() == unpacked_occurring(p)

    @pytest.mark.parametrize("n", [1, 2, 17])
    @pytest.mark.parametrize("e", [1, EXPONENT_LIMIT])
    def test_first_and_last_variable(self, n, e):
        vs = [f"x{k}" for k in range(n)]
        first, last = ((e,) + (0,) * (n - 1)), ((0,) * (n - 1) + (e,))
        for terms, want in (({first: 1}, [0]), ({last: 2}, [n - 1]),
                            ({first: 1, last: 3}, sorted({0, n - 1})), ({}, [])):
            p = Poly(vs, terms)
            assert p.occurring() == unpacked_occurring(p) == want


class TestDiff:
    def test_power_rule(self):
        assert (var("a1") * var("b1") * var("b1")).diff("b1").canonical_str() == "2*a1*b1"

    def test_independent_variable(self):
        assert var("a2").diff("a1").is_zero

    def test_monomial_wise(self):
        p = read("a1^2*b2 + a1")
        assert p.diff("a1").canonical_str() == "2*a1*b2 + 1"

    def test_unknown_variable(self):
        with pytest.raises(KeyError, match="unknown variable 'c1'"):
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

    def test_many_to_one_and_zero_images(self):
        table = {"a1": ("b1", 2), "a2": ("b1", 1), "b1": ("b1", -1), "b2": ("a1", 0)}
        assert (var("a1") * var("a2") * var("b1")).subst_linear(table) == _ipow(var("b1"), 3).scale(-2)
        assert (var("a1") + var("b2") * var("a2")).subst_linear(table) == var("b1").scale(2)

    def test_into_a_target_list(self):
        # a chart's lift and restriction: onto a longer list and back
        wide = ("a0",) + V
        up = {v: (v, 1) for v in V}
        p = var("a1") * var("b2") * var("b2") - var("a2").scale(Fraction(1, 3))
        lifted = p.subst_linear(up, wide)
        assert lifted.variables == wide and lifted.canonical_str() == p.canonical_str()
        down = {v: (v, 1) for v in V} | {"a0": ("a1", 0)}
        assert (lifted + Poly.var(wide, "a0")).subst_linear(down, V) == p

    def test_uncovered_variable_rejected(self):
        table = {"a1": ("a1", 1), "a2": ("a2", 1), "b1": ("b1", 1)}
        with pytest.raises(ValueError, match="does not cover"):
            var("b2").subst_linear(table)

    def test_image_outside_the_target_list_rejected(self):
        table = {"a1": ("a1", 1), "a2": ("a3", 1), "b1": ("b1", 1), "b2": ("b2", 0)}
        with pytest.raises(ValueError, match="not in the target list"):
            (var("a1") * var("a2")).subst_linear(table)
        # a zero image names no variable of the target list
        assert var("b2").subst_linear({**table, "a2": ("a2", 1)}).is_zero

    def test_entries_of_absent_variables_never_read(self):
        # only the variables that occur are looked up: the other entries may
        # name no target variable, or not be (w, c) pairs at all
        class Recording(dict):
            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

        read = []
        table = Recording({"a1": ("b1", 2), "a2": ("a3", 1), "b1": None})
        assert (var("a1") * var("a1")).subst_linear(table) == (var("b1") * var("b1")).scale(4)
        assert read == ["a1"]

    @pytest.mark.parametrize("sources, e", [(2, 20000), (3, 20000), (3, 30000), (4, 20000)])
    def test_many_to_one_overflow_raises(self, sources, e):
        # sums 40,000 to 90,000 pass EXPONENT_LIMIT; 90,000 and 80,000 would
        # carry into the field before b1's, not only set its guard bit
        table = {v: ("b1", 1) for v in V[:sources]}
        table.update({v: (w, 1) for v, w in zip(V[sources:], ("a1", "a2"))})
        p = Poly(V, {(e,) * sources + (0,) * (4 - sources): 1})
        with pytest.raises(OverflowError):
            p.subst_linear(table)
        # at the limit, no overflow
        fits = Poly(V, {(EXPONENT_LIMIT // sources,) * sources + (0,) * (4 - sources): 1})
        assert degree(fits.subst_linear(table)) == sources * (EXPONENT_LIMIT // sources)

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
            assert evaluate(p.subst_linear(A.images), x) == evaluate(p, image)


class TestEval:
    def test_simple_sum(self):
        assert evaluate(var("a1") + var("b1"), [1, 0, 2, 0]) == 3

    def test_zero_everywhere(self):
        assert evaluate(Poly.zero(V), [5, 5, 5, 5]) == 0

    def test_monomial(self):
        assert evaluate(var("a1") * var("b1") * var("b1"), [3, 0, 2, 0]) == 12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(var("a1"), [1, 2])

    def test_float_path(self):
        val = evaluate(var("a1") * var("b1"), [0.5, 0.0, 2.0, 0.0])
        assert val == pytest.approx(1.0)


class TestGaussian:
    def test_imaginary_unit_squares(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == Fraction(-1)

    def test_gaussian_poly_product(self):
        # (i a1)(i a1) is rational: it equals -(a1^2) built from rationals alone
        p = Poly.const(V, I_UNIT) * var("a1")
        assert p * p == -(var("a1") * var("a1"))
        assert all(type(c) is int for c in (p * p).packed.values())

    def test_real_imag_split(self):
        a1, a2 = var("a1"), var("a2")
        p = a1.scale(GaussianRational(Fraction(1, 2), -3)) + a2.scale(I_UNIT)
        assert p.canonical_str() == "(1/2-3*i)*a1 + i*a2"
        assert real_part(p).canonical_str() == "1/2*a1"
        assert imag_part(p).canonical_str() == "-3*a1 + a2"

    @pytest.mark.parametrize("num, den, want", [
        (GaussianRational(1, 0), 2, Fraction(1, 2)),
        (GaussianRational(1, 1), GaussianRational(1, -1), I_UNIT),
        (GaussianRational(2, 4), GaussianRational(1, 2), 2),
        (3, GaussianRational(0, 3), -I_UNIT),
    ])
    def test_division_is_exact_and_normal(self, num, den, want):
        # an int `/` in the conjugate quotient would give float parts
        got = divide(num, den)
        assert type(got) is type(want) and got == want
        assert_normal(got)

    def test_float_scalars_rejected(self):
        # 1 / 3 read back as a Fraction would be inexact; a float must not enter
        with pytest.raises(TypeError):
            normal(1 / 3)
        with pytest.raises(TypeError):
            Poly.const(V, 0.5)
        with pytest.raises(TypeError):
            var("a1").scale(2.0)

    def test_degree_sentinel(self):
        assert degree(Poly.zero(V)) == -math.inf
        assert degree(read("a1*b1^2")) == 3


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


# ints of every sign, zero among them, and 400-digit values
integers = st.one_of(st.integers(-50, 50), st.integers(-10**400, 10**400))


@settings(max_examples=200, deadline=None)
@given(integers, integers.filter(bool), st.booleans())
@example(0, -7, False)
@example(-(10**399), 10**399, True)
def test_integer_division_equals_fraction(q, y, exact):
    # `divide` takes an exact integer quotient without a Fraction
    x = q * y if exact else q
    got = divide(x, y)
    assert got == Fraction(x, y)
    assert (type(got) is int) == (x % y == 0)
    assert_normal(got)


@settings(max_examples=40, deadline=None)
@given(integers)
def test_integer_division_by_zero_raises_as_fraction_does(x):
    with pytest.raises(ZeroDivisionError) as want:
        Fraction(x, 0)
    with pytest.raises(ZeroDivisionError) as got:
        divide(x, 0)
    assert str(got.value) == str(want.value)


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


# ------------------------------------------------------------ tuple-keyed oracles

# The earlier `Poly` stored each monomial as an exponent tuple.  Its sum,
# product, derivative, linear substitution, variable extension and canonical
# term order are kept below as `old_*`, verbatim but for reading `.terms` and
# returning the term dict instead of a `Poly`, as oracles for the packed keys:
# each operation must give the same terms, with coefficients of the same
# types, in the same dict order.


def old_add(p, q):
    terms = dict(p.terms)
    for expo, coeff in q.terms.items():
        s = terms.get(expo, 0) + coeff
        if s:
            terms[expo] = normal(s)
        else:
            terms.pop(expo, None)
    return terms


def old_mul(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(expo, 0) + c1 * c2
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
    # a partial sum may be an integral Fraction or a real GaussianRational;
    # normalise once, at the end
    for expo, c in terms.items():
        if type(c) is not int:
            terms[expo] = normal(c)
    return terms


def old_diff(p, name):
    pos = p.variables.index(name)
    terms = {}
    for expo, coeff in p.terms.items():
        e = expo[pos]
        if e == 0:
            continue
        new = list(expo)
        new[pos] = e - 1
        terms[tuple(new)] = normal(coeff * e)
    return terms


def old_subst_linear(p, table):
    pos = {v: k for k, v in enumerate(p.variables)}
    terms = {}
    for expo, c in p.terms.items():
        new = [0] * len(expo)
        for v, e in zip(p.variables, expo):
            if e == 0:
                continue
            src, scale = table[v]
            new[pos[src]] += e
            c = c * _ipow(scale, e)
        key = tuple(new)
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    # a sum may be an integral Fraction or a real GaussianRational; normalise
    # once, at the end
    return {e: normal(c) for e, c in terms.items()}


def old_extend(p, variables):
    idx = [variables.index(v) for v in p.variables]
    terms = {}
    for expo, coeff in p.terms.items():
        new = [0] * len(variables)
        for pos, e in zip(idx, expo):
            new[pos] = e
        terms[tuple(new)] = coeff
    return terms


def old_sorted_terms(terms):
    """Descending exponent tuples, each read as the positions and the
    exponents of its nonzero entries, as `Poly.sorted_terms` gives them."""
    items = sorted(terms.items(), key=lambda kv: kv[0], reverse=True)
    return [(([k for k, e in enumerate(expo) if e], [e for e in expo if e]), c)
            for expo, c in items]


def typed(items):
    """(exponents, coefficient with the type of each rational part), in order."""
    def parts(c):
        if isinstance(c, GaussianRational):
            return (GaussianRational, type(c.re), c.re, type(c.im), c.im)
        return (type(c), c)
    return [(e, parts(c)) for e, c in items]


def assert_same(new: Poly, old_terms: dict):
    assert typed(new.terms.items()) == typed(old_terms.items())
    assert typed(new.sorted_terms()) == typed(old_sorted_terms(old_terms))


ORACLE_VARS = ("a1", "a2", "a3", "b1", "b2")
oracle_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# rational and Gaussian coefficients, mixed in one polynomial
oracle_scalars = st.one_of(
    oracle_fractions, st.builds(GaussianRational, oracle_fractions, oracle_fractions))


@st.composite
def oracle_polys(draw, count):
    # exponents up to 4 on the first variables and 0 on the rest, so that
    # products cancel and collect terms
    width = draw(st.integers(1, len(ORACLE_VARS)))
    expos = st.tuples(*[st.integers(0, 4 if k < width else 0) for k in range(len(ORACLE_VARS))])
    term = st.tuples(expos, oracle_scalars)
    return [Poly(ORACLE_VARS, dict(draw(st.lists(term, max_size=6)))) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_ring_ops_match_tuple_keyed_oracles(data):
    p, q = data.draw(oracle_polys(2))
    assert_same(p + q, old_add(p, q))
    assert_same(p - q, old_add(p, -q))
    assert_same(p * q, old_mul(p, q))
    assert_same(p * p * q, old_mul(p * p, q))
    for v in ORACLE_VARS:
        assert_same(p.diff(v), old_diff(p, v))
    wider = ("a0",) + ORACLE_VARS[:3] + ("a9", "b0") + ORACLE_VARS[3:]
    assert_same(p.subst_linear({v: (v, 1) for v in ORACLE_VARS}, wider), old_extend(p, wider))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_subst_linear_matches_tuple_keyed_oracle(data):
    (p,) = data.draw(oracle_polys(1))
    sources = data.draw(st.permutations(ORACLE_VARS))
    scales = oracle_scalars.filter(bool)
    table = {v: (w, data.draw(scales)) for v, w in zip(ORACLE_VARS, sources)}
    assert_same(p.subst_linear(table), old_subst_linear(p, table))


# ------------------------------------------------------------------ one ring

# scalars whose products and sums often turn real: i * i, (1 + i)(1 - i), ...
units = st.sampled_from([1, -1, I_UNIT, -I_UNIT, GaussianRational(1, 1), GaussianRational(1, -1)])
ring_scalars = st.one_of(units, oracle_scalars)


def assert_one_ring(p: Poly):
    """p stores every coefficient in normal form: no GaussianRational with
    imaginary part 0, which would hold a rational in a second form."""
    for c in p.packed.values():
        assert c
        assert_normal(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_result_stores_a_real_gaussian(data):
    p, q = data.draw(oracle_polys(2))
    g, h = data.draw(ring_scalars.filter(bool)), data.draw(ring_scalars.filter(bool))
    ip, jq = p.scale(g), q.scale(h)
    results = [ip + jq, ip - jq, ip * jq, ip * ip, p.scale(I_UNIT) * p.scale(I_UNIT),
               (ip + p.scale(I_UNIT)) - p.scale(I_UNIT), ip.scale(divide(1, g))]
    results += [r.diff(v) for r in results[:3] for v in ORACLE_VARS]
    sources = data.draw(st.permutations(ORACLE_VARS))
    table = {v: (w, data.draw(ring_scalars.filter(bool))) for v, w in zip(ORACLE_VARS, sources)}
    results += [ip.subst_linear(table), (ip * jq).subst_linear(table)]
    # a scaled permutation with one shifted image keeps the expansion small
    images = {v: Poly.var(ORACLE_VARS, w).scale(c) for v, (w, c) in table.items()}
    first = ORACLE_VARS[0]
    images[first] = images[first] + Poly.const(ORACLE_VARS, h)
    results.append(substitute(ip, images))
    for r in results:
        assert_one_ring(r)
    # (i p)(i p) = -(p^2) for every p; for a rational p the right side never
    # sees sqrt(-1)
    assert results[4] == -(p * p)
    assert results[5] == ip and results[6] == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_solve_exact_on_mixed_rows_returns_normal_scalars(data):
    # A x = b for a rational x, A mixing rational and Gaussian entries: the
    # elimination runs through Gaussian values, the solution comes back rational
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(n, n + 2))
    x = [data.draw(oracle_fractions) for _ in range(n)]
    rows = [[normal(data.draw(ring_scalars)) for _ in range(n)] for _ in range(m)]
    rhs = [normal(sum((a * xi for a, xi in zip(row, x)), 0)) for row in rows]
    (got,), unique = solve_exact(*to_columns(rows, [rhs]))
    assert (got, unique) == dense_solve_exact(rows, rhs)
    for c in got:
        assert_normal(c)
    if unique:
        assert got == x and all(type(c) is not GaussianRational for c in got)

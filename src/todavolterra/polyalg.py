"""Exact multivariate polynomial arithmetic over one coefficient ring, Q(i).

A polynomial is stored sparsely as a map from monomial keys to nonzero
coefficients, together with a fixed ordered tuple of variable names.  A key
packs an exponent tuple into one int: `Poly(...)` sums each exponent times
its variable's unit key (`key_layout`: a field of 16 bits, variable 0 the
highest), and `key_fields` reads the nonzero fields back.  So a product of
monomials is one integer addition, a derivative subtracts a unit key, and
integer order is the lexicographic order of exponent tuples.  The top bit of every field is a
guard: a stored exponent is at most `EXPONENT_LIMIT` (32,767), two keys add
without a carry between fields, and a product whose degree in some variable
passes the limit raises `OverflowError` instead of wrapping.  Zero
coefficients are never stored, so two polynomials are equal exactly when
their variable lists and term maps coincide; symbolic identity checks reduce
to dictionary comparison.

Every coefficient is an exact scalar of Q(i) held in normal form (`normal`),
the one place that decides how a scalar is stored: an `int` when it is an
integer, a `fractions.Fraction` when it is rational but not an integer, and
a `GaussianRational` only when its imaginary part is nonzero; never a float.
Almost every coefficient of the lattice identities is a small integer, and
int arithmetic is several times cheaper than Fraction or Gaussian
arithmetic, so a polynomial pays for sqrt(-1) only in the terms that hold
it.  The sums of products in `poisson` go further: `cleared` scales each
operand to integer numerators, the one product loop (`add_product`) runs on
them, and `poly_from_sum` divides each result once.  The three types
compare and hash equal on equal values and print alike (`format_scalar`),
so the normal form changes no output.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Sequence, Union

_set = object.__setattr__

_WIDTH = 16  # bits per exponent field of a monomial key
EXPONENT_LIMIT = (1 << (_WIDTH - 1)) - 1  # the field's top bit is the guard


@lru_cache(maxsize=None)
def key_layout(n: int) -> tuple[tuple[int, ...], int]:
    """(units, guard) of the keys of n variables: units[k] is the key of
    variable k alone, and guard has the top bit of every field set, so a key
    that holds one has an exponent past `EXPONENT_LIMIT`."""
    units = tuple(1 << (_WIDTH * (n - 1 - k)) for k in range(n))
    return units, sum(units) << (_WIDTH - 1)


@lru_cache(maxsize=None)
def unit_keys(variables: tuple[str, ...]) -> Mapping[str, int]:
    """{name: key of that variable alone}; a monomial's key is the sum of the
    keys of its factors.  Cached per variable tuple, so read-only."""
    return MappingProxyType(dict(zip(variables, key_layout(len(variables))[0])))


def key_fields(key: int, n: int) -> tuple[list[int], list[int]]:
    """The nonzero fields of a key of n variables, variable 0 first, as
    (positions, exponents): the one reader of a key's fields.  Two lists,
    not pairs, so that `Poly.occurring` takes the positions as they are."""
    positions, exponents = [], []
    while key:
        field = (key.bit_length() - 1) // _WIDTH
        shift = _WIDTH * field
        positions.append(n - 1 - field)
        exponents.append(key >> shift)
        key &= (1 << shift) - 1
    return positions, exponents


def normal(value):
    """An exact scalar of Q(i) in normal form: an `int` when it is an integer,
    a `Fraction` when it is rational but not an integer, a `GaussianRational`
    only when its imaginary part is nonzero.

    A `GaussianRational` with imaginary part 0 becomes its real part (its
    parts are normal on construction); any other rational value (a bool, a
    numpy integer, a string such as "1/2") is converted by `Fraction` first.
    A float raises `TypeError`: an int `/` that leaked into exact code must
    fail, not become an inexact Fraction.
    """
    t = type(value)
    if t is int:
        return value
    if t is GaussianRational:
        return value if value.im else value.re
    if t is not Fraction:
        if isinstance(value, float):
            raise TypeError(f"float {value!r} in exact arithmetic")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def divide(x, y):
    """x / y exactly, in normal form; `/` on two ints would give a float."""
    if type(x) is int and type(y) is int and y and not x % y:
        return x // y  # an exact integer quotient needs no Fraction
    if isinstance(x, GaussianRational) or isinstance(y, GaussianRational):
        return normal(GaussianRational.of(x) / y)
    return normal(Fraction(x, y))


class GaussianRational:
    """Exact, immutable complex scalar re + im*i; both parts rationals in
    normal form (`normal`)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        _set(self, "re", re if type(re) is int else normal(re))
        _set(self, "im", im if type(im) is int else normal(im))

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value, 0)

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(Fraction(other.re, norm), Fraction(-other.im, norm))

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __str__(self) -> str:
        return format_scalar(self)


I_UNIT = GaussianRational(0, 1)

Scalar = Union[int, Fraction, GaussianRational]


def format_scalar(c: Scalar) -> str:
    """Canonical text for a coefficient; Gaussian values use the unit token i."""
    if isinstance(c, GaussianRational):
        if c.im == 0:
            return str(c.re)
        if c.re == 0:
            if c.im == 1:
                return "i"
            if c.im == -1:
                return "-i"
            return f"{c.im}*i"
        im = f"+{c.im}*i" if c.im > 0 else f"-{-c.im}*i"
        return f"({c.re}{im})"
    return str(c)


def _checked_variables(variables: Sequence[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    return variables


class Poly:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("variables", "packed")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple[int, ...], Scalar] | None = None):
        variables = _checked_variables(variables)
        units = key_layout(len(variables))[0]
        clean: dict[int, Scalar] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(map(operator.index, expo))  # 1.5 or "3" raise, never truncate
            if len(expo) != len(variables):
                raise ValueError("exponent tuple length does not match variables")
            if min(expo, default=0) < 0:
                raise ValueError("negative exponent")
            if max(expo, default=0) > EXPONENT_LIMIT:
                raise OverflowError(f"exponent above {EXPONENT_LIMIT}")
            c = normal(coeff)
            if c:
                key = sum(map(operator.mul, compress(expo, expo), compress(units, expo)))
                c = normal(clean[key] + c) if key in clean else c
                if c:
                    clean[key] = c
                else:
                    del clean[key]
        _set_variables(self, variables)
        _set_packed(self, clean)

    @classmethod
    def _make(cls, variables: tuple[str, ...], packed: dict[int, Scalar]) -> "Poly":
        """Trusted internal constructor: stores its arguments without checks.

        The caller guarantees what `__init__` would otherwise establish:
        `variables` is a tuple of distinct names other than ``"i"``, every
        key of `packed` is a monomial key of len(variables) fields (see the
        module docstring), each field at most `EXPONENT_LIMIT`, and every
        value is a nonzero scalar in normal form (`normal`).  `packed` is
        kept, not copied, so the caller must not mutate it afterwards.  Only
        operations whose inputs are already `Poly` objects and whose results
        keep these invariants (sum, negation, scaling by a nonzero scalar,
        derivative, a scaled variable map, and `poly_from_sum`, which
        finishes every sum of products), the zero polynomial, `catalog`'s
        Lax entries, walks and templates, `moser`'s equations read off an
        exact solve and `bogo`'s B-system (one nonzero int per 1/b_j), on
        checked variables, use it; outside input goes through `Poly(...)`.
        """
        p = object.__new__(cls)
        _set_variables(p, variables)
        _set_packed(p, packed)
        return p

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """{exponent tuple: coefficient}, a new dict on each read."""
        n, terms = len(self.variables), {}
        for key, c in self.packed.items():
            expo = [0] * n
            for k, e in zip(*key_fields(key, n)):
                expo[k] = e
            terms[tuple(expo)] = c
        return terms

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str]) -> "Poly":
        return Poly._make(_checked_variables(variables), {})

    @staticmethod
    def const(variables: Sequence[str], value: Scalar) -> "Poly":
        n = len(tuple(variables))
        return Poly(variables, {(0,) * n: value})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return Poly(variables, {tuple(expo): 1})

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def occurring(self) -> list[int]:
        """Positions of the variables that occur in some term, ascending: the
        nonzero fields of the OR of the keys."""
        return key_fields(reduce(operator.or_, self.packed, 0), len(self.variables))[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.packed == other.packed

    __hash__ = None  # mutable-looking equality; not hashable

    def __repr__(self) -> str:
        return f"Poly({self.canonical_str()!r}, vars={self.variables})"

    def __str__(self) -> str:
        return self.canonical_str()

    # ------------------------------------------------------------ arithmetic

    def _aligned(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if self.variables != other.variables:
            raise ValueError("polynomials on different variable lists; move one by subst_linear")
        return self, other

    def __add__(self, other: "Poly") -> "Poly":
        p, q = self._aligned(other)
        terms = dict(p.packed)
        for expo, coeff in q.packed.items():
            s = terms.get(expo, 0) + coeff
            if s:
                terms[expo] = normal(s)
            else:
                terms.pop(expo, None)
        return Poly._make(p.variables, terms)

    def __neg__(self) -> "Poly":
        return Poly._make(self.variables, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        p, q = self._aligned(other)
        acc: dict[int, Scalar] = {}
        add_product(acc, p.packed.items(), q.packed.items(), key_layout(len(p.variables))[1])
        return poly_from_sum(p.variables, acc)

    def scale(self, value: Scalar) -> "Poly":
        c = normal(value)
        if not c:
            return Poly.zero(self.variables)
        return Poly._make(self.variables, {e: normal(c * v) for e, v in self.packed.items()})

    # ------------------------------------------------------------- calculus

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to one variable."""
        if name not in self.variables:
            raise KeyError(f"unknown variable {name!r}")
        unit = unit_keys(self.variables)[name]
        mask = unit * EXPONENT_LIMIT  # the variable's field
        terms = {}
        for key, coeff in self.packed.items():
            e = key & mask
            if e:
                terms[key - unit] = normal(coeff * (e // unit))
        return Poly._make(self.variables, terms)

    # --------------------------------------------------------- substitution

    def subst_linear(self, table, variables: Sequence[str] | None = None) -> "Poly":
        """Carry self along a scaled variable map into the list `variables`
        (by default self's own).

        `table[v] = (w, c)` replaces each variable v of self by c*w, where w
        is a variable of the target list; c = 0 makes v zero, whatever w is.
        A `LinearMap` passes its `images` (the image point has v-coordinate
        c*x_w), a `FixedPointChart` its `section`.  It reads, and checks as
        it reads, only the entries of the variables that occur in self.
        """
        target = self.variables if variables is None else _checked_variables(variables)
        unit = unit_keys(target)
        # (shift of the field in self's keys, unit key of the image, scale)
        # for each variable that occurs; a term holding one that maps to zero
        # vanishes
        n, fields, dead = len(self.variables), [], 0
        for k in self.occurring():
            v = self.variables[k]
            if v not in table:
                raise ValueError(f"linear map does not cover variables {[v]}")
            w, c = table[v]
            shift = _WIDTH * (n - 1 - k)
            if not c:
                dead |= EXPONENT_LIMIT << shift
            elif w in unit:
                fields.append((shift, unit[w], c))
            else:
                raise ValueError(f"image variables {[w]} not in the target list")
        # a target field fed by one source stays within EXPONENT_LIMIT; where
        # sources share a field, each addition is checked: the field held at
        # most the limit before it, so it cannot carry, and the guard bit
        # shows an overflow
        shared = len({u for _, u, _ in fields}) < len(fields)
        guard = key_layout(len(target))[1]
        terms: dict[int, Scalar] = {}
        for packed, c in self.packed.items():
            if packed & dead:
                continue
            key = 0
            for shift, u, scale in fields:
                e = packed >> shift & EXPONENT_LIMIT
                if e:
                    key += e * u
                    c = c * _ipow(scale, e)
                    if shared and key & guard:
                        raise OverflowError(f"image has an exponent above {EXPONENT_LIMIT}")
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        # a sum may be an integral Fraction or a real GaussianRational;
        # normalise once, at the end
        return Poly._make(target, {e: normal(c) for e, c in terms.items()})

    # --------------------------------------------------------------- output

    def sorted_terms(self) -> list[tuple[tuple[list[int], list[int]], Scalar]]:
        """((positions, exponents), coefficient) per term in canonical order,
        descending lexicographic exponent order, which is the descending
        order of the keys; the fields are the key's `key_fields`."""
        n = len(self.variables)
        return [(key_fields(key, n), c) for key, c in sorted(self.packed.items(), reverse=True)]

    def canonical_str(self) -> str:
        if not self.packed:
            return "0"
        chunks: list[str] = []
        for (positions, exponents), coeff in self.sorted_terms():
            factors = [
                self.variables[k] if e == 1 else f"{self.variables[k]}^{e}"
                for k, e in zip(positions, exponents)
            ]
            cs = format_scalar(coeff)
            negative = cs.startswith("-")
            body = cs[1:] if negative else cs
            if factors:
                if body == "1":
                    body = "*".join(factors)
                else:
                    body = "*".join([body] + factors)
            sign = "-" if negative else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


# the slots' own setters, which `Poly.__setattr__` does not guard; half the
# cost of `object.__setattr__`, which looks each slot up by name
_set_variables, _set_packed = (Poly.__dict__[name].__set__ for name in ("variables", "packed"))


def _ipow(scalar: Scalar, n: int) -> Scalar:
    """scalar ** n for n >= 0 by square-and-multiply: at most 2 log2(n)
    products, and a plain 1 for n = 0.  `subst_linear` raises each scale
    factor to its exponent with it."""
    out = None
    while True:
        if n & 1:
            out = scalar if out is None else out * scalar
        n >>= 1
        if not n:
            return 1 if out is None else out
        scalar = scalar * scalar


# --------------------------------------------------------------------- misc


def add_product(acc: dict[int, Scalar], p, q, guard: int) -> None:
    """Add p * q into the sum `acc`, term by term: the one product loop.  p and
    q are (key, coefficient) term lists, such as `Poly.packed.items()`, of keys
    with the guard bits `guard` (`key_layout`).  A cancelled key leaves `acc`,
    raising past the limit."""
    get = acc.get
    for e1, c1 in p:
        for e2, c2 in q:
            key = e1 + e2
            s = get(key, 0) + c1 * c2
            if s:
                acc[key] = s
            else:
                del acc[key]
                if key & guard:
                    raise OverflowError(f"product has an exponent above {EXPONENT_LIMIT}")


def poly_from_sum(variables: tuple[str, ...], acc: dict[int, Scalar],
                  denominator: int = 1) -> Poly:
    """The `Poly` of a sum built by `add_product`, each coefficient divided by
    `denominator` (the product of the operands' `cleared` denominators) and
    normalised once.  A key past `EXPONENT_LIMIT` raises, even where it
    cancels (x^L * x - x * x^L)."""
    if reduce(operator.or_, acc, 0) & key_layout(len(variables))[1]:
        raise OverflowError(f"product has an exponent above {EXPONENT_LIMIT}")
    if denominator == 1:
        return Poly._make(variables, {k: c if type(c) is int else normal(c)
                                      for k, c in acc.items()})
    return Poly._make(variables, {k: divide(c, denominator) for k, c in acc.items()})


def _times(c: Scalar, d: int) -> Scalar:
    """d * c for a multiple d of c's denominators, with no `Fraction` arithmetic."""
    if type(c) is GaussianRational:
        return GaussianRational(_times(c.re, d), _times(c.im, d))
    return c.numerator * (d // c.denominator)


def cleared(polys: Sequence[Poly]) -> tuple[int, list]:
    """(D, terms): D is the lcm of the denominators of the coefficients of
    `polys`, both parts of a Gaussian one, read in one pass, and terms[k] is
    the (key, D * c) term list of polys[k].  Each D * c is an int, or a
    `GaussianRational` with int parts, so a product loop over such lists
    (`add_product`) does no `Fraction` arithmetic, and dividing its sums by the
    D's (`poly_from_sum`) gives the exact result.  With no `Fraction` in any
    coefficient, D = 1 and the lists are the `packed` items themselves."""
    d = 1
    for p in polys:
        for c in p.packed.values():
            if type(c) is Fraction:
                d = math.lcm(d, c.denominator)
            elif type(c) is GaussianRational:
                d = math.lcm(d, c.re.denominator, c.im.denominator)
    if d == 1:
        return 1, [p.packed.items() for p in polys]
    return d, [[(k, _times(c, d)) for k, c in p.packed.items()] for p in polys]


def equation_lines(variables: Sequence[str], rhs: Sequence[Poly]) -> list[str]:
    """The system v' = p, one line per variable v and right-hand side p."""
    return [f"{v}' = {p.canonical_str()}" for v, p in zip(variables, rhs)]

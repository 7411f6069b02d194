"""Exact multivariate polynomial arithmetic over Q and Q(i).

A polynomial is stored sparsely as a map from monomial keys to nonzero
coefficients, together with a fixed ordered tuple of variable names.  A key
packs an exponent tuple into one int: variable k's exponent fills a field of
16 bits, variable 0 the highest, so a product of monomials is one integer
addition, a derivative subtracts a unit key, and integer order is the
lexicographic order of exponent tuples.  The top bit of every field is a
guard: a stored exponent is at most `EXPONENT_LIMIT` (32,767), two keys add
without a carry between fields, and a product whose degree in some variable
passes the limit raises `OverflowError` instead of wrapping.  `Poly.terms`
reads the map back with exponent tuples as keys.  Zero coefficients are never
stored, so two polynomials are equal exactly when their variable lists,
coefficient fields and term maps coincide; symbolic identity checks reduce to
dictionary comparison.

Coefficients are exact rationals in the default rational mode (field ``"Q"``)
and `GaussianRational` pairs of them in Gaussian mode (field ``"Qi"``).  A
rational is held in normal form (`normal`): an `int` when it is integral and
a `fractions.Fraction` only when its denominator is not 1, never a float.
Almost every coefficient of the lattice identities is a small integer, and
int arithmetic is several times cheaper than Fraction arithmetic.  `int` and
`Fraction` compare and hash equal and print alike, so the normal form changes
no output.  The Gaussian extension is an explicit switch (`Poly.to_gaussian`);
arithmetic between polynomials of different fields raises, which keeps
sqrt(-1) from leaking into computations that are supposed to stay rational.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Mapping, Sequence, Union

RAT = "Q"
GAUSS = "Qi"

_FIELDS = (RAT, GAUSS)

_set = object.__setattr__

_WIDTH = 16  # bits per exponent field of a monomial key
EXPONENT_LIMIT = (1 << (_WIDTH - 1)) - 1  # the field's top bit is the guard


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[struct.Struct, tuple[int, ...], int]:
    """(codec, units, guard) of the keys of n variables: the codec packs an
    exponent tuple's fields as big-endian 16-bit words, units[k] is the key of
    x_k, and guard has the top bit of every field set."""
    units = tuple(1 << (_WIDTH * (n - 1 - k)) for k in range(n))
    return struct.Struct(f">{n}H"), units, sum(units) << (_WIDTH - 1)


def unit_keys(variables: Sequence[str]) -> dict[str, int]:
    """{name: key of that variable alone}; a monomial's key is the sum of the
    keys of its factors."""
    return dict(zip(variables, _layout(len(variables))[1]))


def _pack(expo: tuple[int, ...]) -> int:
    return int.from_bytes(_layout(len(expo))[0].pack(*expo), "big")


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return _layout(n)[0].unpack(key.to_bytes(2 * n, "big"))


class FieldMismatchError(TypeError):
    """Raised when polynomials over different coefficient fields are mixed."""


def normal(value):
    """An exact scalar in normal form: an integral rational becomes an `int`.

    An `int`, a `GaussianRational` (whose parts are normal on construction)
    and a `Fraction` whose denominator is not 1 come back as they are; any
    other rational value (a bool, a numpy integer, a string such as "1/2")
    is converted by `Fraction` first.  A float raises `TypeError`: an int
    `/` that leaked into exact code must fail, not become an inexact Fraction.
    """
    t = type(value)
    if t is int or t is GaussianRational:
        return value
    if t is not Fraction:
        if isinstance(value, float):
            raise TypeError(f"float {value!r} in exact arithmetic")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def divide(x, y):
    """x / y exactly, in normal form; `/` on two ints would give a float."""
    if isinstance(x, GaussianRational) or isinstance(y, GaussianRational):
        return GaussianRational.of(x) / y
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

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_scalar(self)


I_UNIT = GaussianRational(0, 1)

Scalar = Union[int, Fraction, GaussianRational]


def coerce_scalar(value: Scalar, field: str) -> Scalar:
    """Coerce an int/Fraction/GaussianRational into the given field, in
    normal form (`normal`)."""
    if field == RAT:
        if isinstance(value, GaussianRational):
            if value.im != 0:
                raise FieldMismatchError("Gaussian scalar in rational-mode polynomial")
            return value.re
        return normal(value)
    if field == GAUSS:
        return GaussianRational.of(value)
    raise ValueError(f"unknown coefficient field {field!r}")


def scalar_field(value: Scalar) -> str:
    return GAUSS if isinstance(value, GaussianRational) else RAT


def join_fields(f1: str, f2: str) -> str:
    return GAUSS if GAUSS in (f1, f2) else RAT


_VAR_KEY_RE = re.compile(r"([A-Za-z]+)(\d*)$")


def variable_sort_key(name: str) -> tuple[str, int]:
    """Sort key ordering 'a1' < 'a2' < 'b1': alphabetic prefix, then index."""
    m = _VAR_KEY_RE.match(name)
    if not m:
        return (name, 0)
    prefix, digits = m.groups()
    return (prefix, int(digits) if digits else 0)


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

    __slots__ = ("variables", "field", "packed")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
        field: str = RAT,
    ):
        if field not in _FIELDS:
            raise ValueError(f"unknown coefficient field {field!r}")
        variables = _checked_variables(variables)
        clean: dict[int, Scalar] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(map(operator.index, expo))  # 1.5 or "3" raise, never truncate
            if len(expo) != len(variables):
                raise ValueError("exponent tuple length does not match variables")
            if min(expo, default=0) < 0:
                raise ValueError("negative exponent")
            if max(expo, default=0) > EXPONENT_LIMIT:
                raise OverflowError(f"exponent above {EXPONENT_LIMIT}")
            c = coerce_scalar(coeff, field)
            if c:
                key = _pack(expo)
                c = normal(clean.get(key, 0) + c)
                if c:
                    clean[key] = c
                else:
                    del clean[key]
        _set_variables(self, variables)
        _set_field(self, field)
        _set_packed(self, clean)

    @classmethod
    def _make(cls, variables: tuple[str, ...], packed: dict[int, Scalar], field: str) -> "Poly":
        """Trusted internal constructor: stores its arguments without checks.

        The caller guarantees what `__init__` would otherwise establish:
        `variables` is a tuple of distinct names other than ``"i"``, `field`
        is RAT or GAUSS, every key of `packed` is a monomial key of
        len(variables) fields (see the module docstring), each field at most
        `EXPONENT_LIMIT`, and every value is a nonzero rational in normal
        form, `int | Fraction` (RAT; see `normal`), or a nonzero
        `GaussianRational` (GAUSS).  `packed` is kept, not copied, so the
        caller must not mutate it afterwards.  Only operations whose inputs
        are already `Poly` objects and whose results keep these invariants
        (sum, negation, product, scaling by a nonzero field element,
        derivative, variable extension, linear substitution) and the zero
        polynomial, on checked variables, use it; outside input, and results
        that may hold zero coefficients, go through `Poly(...)`.
        """
        p = object.__new__(cls)
        _set_variables(p, variables)
        _set_field(p, field)
        _set_packed(p, packed)
        return p

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """{exponent tuple: coefficient}, unpacked into a new dict on each read."""
        n = len(self.variables)
        return {_unpack(key, n): c for key, c in self.packed.items()}

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str], field: str = RAT) -> "Poly":
        if field not in _FIELDS:
            raise ValueError(f"unknown coefficient field {field!r}")
        return Poly._make(_checked_variables(variables), {}, field)

    @staticmethod
    def const(variables: Sequence[str], value: Scalar, field: str = RAT) -> "Poly":
        n = len(tuple(variables))
        return Poly(variables, {(0,) * n: value}, field)

    @staticmethod
    def var(variables: Sequence[str], name: str, field: str = RAT) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return Poly(variables, {tuple(expo): 1}, field)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def degree(self):
        """Total degree; the zero polynomial has degree -inf."""
        if not self.packed:
            return -math.inf
        return max(sum(e) for e in self.terms)

    def occurring(self) -> list[int]:
        """Positions of the variables that occur in some term, ascending."""
        # a field of the OR of the keys is nonzero iff its variable occurs
        fields = _unpack(reduce(operator.or_, self.packed, 0), len(self.variables))
        return [k for k, e in enumerate(fields) if e]

    def coefficient(self, expo: tuple[int, ...]) -> Scalar:
        return self.terms.get(tuple(expo), coerce_scalar(0, self.field))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.field == other.field
            and self.packed == other.packed
        )

    __hash__ = None  # mutable-looking equality; not hashable

    def __repr__(self) -> str:
        return f"Poly({self.canonical_str()!r}, vars={self.variables})"

    def __str__(self) -> str:
        return self.canonical_str()

    # ------------------------------------------------------------ arithmetic

    def _aligned(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot mix fields {self.field} and {other.field}; "
                "convert explicitly with to_gaussian()"
            )
        if self.variables != other.variables:
            raise ValueError("polynomials on different variable lists; extend one explicitly")
        return self, other

    def extend(self, variables: Sequence[str]) -> "Poly":
        """Re-express over a superset of variables (aligned by name)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        if not set(self.variables) <= set(variables):
            raise ValueError("target variable list must contain current variables")
        _checked_variables(variables)
        idx = [variables.index(v) for v in self.variables]
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(idx, expo):
                new[pos] = e
            terms[_pack(new)] = coeff
        return Poly._make(variables, terms, self.field)

    def __add__(self, other: "Poly") -> "Poly":
        p, q = self._aligned(other)
        terms = dict(p.packed)
        for expo, coeff in q.packed.items():
            s = terms.get(expo, 0) + coeff
            if s:
                terms[expo] = normal(s)
            else:
                terms.pop(expo, None)
        return Poly._make(p.variables, terms, p.field)

    def __neg__(self) -> "Poly":
        return Poly._make(self.variables, {e: -c for e, c in self.packed.items()}, self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        p, q = self._aligned(other)
        terms: dict[int, Scalar] = {}
        for e1, c1 in p.packed.items():
            for e2, c2 in q.packed.items():
                expo = e1 + e2
                s = terms.get(expo, 0) + c1 * c2
                if s:
                    terms[expo] = s
                else:
                    terms.pop(expo, None)
        if reduce(operator.or_, terms, 0) & _layout(len(p.variables))[2]:
            raise OverflowError(f"product has an exponent above {EXPONENT_LIMIT}")
        if p.field == RAT:
            # a partial sum may be an integral Fraction; normalise once, at the end
            for expo, c in terms.items():
                if type(c) is not int:
                    terms[expo] = normal(c)
        return Poly._make(p.variables, terms, p.field)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, value: Scalar) -> "Poly":
        c = coerce_scalar(value, self.field)
        if not c:
            return Poly.zero(self.variables, self.field)
        return Poly._make(
            self.variables, {e: normal(c * v) for e, v in self.packed.items()}, self.field
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(self.variables, 1, self.field)
        for _ in range(n):
            result = result * self
        return result

    # ------------------------------------------------------------- calculus

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to one variable."""
        if name not in self.variables:
            raise KeyError(f"unknown variable {name!r}")
        pos = self.variables.index(name)
        unit = _layout(len(self.variables))[1][pos]
        mask = unit * EXPONENT_LIMIT  # the variable's field
        terms = {}
        for key, coeff in self.packed.items():
            e = key & mask
            if e:
                terms[key - unit] = normal(coeff * (e // unit))
        return Poly._make(self.variables, terms, self.field)

    # --------------------------------------------------------- substitution

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Compose with a polynomial map covering every variable of self.

        `images[v]` gives the polynomial replacing variable v; all images must
        share one variable list and field.
        """
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise KeyError(f"substitution does not cover variables {missing}")
        imgs = [images[v] for v in self.variables]
        target_vars = imgs[0].variables
        field = imgs[0].field
        for p in imgs:
            if p.variables != target_vars or p.field != field:
                raise ValueError("substitution images must share variables and field")
        if self.field != field:
            raise FieldMismatchError(
                f"cannot substitute field-{field} images into field-{self.field} polynomial"
            )
        result = Poly.zero(target_vars, field)
        for expo, coeff in self.terms.items():
            term = Poly.const(target_vars, coeff, field)
            for img, e in zip(imgs, expo):
                for _ in range(e):
                    term = term * img
            result = result + term
        return result

    def subst_linear(self, table) -> "Poly":
        """Compose with an invertible scaled permutation of the variables.

        `table` maps each variable v to a pair (w, c): the image point has
        v-coordinate c*x_w, so occurrences of v in self are replaced by c*w;
        a `LinearMap` passes its `images`.
        """
        sources = [table[v][0] for v in self.variables if v in table]
        missing = [v for v in self.variables if v not in table]
        if missing:
            raise ValueError(f"linear map does not cover variables {missing}")
        if sorted(sources) != sorted(self.variables):
            raise ValueError("not a scaled permutation of the variable list")
        field = self.field
        for v in self.variables:
            field = join_fields(field, scalar_field(table[v][1]))
        n, unit = len(self.variables), unit_keys(self.variables)
        terms: dict[int, Scalar] = {}
        for packed, coeff in self.packed.items():
            c = coerce_scalar(coeff, field)
            key = 0
            for v, e in zip(self.variables, _unpack(packed, n)):
                if e == 0:
                    continue
                src, scale = table[v]
                key += e * unit[src]
                c = c * _ipow(coerce_scalar(scale, field), e)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        if field == RAT:
            # a sum of Fractions may be integral; normalise once, at the end
            terms = {e: normal(c) for e, c in terms.items()}
        return Poly._make(self.variables, terms, field)

    # ------------------------------------------------------------ evaluation

    def eval(self, point: Sequence) -> Scalar | float | complex:
        """Evaluate at a point (exact scalars stay exact, floats go float)."""
        point = list(point)
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        numeric = any(isinstance(x, (float, complex)) for x in point)
        if numeric:
            vals = [complex(x) for x in point]
            total = 0j
            for expo, coeff in self.terms.items():
                c = complex(coeff) if isinstance(coeff, GaussianRational) else float(coeff)
                term = complex(c)
                for x, e in zip(vals, expo):
                    if e:
                        term *= x**e
                total += term
            if abs(total.imag) == 0.0:
                return total.real
            return total
        total = coerce_scalar(0, self.field)
        pt = [coerce_scalar(x, self.field) for x in point]
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(pt, expo):
                if e:
                    term = term * _ipow(x, e)
            total = total + term
        return normal(total)

    # ---------------------------------------------------------- field moves

    def to_gaussian(self) -> "Poly":
        if self.field == GAUSS:
            return self
        return Poly(self.variables, {e: GaussianRational.of(c) for e, c in self.terms.items()}, GAUSS)

    def with_field(self, field: str) -> "Poly":
        if field == self.field:
            return self
        if field == GAUSS:
            return self.to_gaussian()
        return self.real_part()

    def real_part(self) -> "Poly":
        if self.field == RAT:
            return self
        return Poly(self.variables, {e: c.re for e, c in self.terms.items()}, RAT)

    def imag_part(self) -> "Poly":
        if self.field == RAT:
            return Poly.zero(self.variables, RAT)
        return Poly(self.variables, {e: c.im for e, c in self.terms.items()}, RAT)

    # --------------------------------------------------------------- output

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms in descending lexicographic exponent order (canonical), which
        is the descending order of the keys."""
        n = len(self.variables)
        return [(_unpack(key, n), c) for key, c in sorted(self.packed.items(), reverse=True)]

    def canonical_str(self) -> str:
        if not self.packed:
            return "0"
        chunks: list[str] = []
        for expo, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, expo)
                if e
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
_set_variables, _set_field, _set_packed = (
    Poly.__dict__[name].__set__ for name in ("variables", "field", "packed"))


def _ipow(scalar: Scalar, n: int) -> Scalar:
    if n == 0:
        return GaussianRational.of(1) if isinstance(scalar, GaussianRational) else 1
    out = scalar
    for _ in range(n - 1):
        out = out * scalar
    return out


# --------------------------------------------------------------------- misc


def poly_matrix_mul(A: list[list[Poly]], B: list[list[Poly]]) -> list[list[Poly]]:
    n, mid, m = len(A), len(B), len(B[0])
    zero = Poly.zero(A[0][0].variables, A[0][0].field)
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for k in range(mid):
            a = A[i][k]
            if a.is_zero:
                continue
            for j in range(m):
                b = B[k][j]
                if b.is_zero:
                    continue
                out[i][j] = out[i][j] + a * b
    return out

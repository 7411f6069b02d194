"""Exact multivariate polynomial arithmetic over Q and Q(i).

A polynomial is stored sparsely as a map from exponent tuples to nonzero
coefficients, together with a fixed ordered tuple of variable names.  Zero
coefficients are never stored, so two polynomials are equal exactly when their
variable lists, coefficient fields and term maps coincide; symbolic identity
checks reduce to dictionary comparison.

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
import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

RAT = "Q"
GAUSS = "Qi"

_FIELDS = (RAT, GAUSS)

_set = object.__setattr__


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

    __slots__ = ("variables", "field", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
        field: str = RAT,
    ):
        if field not in _FIELDS:
            raise ValueError(f"unknown coefficient field {field!r}")
        variables = _checked_variables(variables)
        clean: dict[tuple[int, ...], Scalar] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in expo):
                raise ValueError("negative exponent")
            c = coerce_scalar(coeff, field)
            if c:
                c = normal(clean.get(expo, 0) + c)
                if c:
                    clean[expo] = c
                else:
                    del clean[expo]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(
        cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Scalar], field: str
    ) -> "Poly":
        """Trusted internal constructor: stores its arguments without checks.

        The caller guarantees what `__init__` would otherwise establish:
        `variables` is a tuple of distinct names other than ``"i"``, `field`
        is RAT or GAUSS, every key of `terms` is a tuple of len(variables)
        nonnegative ints, and every value is a nonzero rational in normal
        form, `int | Fraction` (RAT; see `normal`), or a nonzero
        `GaussianRational` (GAUSS).  `terms` is kept, not copied, so the
        caller must not mutate it afterwards.  Only operations whose inputs
        are already `Poly` objects and whose results keep these invariants
        (sum, negation, product, scaling by a nonzero field element,
        derivative, variable extension) use it; outside input, and results
        that may hold zero coefficients, go through `Poly(...)`.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(variables: Sequence[str], field: str = RAT) -> "Poly":
        return Poly(variables, {}, field)

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
        return not self.terms

    def degree(self):
        """Total degree; the zero polynomial has degree -inf."""
        if not self.terms:
            return -math.inf
        return max(sum(e) for e in self.terms)

    def coefficient(self, expo: tuple[int, ...]) -> Scalar:
        return self.terms.get(tuple(expo), coerce_scalar(0, self.field))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.field == other.field
            and self.terms == other.terms
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
        if self.variables == other.variables:
            return self, other
        merged = tuple(
            sorted(set(self.variables) | set(other.variables), key=variable_sort_key)
        )
        return self.extend(merged), other.extend(merged)

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
            terms[tuple(new)] = coeff
        return Poly._make(variables, terms, self.field)

    def __add__(self, other: "Poly") -> "Poly":
        p, q = self._aligned(other)
        terms = dict(p.terms)
        for expo, coeff in q.terms.items():
            s = terms.get(expo, 0) + coeff
            if s:
                terms[expo] = normal(s)
            else:
                terms.pop(expo, None)
        return Poly._make(p.variables, terms, p.field)

    def __neg__(self) -> "Poly":
        return Poly._make(self.variables, {e: -c for e, c in self.terms.items()}, self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        p, q = self._aligned(other)
        terms: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(expo, 0) + c1 * c2
                if s:
                    terms[expo] = s
                else:
                    terms.pop(expo, None)
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
            self.variables, {e: normal(c * v) for e, v in self.terms.items()}, self.field
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
        terms = {}
        for expo, coeff in self.terms.items():
            e = expo[pos]
            if e == 0:
                continue
            new = list(expo)
            new[pos] = e - 1
            terms[tuple(new)] = normal(coeff * e)
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
        v-coordinate c*x_w, so occurrences of v in self are replaced by c*w.
        A `LinearMap` (anything exposing substitution_table()) is accepted.
        """
        if hasattr(table, "substitution_table"):
            table = table.substitution_table()
        sources = [table[v][0] for v in self.variables if v in table]
        missing = [v for v in self.variables if v not in table]
        if missing:
            raise ValueError(f"linear map does not cover variables {missing}")
        if sorted(sources) != sorted(self.variables):
            raise ValueError("not a scaled permutation of the variable list")
        field = self.field
        for v in self.variables:
            field = join_fields(field, scalar_field(table[v][1]))
        pos = {v: k for k, v in enumerate(self.variables)}
        terms: dict[tuple[int, ...], Scalar] = {}
        for expo, coeff in self.terms.items():
            c = coerce_scalar(coeff, field)
            new = [0] * len(expo)
            for v, e in zip(self.variables, expo):
                if e == 0:
                    continue
                src, scale = table[v]
                new[pos[src]] += e
                c = c * _ipow(coerce_scalar(scale, field), e)
            key = tuple(new)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly(self.variables, terms, field)

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
        """Terms in descending lexicographic exponent order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def canonical_str(self) -> str:
        if not self.terms:
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

    # --------------------------------------------------------------- parsing

    @staticmethod
    def parse(text: str, variables: Sequence[str], field: str | None = None) -> "Poly":
        """Parse the canonical string grammar emitted by canonical_str()."""
        tokens = _tokenize(text)
        wants_gauss = any(t == ("name", "i") for t in tokens)
        if field is None:
            field = GAUSS if wants_gauss else RAT
        if field == RAT and wants_gauss:
            raise FieldMismatchError("imaginary unit in rational-mode parse")
        parser = _Parser(tokens, tuple(variables), field)
        return parser.parse()


def _ipow(scalar: Scalar, n: int) -> Scalar:
    if n == 0:
        return GaussianRational.of(1) if isinstance(scalar, GaussianRational) else 1
    out = scalar
    for _ in range(n - 1):
        out = out * scalar
    return out


_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z]+\d*|\^|\*|\+|-|\(|\))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tok = m.group(1)
        pos = m.end()
        if re.fullmatch(r"\d+(/\d+)?", tok):
            tokens.append(("num", tok))
        elif re.fullmatch(r"[A-Za-z]+\d*", tok):
            tokens.append(("name", tok))
        else:
            tokens.append(("op", tok))
    return tokens


class _Parser:
    """Recursive parser for the canonical polynomial grammar."""

    def __init__(self, tokens, variables, field):
        self.tokens = tokens
        self.k = 0
        self.variables = variables
        self.field = field

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.k += 1
        return tok

    def _leading_sign(self) -> int:
        sign = 1
        while self.peek() in (("op", "+"), ("op", "-")):
            if self.next() == ("op", "-"):
                sign = -sign
        return sign

    def parse(self) -> Poly:
        result = Poly.zero(self.variables, self.field)
        sign = self._leading_sign()
        if self.peek() is None:
            if sign == -1:
                raise ValueError("dangling sign")
            return result
        while True:
            term = self._term()
            result = result + term.scale(sign)
            tok = self.peek()
            if tok is None:
                return result
            if tok not in (("op", "+"), ("op", "-")):
                raise ValueError(f"unexpected token {tok}")
            sign = self._leading_sign()

    def _term(self) -> Poly:
        poly = Poly.const(self.variables, 1, self.field)
        while True:
            poly = poly * self._factor()
            if self.peek() == ("op", "*"):
                self.next()
                continue
            return poly

    def _factor(self) -> Poly:
        kind, value = self.next()
        if kind == "num":
            return Poly.const(self.variables, Fraction(value), self.field)
        if kind == "name":
            if value == "i":
                return Poly.const(self.variables, I_UNIT, GAUSS).with_field(self.field)
            p = Poly.var(self.variables, value, self.field)
            if self.peek() == ("op", "^"):
                self.next()
                ekind, etext = self.next()
                if ekind != "num" or "/" in etext:
                    raise ValueError("exponent must be a nonnegative integer")
                return p ** int(etext)
            return p
        if (kind, value) == ("op", "("):
            return self._gaussian_paren()
        raise ValueError(f"unexpected token {(kind, value)}")

    def _gaussian_paren(self) -> Poly:
        # canonical mixed coefficient: "(re+im*i)" or "(re-im*i)"
        kind, re_text = self.next()
        sign_re = 1
        if (kind, re_text) == ("op", "-"):
            sign_re = -1
            kind, re_text = self.next()
        if kind != "num":
            raise ValueError("expected rational real part")
        re_val = Fraction(re_text) * sign_re
        op = self.next()
        if op not in (("op", "+"), ("op", "-")):
            raise ValueError("expected +/- in Gaussian coefficient")
        sign_im = 1 if op == ("op", "+") else -1
        kind, tok = self.next()
        if kind == "num":
            im_val = Fraction(tok)
            if self.next() != ("op", "*"):
                raise ValueError("expected '*' before i")
            kind, tok = self.next()
        else:
            im_val = 1
        if (kind, tok) != ("name", "i"):
            raise ValueError("expected imaginary unit i")
        if self.next() != ("op", ")"):
            raise ValueError("expected ')'")
        value = GaussianRational(re_val, im_val * sign_im)
        return Poly.const(self.variables, value, GAUSS).with_field(self.field)


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


def poly_matrix_power(A: list[list[Poly]], k: int) -> list[list[Poly]]:
    if k < 1:
        raise ValueError("power must be >= 1")
    out = A
    for _ in range(k - 1):
        out = poly_matrix_mul(out, A)
    return out


def poly_matrix_trace(A: list[list[Poly]]) -> Poly:
    tr = Poly.zero(A[0][0].variables, A[0][0].field)
    for i in range(len(A)):
        tr = tr + A[i][i]
    return tr

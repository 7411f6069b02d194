"""Bogoyavlensky's root-system construction of generalized Volterra lattices.

From the simple roots of a classical Lie algebra: the marks k_i solving
k_0 w_0 + k_1 w_1 + ... + k_n w_n = 0 (k_0 = 1, w_0 the minimal negative
root), the antisymmetric sign matrix c_ij supported on Dynkin edges, the
rational system

    b_i' = - sum_j k_j c_ij / b_j                                  (B-system)

and, in the variables x_ij = c_ij / (b_i b_j), the Lotka-Volterra form

    x_ij' = x_ij sum_s k_s (x_is + x_js).                          (X-system)

For the chain diagrams the X-system is a Volterra lattice after a recorded
diagonal change of the edge variables (see `volterra_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linsolve import solve_exact
from .polyalg import Poly, divide
from .poisson import PolyVectorField

Vector = tuple[int, ...]  # the root realizations are integer vectors


def _e(i: int, dim: int) -> Vector:
    return tuple(1 if k == i else 0 for k in range(dim))


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _scale(c, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def _dot(u: Vector, v: Vector) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class RootData:
    """Simple roots, minimal negative root, Gram matrix and marks."""

    type: str
    rank: int
    simple_roots: tuple[Vector, ...]
    omega0: Vector
    gram: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]  # k_1..k_n (k_0 = 1)


def _simple_roots(type_: str, n: int) -> tuple[list[Vector], Vector]:
    """Standard Euclidean realizations and the highest root (= -omega0)."""
    if type_ == "A":
        dim = n + 1
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n)]
        highest = _sub(_e(0, dim), _e(n, dim))
    elif type_ == "B":
        dim = n
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)] + [_e(n - 1, dim)]
        highest = _add(_e(0, dim), _e(1, dim)) if n >= 2 else _e(0, dim)
    elif type_ == "C":
        dim = n
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)] + [
            _scale(2, _e(n - 1, dim))
        ]
        highest = _scale(2, _e(0, dim))
    elif type_ == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        dim = n
        roots = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n - 1)] + [
            _add(_e(n - 2, dim), _e(n - 1, dim))
        ]
        highest = _add(_e(0, dim), _e(1, dim))
    else:
        raise ValueError(f"unsupported type {type_!r} (A, B, C or D)")
    return roots, _scale(-1, highest)


def root_data(type_: str, n: int) -> RootData:
    """Build RootData; the marks are solved exactly, never hardcoded."""
    type_ = type_.upper()
    if n < 1:
        raise ValueError("rank must be >= 1")
    roots, omega0 = _simple_roots(type_, n)
    dim = len(roots[0])
    # solve k_1 w_1 + ... + k_n w_n = -omega0 with k_0 = 1
    rows = [[roots[j][c] for j in range(n)] for c in range(dim)]
    rhs = [-omega0[c] for c in range(dim)]
    sol = solve_exact(rows, rhs)
    if sol is None:
        raise ValueError("mark equation is inconsistent")
    marks, unique = sol
    if not unique:
        raise ValueError("marks are not uniquely determined (roots dependent)")
    for k in marks:
        if type(k) is not int or k <= 0:  # normal form: int iff integral
            raise ValueError(f"mark {k} is not a positive integer")
    residual = omega0
    for k, w in zip(marks, roots):
        residual = _add(residual, _scale(k, w))
    if any(residual):
        raise ValueError("marks do not satisfy the integer relation")
    gram = tuple(tuple(_dot(u, v) for v in roots) for u in roots)
    return RootData(type_, n, tuple(roots), omega0, gram, tuple(marks))


def sign_matrix(rd: RootData) -> list[list[int]]:
    """c_ij = +-1 on Dynkin edges (sign of j-i), 0 otherwise."""
    n = rd.rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rd.gram[i][j] != 0:
                c[i][j] = 1 if i < j else -1
    return c


def edges(rd: RootData) -> list[tuple[int, int]]:
    """Dynkin edges as 1-based index pairs (i < j)."""
    c = sign_matrix(rd)
    return [(i + 1, j + 1) for i in range(rd.rank) for j in range(i + 1, rd.rank) if c[i][j]]


@dataclass(frozen=True)
class BSystem:
    """The rational system b_i' = sum_j coeffs[i][j] / b_j."""

    rank: int
    coeffs: tuple[dict, ...]  # per-equation {j (1-based): int}

    def eval(self, point: Sequence[float]) -> list[float]:
        if len(point) != self.rank:
            raise ValueError("point dimension mismatch")
        if any(x == 0 for x in point):
            raise ZeroDivisionError("B-system is undefined where some b_j = 0")
        return [
            float(sum(float(c) / point[j - 1] for j, c in row.items()))
            for row in self.coeffs
        ]

    def equation_strings(self) -> list[str]:
        out = []
        for i, row in enumerate(self.coeffs, start=1):
            if not row:
                out.append(f"b{i}' = 0")
                continue
            parts = []
            for j in sorted(row):
                c = row[j]
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                coef = "" if mag == 1 else f"{mag}*"
                parts.append((sign, f"{coef}1/b{j}"))
            text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
            for sign, body in parts[1:]:
                text += f" {sign} {body}"
            out.append(f"b{i}' = {text}")
        return out


def b_system_rhs(rd: RootData) -> BSystem:
    """b_i' = - sum_j k_j c_ij / b_j."""
    c = sign_matrix(rd)
    coeffs = []
    for i in range(rd.rank):
        row = {}
        for j in range(rd.rank):
            if c[i][j]:
                row[j + 1] = -rd.marks[j] * c[i][j]
        coeffs.append(row)
    return BSystem(rd.rank, tuple(coeffs))


def edge_variables(rd: RootData) -> tuple[str, ...]:
    """One variable per Dynkin edge, x{i}{j} for the edge (i, j)."""
    return tuple(f"x{i}{j}" for i, j in edges(rd))


def x_transform(rd: RootData, b_point: Sequence) -> dict[tuple[int, int], int | Fraction | float]:
    """x_ij = c_ij / (b_i b_j) for all i, j (antisymmetric by construction).

    An exact point (every b_j an int or Fraction) gives exact values in
    normal form (`polyalg.divide`); any other point gives floats.
    """
    if len(b_point) != rd.rank:
        raise ValueError("point dimension mismatch")
    if any(x == 0 for x in b_point):
        raise ZeroDivisionError("x-variables are undefined where some b_j = 0")
    exact = all(isinstance(x, (int, Fraction)) for x in b_point)
    c = sign_matrix(rd)
    out = {}
    for i in range(rd.rank):
        for j in range(rd.rank):
            if c[i][j]:
                den = b_point[i] * b_point[j]
                out[(i + 1, j + 1)] = divide(c[i][j], den) if exact else c[i][j] / den
    return out


def x_system_rhs(rd: RootData) -> PolyVectorField:
    """The Lotka-Volterra field x_ij' = x_ij sum_s k_s (x_is + x_js)."""
    vars_ = edge_variables(rd)
    edge_list = edges(rd)
    c = sign_matrix(rd)

    def x_poly(i: int, j: int) -> Poly:
        # signed edge variable x_ij as a polynomial (0 if not an edge)
        if i == j or not c[i - 1][j - 1]:
            return Poly.zero(vars_)
        key = (i, j) if i < j else (j, i)
        p = Poly.var(vars_, f"x{key[0]}{key[1]}")
        return p if i < j else -p

    comps = []
    for (i, j) in edge_list:
        acc = Poly.zero(vars_)
        for s in range(1, rd.rank + 1):
            term = x_poly(i, s) + x_poly(j, s)
            acc = acc + term.scale(rd.marks[s - 1])
        comps.append(Poly.var(vars_, f"x{i}{j}") * acc)
    return PolyVectorField(vars_, comps)


def chain_rule_identity_holds(rd: RootData) -> bool:
    """Symbolic check: d/dt of x_ij(b) along the B-system equals the X-system.

    Clearing denominators, with P_i the numerator of b_i' over Q = prod b_t:
        -(P_i b_j + b_i P_j) = sum_s k_s (c_is b_j + c_js b_i) prod_{t != s} b_t
    holds identically in the b variables for every edge (i, j).
    """
    n = rd.rank
    bvars = tuple(f"b{i}" for i in range(1, n + 1))
    bsys = b_system_rhs(rd)
    c = sign_matrix(rd)

    def prod_except(skip: set[int]) -> Poly:
        out = Poly.const(bvars, 1)
        for t in range(1, n + 1):
            if t not in skip:
                out = out * Poly.var(bvars, f"b{t}")
        return out

    P = []
    for i in range(n):
        acc = Poly.zero(bvars)
        for j, coeff in bsys.coeffs[i].items():
            acc = acc + prod_except({j}).scale(coeff)
        P.append(acc)

    for (i, j) in edges(rd):
        bi = Poly.var(bvars, f"b{i}")
        bj = Poly.var(bvars, f"b{j}")
        lhs = -(P[i - 1] * bj + bi * P[j - 1])
        rhs = Poly.zero(bvars)
        for s in range(1, n + 1):
            coeff_i = rd.marks[s - 1] * c[i - 1][s - 1]
            coeff_j = rd.marks[s - 1] * c[j - 1][s - 1]
            term = bj.scale(coeff_i) + bi.scale(coeff_j)
            rhs = rhs + term * prod_except({s})
        if lhs != rhs:
            return False
    return True


# ----------------------------------------------------- Volterra normal forms


def volterra_form(rd: RootData):
    """Recorded diagonal change taking the X-system to a Volterra lattice.

    Returns (target_variables, substitution), or None for type D and rank
    one, where `substitution` maps each target variable a_i to +-1 or +-2
    times an edge variable, determined once at low rank and fixed as
    regression data:

    * type A, rank m+1: a_i = -y_i          -> a_i' = a_i (a_{i-1} - a_{i+1})
    * type B, rank m+1: a_m = y_1, a_i = 2 y_{m+1-i} (i < m)   -> B-type form
    * type C, rank m+1: a_i = -2 y_i (i < m), a_m = -y_m       -> B-type form

    The B-type form is a1' = -a1 a2, a_i' = a_i(a_{i-1} - a_{i+1}),
    a_m' = a_m(a_{m-1} + a_m).  Type D has a fork and no chain normal form.
    """
    if rd.type == "D":
        return None
    edge_list = edges(rd)
    m = len(edge_list)
    if m == 0:
        return None
    y = [f"x{i}{j}" for i, j in edge_list]  # y_k = edge between nodes k, k+1
    target = tuple(f"a{i}" for i in range(1, m + 1))
    xvars = edge_variables(rd)
    sub: dict[str, Poly] = {}
    if rd.type == "A":
        for i in range(1, m + 1):
            sub[f"a{i}"] = Poly.var(xvars, y[i - 1]).scale(-1)
    elif rd.type == "B":
        sub[f"a{m}"] = Poly.var(xvars, y[0])
        for i in range(1, m):
            sub[f"a{i}"] = Poly.var(xvars, y[m - i]).scale(2)
    elif rd.type == "C":
        for i in range(1, m):
            sub[f"a{i}"] = Poly.var(xvars, y[i - 1]).scale(-2)
        sub[f"a{m}"] = Poly.var(xvars, y[m - 1]).scale(-1)
    else:  # pragma: no cover
        return None
    return target, sub


def transformed_x_system(rd: RootData) -> PolyVectorField | None:
    """The X-system rewritten in the recorded Volterra variables."""
    form = volterra_form(rd)
    if form is None:
        return None
    target, sub = form
    field = x_system_rhs(rd)
    xvars = field.variables
    # invert the diagonal substitution: edge variable -> scalar * a_i
    inv: dict[str, Poly] = {}
    for a_name, p in sub.items():
        ((expo, coeff),) = p.terms.items()
        edge_name = xvars[expo.index(1)]
        inv[edge_name] = Poly.var(target, a_name).scale(1 / Fraction(coeff))
    comps = []
    for a_name in target:
        p = sub[a_name]
        ((expo, coeff),) = p.terms.items()
        edge_name = xvars[expo.index(1)]
        # a' = coeff * (edge variable)' rewritten in the a variables
        dx = field.component(edge_name).substitute(inv)
        comps.append(dx.scale(coeff))
    return PolyVectorField(target, comps)

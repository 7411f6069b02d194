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
    sol = solve_exact(rows, [rhs])
    if sol is None:
        raise ValueError("mark equation is inconsistent")
    (marks,), unique = sol
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


def x_system_rhs(rd: RootData) -> PolyVectorField:
    """The Lotka-Volterra field x_ij' = x_ij sum_s k_s (x_is + x_js)."""
    vars_ = edge_variables(rd)
    edge_list = edges(rd)
    xs = [Poly.var(vars_, v) for v in vars_]
    # near[i]: the terms k_s x_is over the Dynkin neighbours s of node i; the
    # signed edge variable x_is is x_{is} for i < s and -x_{si} for i > s
    near: dict[int, list[Poly]] = {i: [] for i in range(1, rd.rank + 1)}
    for (i, j), x in zip(edge_list, xs):
        near[i].append(x.scale(rd.marks[j - 1]))
        near[j].append(x.scale(-rd.marks[i - 1]))
    zero = Poly.zero(vars_)
    return PolyVectorField(vars_, [x * sum(near[i] + near[j], zero)
                                   for (i, j), x in zip(edge_list, xs)])


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


def transformed_x_system(field: PolyVectorField, form) -> PolyVectorField:
    """The X-system `field` rewritten in the Volterra variables of `form`,
    the (target_variables, substitution) pair of `volterra_form`."""
    target, sub = form
    # each a_i = c * y for one edge variable y: so y = (1/c) a_i and a_i' = c y'
    edge = {}
    for a_name, p in sub.items():
        (k,), (c,) = p.occurring(), p.packed.values()
        edge[a_name] = (p.variables[k], c)
    inv = {y: (a_name, divide(1, c)) for a_name, (y, c) in edge.items()}
    return PolyVectorField(target, [field.component(y).subst_linear(inv, target).scale(c)
                                    for y, c in map(edge.get, target)])

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
from .polyalg import Poly, divide, equation_lines, unit_keys
from .poisson import PolyVectorField

Vector = dict[int, int]  # a root realization: its nonzero coordinates


@dataclass(frozen=True)
class RootData:
    """Simple roots, minimal negative root, Dynkin edges and marks."""

    type: str
    rank: int
    simple_roots: tuple[Vector, ...]
    omega0: Vector
    dynkin_edges: tuple[tuple[int, int], ...]  # 1-based (i, j), i < j, sorted
    marks: tuple[int, ...]  # k_1..k_n (k_0 = 1)


def _simple_roots(type_: str, n: int) -> tuple[list[Vector], Vector]:
    """Standard Euclidean realizations and the highest root (= -omega0)."""
    chain = [{i: 1, i + 1: -1} for i in range(n if type_ == "A" else n - 1)]
    if type_ == "A":
        return chain, {0: 1, n: -1}
    if type_ == "B":
        return chain + [{n - 1: 1}], {0: 1, 1: 1} if n >= 2 else {0: 1}
    if type_ == "C":
        return chain + [{n - 1: 2}], {0: 2}
    if type_ == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        return chain + [{n - 2: 1, n - 1: 1}], {0: 1, 1: 1}
    raise ValueError(f"unsupported type {type_!r} (A, B, C or D)")


def root_data(type_: str, n: int) -> RootData:
    """Build RootData; the marks are solved exactly, never hardcoded."""
    type_ = type_.upper()
    if n < 1:
        raise ValueError("rank must be >= 1")
    roots, highest = _simple_roots(type_, n)
    # solve k_1 w_1 + ... + k_n w_n = -omega0 with k_0 = 1
    sol = solve_exact(roots, [highest])
    if sol is None:
        raise ValueError("mark equation is inconsistent")
    (marks,), unique = sol
    if not unique:
        raise ValueError("marks are not uniquely determined (roots dependent)")
    omega0 = {c: -x for c, x in highest.items()}
    # nodes i, j are joined when their roots have a nonzero dot product,
    # which needs a coordinate where both are nonzero
    at: dict[int, list[int]] = {}
    for i, root in enumerate(roots):
        for c in root:
            at.setdefault(c, []).append(i)
    pairs = sorted({(i, j) for near in at.values() for i in near for j in near if i < j})
    dynkin = tuple((i + 1, j + 1) for i, j in pairs
                   if sum(x * roots[j].get(c, 0) for c, x in roots[i].items()))
    return RootData(type_, n, tuple(roots), omega0, dynkin, tuple(marks))


def sign_matrix(rd: RootData) -> list[list[int]]:
    """c_ij = +-1 on Dynkin edges (sign of j-i), 0 otherwise."""
    c = [[0] * rd.rank for _ in range(rd.rank)]
    for i, j in rd.dynkin_edges:
        c[i - 1][j - 1], c[j - 1][i - 1] = 1, -1
    return c


def edges(rd: RootData) -> list[tuple[int, int]]:
    """Dynkin edges as 1-based index pairs (i < j)."""
    return list(rd.dynkin_edges)


@dataclass(frozen=True)
class BSystem:
    """The rational system b_i' = sum_j coeffs[i][j] / b_j."""

    rank: int
    coeffs: tuple[dict, ...]  # per-equation {j (1-based): int}

    def equation_strings(self) -> list[str]:
        """b_i' = ..., each right-hand side a linear polynomial in 1/b1..1/bn."""
        names = tuple(f"b{i}" for i in range(1, self.rank + 1))
        recip = tuple(f"1/{b}" for b in names)
        unit = list(unit_keys(recip).values())  # unit[j - 1] is the key of 1/b_j
        return equation_lines(names, [Poly._make(recip, {unit[j - 1]: c for j, c in row.items()})
                                      for row in self.coeffs])


def b_system_rhs(rd: RootData) -> BSystem:
    """b_i' = - sum_j k_j c_ij / b_j."""
    return BSystem(rd.rank, tuple(
        {j: -k * c_ij for j, (k, c_ij) in enumerate(zip(rd.marks, row), start=1) if c_ij}
        for row in sign_matrix(rd)))


def edge_variables(rd: RootData) -> tuple[str, ...]:
    """One variable per Dynkin edge, x{i}{j} for the edge (i, j)."""
    return tuple(f"x{i}{j}" for i, j in rd.dynkin_edges)


def x_system_rhs(rd: RootData) -> PolyVectorField:
    """The Lotka-Volterra field x_ij' = x_ij sum_s k_s (x_is + x_js)."""
    vars_ = edge_variables(rd)
    xs = [Poly.var(vars_, v) for v in vars_]
    # near[i]: the terms k_s x_is over the Dynkin neighbours s of node i; the
    # signed edge variable x_is is x_{is} for i < s and -x_{si} for i > s
    near: dict[int, list[Poly]] = {i: [] for i in range(1, rd.rank + 1)}
    for (i, j), x in zip(rd.dynkin_edges, xs):
        near[i].append(x.scale(rd.marks[j - 1]))
        near[j].append(x.scale(-rd.marks[i - 1]))
    zero = Poly.zero(vars_)
    return PolyVectorField(vars_, [x * sum(near[i] + near[j], zero)
                                   for (i, j), x in zip(rd.dynkin_edges, xs)])


# ----------------------------------------------------- Volterra normal forms


def volterra_form(rd: RootData):
    """Recorded diagonal change taking the X-system to a Volterra lattice.

    Returns (target_variables, substitution), or None for type D and rank
    one, where `substitution` is a `Poly.subst_linear` table {a_i: (y, c)}
    saying a_i = c * y for one edge variable y, with c = +-1 or +-2,
    determined once at low rank and fixed as regression data:

    * type A, rank m+1: a_i = -y_i          -> a_i' = a_i (a_{i-1} - a_{i+1})
    * type B, rank m+1: a_m = y_1, a_i = 2 y_{m+1-i} (i < m)   -> B-type form
    * type C, rank m+1: a_i = -2 y_i (i < m), a_m = -y_m       -> B-type form

    The B-type form is a1' = -a1 a2, a_i' = a_i(a_{i-1} - a_{i+1}),
    a_m' = a_m(a_{m-1} + a_m).  Type D has a fork and no chain normal form.
    """
    if rd.type == "D":
        return None
    y = edge_variables(rd)  # y_k = edge between nodes k, k+1
    m = len(y)
    if m == 0:
        return None
    target = tuple(f"a{i}" for i in range(1, m + 1))
    if rd.type == "A":
        sub = {f"a{i}": (y[i - 1], -1) for i in range(1, m + 1)}
    elif rd.type == "B":
        sub = {f"a{i}": (y[m - i], 2) for i in range(1, m)}
        sub[f"a{m}"] = (y[0], 1)
    elif rd.type == "C":
        sub = {f"a{i}": (y[i - 1], -2) for i in range(1, m)}
        sub[f"a{m}"] = (y[m - 1], -1)
    else:  # pragma: no cover
        return None
    return target, sub


def transformed_x_system(field: PolyVectorField, form) -> PolyVectorField:
    """The X-system `field` rewritten in the Volterra variables of `form`,
    the (target_variables, substitution) pair of `volterra_form`."""
    target, sub = form
    # each a_i = c * y for one edge variable y: so y = (1/c) a_i and a_i' = c y'
    inv = {y: (a_name, divide(1, c)) for a_name, (y, c) in sub.items()}
    return PolyVectorField(target, [field.component(y).subst_linear(inv, target).scale(c)
                                    for y, c in map(sub.get, target)])

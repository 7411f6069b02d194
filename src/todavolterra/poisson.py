"""Poisson bivectors, polynomial vector fields and linear symmetry maps.

All operations are exact: a tensor is Poisson iff the Jacobiator vanishes as a
polynomial, a map is a Poisson automorphism iff the pushforward reproduces the
tensor entrywise.  Everything here is pure and immutable, over the one
coefficient ring of `polyalg`: a map with a Gaussian scale factor, such as
the order-4 twist, acts on rational tensors with no conversion, and its
results hold a `GaussianRational` only where a coefficient is not real.

Every operation contracts a tensor with gradients: it visits only stored
(nonzero) tensor entries and differentiates each polynomial once, by the
variables that occur in it (`_gradient`).  The Jacobiator and the Lie
derivative pair each stored entry, for each variable in its support, with
the row of the tensor that meets that variable, so they cost
O(nnz * support * row length) polynomial products rather than the O(m^4) of
a loop over all index tuples; on the banded catalog tensors that is O(m).
Each product goes term by term into one sum per output entry
(`add_product`), with no `Poly` built per product.  The bracket is
{F, G} = X_G(F).  The operands of one operation share one variable list,
or it raises `ValueError`.  The tests keep the dense loops as oracles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .polyalg import Poly, Scalar, add_product, divide, format_scalar, normal, poly_from_sum


class LinearMap:
    """Invertible scaled permutation of the phase-space coordinates.

    `images[v] = (w, c)` means the image point has v-coordinate c * x_w.
    These maps model the lattice symmetries (b-sign flips, index mirrors,
    and the order-4 Gaussian twist).
    """

    __slots__ = ("variables", "images")

    def __init__(self, variables: Sequence[str], images: Mapping[str, tuple[str, Scalar]]):
        variables = tuple(variables)
        if set(images) != set(variables):
            raise ValueError("images must be given for exactly the variable list")
        table = {}
        for v in variables:
            w, c = images[v]
            if w not in variables:
                raise ValueError(f"image variable {w!r} not in variable list")
            table[v] = (w, normal(c))
        sources = sorted(w for w, _ in table.values())
        if sources != sorted(variables):
            raise ValueError("not a scaled permutation (sources must be a bijection)")
        if not all(c for _, c in table.values()):
            raise ValueError("zero scale factor makes the map singular")
        self.variables = variables
        self.images = table

    def inverse(self) -> "LinearMap":
        images = {}
        for v, (w, c) in self.images.items():
            images[w] = (v, divide(1, c))
        return LinearMap(self.variables, images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.variables == other.variables and self.images == other.images

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(
            f"{v}->{format_scalar(c)}*{w}" for v, (w, c) in self.images.items()
        )
        return f"LinearMap({body})"


class PolyVectorField:
    """Coordinate vector of polynomials (a polynomial vector field)."""

    __slots__ = ("variables", "components")

    def __init__(self, variables: Sequence[str], components: Sequence[Poly]):
        variables = tuple(variables)
        components = tuple(components)
        if any(p.variables != variables for p in components):
            raise ValueError("vector field component on another variable list")
        if len(components) != len(variables):
            raise ValueError("need one component per variable")
        self.variables = variables
        self.components = components

    def component(self, name: str) -> Poly:
        return self.components[self.variables.index(name)]

    def scale(self, c: Scalar) -> "PolyVectorField":
        return PolyVectorField(self.variables, [p.scale(c) for p in self.components])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.variables == other.variables and self.components == other.components

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def __repr__(self) -> str:
        rows = ", ".join(f"{v}' = {p}" for v, p in zip(self.variables, self.components))
        return f"PolyVectorField({rows})"


class PoissonTensor:
    """Antisymmetric matrix of polynomials, stored by its strict upper triangle.

    Antisymmetry is structural: entry(i, j) returns the stored polynomial for
    i < j, its negative for i > j and zero on the diagonal.  The Jacobi
    identity is *not* assumed; candidates are tested with `is_poisson`.
    """

    __slots__ = ("variables", "upper")

    def __init__(self, variables: Sequence[str], upper: Mapping[tuple[int, int], Poly]):
        variables = tuple(variables)
        clean = {}
        m = len(variables)
        for (i, j), p in upper.items():
            if not (0 <= i < j < m):
                raise ValueError(f"upper-triangle index ({i},{j}) out of range")
            if p.variables != variables:
                raise ValueError(f"entry ({i},{j}) on another variable list")
            if not p.is_zero:
                clean[(i, j)] = p
        self.variables = variables
        self.upper = clean

    # ------------------------------------------------------------- building

    @staticmethod
    def from_brackets(
        variables: Sequence[str], brackets: Mapping[tuple[str, str], Poly]
    ) -> "PoissonTensor":
        """Build from named entries {x_u, x_v}; (u, v) order is respected."""
        variables = tuple(variables)
        pos = {v: k for k, v in enumerate(variables)}
        upper: dict[tuple[int, int], Poly] = {}
        for (u, v), p in brackets.items():
            i, j = pos[u], pos[v]
            if i == j:
                raise ValueError("diagonal bracket {x,x} must be zero")
            key, q = ((i, j), p) if i < j else ((j, i), -p)
            upper[key] = upper[key] + q if key in upper else q
        return PoissonTensor(variables, upper)

    # ------------------------------------------------------------- accessors

    @property
    def dim(self) -> int:
        return len(self.variables)

    def entry(self, i: int, j: int) -> Poly:
        zero = Poly.zero(self.variables)
        return self.upper.get((i, j), zero) if i <= j else -self.upper.get((j, i), zero)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "PoissonTensor") -> "PoissonTensor":
        if self.variables != other.variables:
            raise ValueError("tensors on different variable lists")
        keys = set(self.upper) | set(other.upper)
        upper = {k: self.entry(*k) + other.entry(*k) for k in keys}
        return PoissonTensor(self.variables, upper)

    def scale(self, c: Scalar) -> "PoissonTensor":
        return PoissonTensor(self.variables, {k: p.scale(c) for k, p in self.upper.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonTensor):
            return NotImplemented
        return self.variables == other.variables and self.upper == other.upper

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.upper

    def __repr__(self) -> str:
        body = ", ".join(
            f"{{{self.variables[i]},{self.variables[j]}}}={p}"
            for (i, j), p in sorted(self.upper.items())
        )
        return f"PoissonTensor(dim={self.dim}, {body or '0'})"

    # ---------------------------------------------------------------- output

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "variables": list(self.variables),
            "entries": [
                {"i": i + 1, "j": j + 1, "poly": p.canonical_str()}
                for (i, j), p in sorted(self.upper.items())
            ],
        }


# ------------------------------------------------------------------ operations


def _gradient(p: Poly) -> dict[int, Poly]:
    """{i: dp/dx_i} for the variables x_i that occur in p, in ascending i."""
    return {v: p.diff_at(v) for v in p.occurring()}


def bracket(pi: PoissonTensor, F: Poly, G: Poly) -> Poly:
    """{F, G} = sum_ij pi^ij dF/dx_i dG/dx_j = X_G(F)."""
    return directional_action(hamiltonian_vf(pi, G), F)


def hamiltonian_vf(pi: PoissonTensor, H: Poly) -> PolyVectorField:
    """Hamiltonian field with X_H(F) = {F, H}: component i is sum_j pi^ij dH/dx_j."""
    if H.variables != pi.variables:
        raise ValueError("Hamiltonian and tensor on different variable lists")
    grad = _gradient(H)
    sums: list[dict] = [{} for _ in range(pi.dim)]
    for (i, j), p in pi.upper.items():
        if j in grad:
            add_product(sums[i], p, grad[j])
        if i in grad:
            add_product(sums[j], p, grad[i], -1)
    return PolyVectorField(pi.variables, [poly_from_sum(pi.variables, acc) for acc in sums])


def _rows(pi: PoissonTensor) -> list[list[tuple[int, Poly, int]]]:
    """rows[k] lists (j, p, s), pi^kj = s * p, for each stored entry p meeting k."""
    rows: list[list[tuple[int, Poly, int]]] = [[] for _ in range(pi.dim)]
    for (i, j), p in pi.upper.items():
        rows[i].append((j, p, 1))
        rows[j].append((i, p, -1))
    return rows


def jacobiator(pi: PoissonTensor) -> dict[tuple[int, int, int], Poly]:
    """J^ijk = sum_l (pi^il d_l pi^jk + pi^jl d_l pi^ki + pi^kl d_l pi^ij).

    Returns the nonzero entries, keyed by i < j < k in ascending order, so a
    Poisson tensor gives an empty dict.  Only stored entries are
    visited: for each stored pi^jk (j < k), each l in its support and each
    a with pi^al != 0, the product pi^al d_l pi^jk is the (a; j, k) term of
    J at the sorted triple of {a, j, k}.  It enters with sign +1 when
    (a, j, k) is a cyclic order of that triple (a < j or a > k) and -1
    otherwise (j < a < k), since pi^kj = -pi^jk.
    """
    sums: dict[tuple[int, int, int], dict] = {}
    rows = _rows(pi)
    for (j, k), pjk in pi.upper.items():
        for l, dl in _gradient(pjk).items():
            # rows[l] holds (a, p, s) with pi^la = s * p = -pi^al
            for a, p, s in rows[l]:
                if a < j:
                    add_product(sums.setdefault((a, j, k), {}), p, dl, -s)
                elif j < a < k:
                    add_product(sums.setdefault((j, a, k), {}), p, dl, s)
                elif a > k:
                    add_product(sums.setdefault((j, k, a), {}), p, dl, -s)
    return {key: poly_from_sum(pi.variables, sums[key]) for key in sorted(sums) if sums[key]}


def is_poisson(pi: PoissonTensor) -> bool:
    return not jacobiator(pi)


def is_compatible(pi: PoissonTensor, rho: PoissonTensor) -> bool:
    """Compatibility of two Poisson tensors: their sum is again Poisson."""
    if pi.variables != rho.variables:
        raise ValueError("tensors on different variable lists")
    return is_poisson(pi + rho)


def lie_derivative_bivector(Z: PolyVectorField, pi: PoissonTensor) -> PoissonTensor:
    """(L_Z pi)^ij = Z^k d_k pi^ij - pi^kj d_k Z^i - pi^ik d_k Z^j (candidate).

    Only stored entries are visited.  The first term is Z(pi^ij)
    (`directional_action`) for each stored pi^ij.  The other two run over k
    in the support of each component Z^c against the row (a, pi^ka) of pi:
    for c < a the product pi^ka d_k Z^c is the second term of entry (c, a),
    entering with sign -1; for a < c it is the third term of entry (a, c),
    since -pi^ak = pi^ka, entering with sign +1.
    """
    if Z.variables != pi.variables:
        raise ValueError("field and tensor on different variable lists")
    sums = {key: dict(directional_action(Z, pij).packed) for key, pij in pi.upper.items()}
    rows = _rows(pi)
    for c, zc in enumerate(Z.components):
        for k, dz in _gradient(zc).items():
            for a, p, s in rows[k]:
                if c < a:
                    add_product(sums.setdefault((c, a), {}), p, dz, -s)
                elif a < c:
                    add_product(sums.setdefault((a, c), {}), p, dz, s)
    return PoissonTensor(pi.variables, {key: poly_from_sum(pi.variables, acc)
                                        for key, acc in sums.items()})


def directional_action(Z: PolyVectorField, H: Poly) -> Poly:
    """Z(H) = sum_i Z^i dH/dx_i."""
    if H.variables != Z.variables:
        raise ValueError("polynomial and field on different variable lists")
    acc: dict = {}
    for i, dH in _gradient(H).items():
        add_product(acc, Z.components[i], dH)
    return poly_from_sum(Z.variables, acc)


def pushforward_bivector(A: LinearMap, pi: PoissonTensor) -> PoissonTensor:
    """(A_* pi)^uv = c_u c_v pi^{s(u) s(v)} o A^{-1} for scaled permutations.

    Only stored entries are visited: pi^ab lands at (u, v) = (s^-1(a),
    s^-1(b)), scaled by c_u c_v, with its sign flipped when u comes after v.
    """
    if A.variables != pi.variables:
        raise ValueError("map and tensor on different variable lists")
    inv = A.inverse()
    vars_ = pi.variables
    pos = {v: k for k, v in enumerate(vars_)}
    upper = {}
    for (a, b), p in pi.upper.items():
        u, v = pos[inv.images[vars_[a]][0]], pos[inv.images[vars_[b]][0]]
        c = A.images[vars_[u]][1] * A.images[vars_[v]][1]
        q = p.subst_linear(inv.images)
        upper[(u, v) if u < v else (v, u)] = q.scale(c if u < v else -c)
    return PoissonTensor(vars_, upper)


def pushforward_vf(A: LinearMap, Z: PolyVectorField) -> PolyVectorField:
    """(A_* Z)^u = c_u Z^{s(u)} o A^{-1}."""
    if A.variables != Z.variables:
        raise ValueError("map and field on different variable lists")
    inv = A.inverse()
    comps = []
    for u in Z.variables:
        su, cu = A.images[u]
        comps.append(Z.component(su).subst_linear(inv.images).scale(cu))
    return PolyVectorField(Z.variables, comps)


def pushforward_sign(A: LinearMap, pi: PoissonTensor) -> int | None:
    """+1 / -1 if A_* pi = +/- pi exactly, else None."""
    pushed = pushforward_bivector(A, pi)
    if pushed == pi:
        return 1
    if pushed == pi.scale(-1):
        return -1
    return None

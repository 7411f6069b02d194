"""Poisson bivectors, polynomial vector fields and linear symmetry maps.

All operations are exact: a tensor is Poisson iff the Jacobiator vanishes as a
polynomial, a map is a Poisson automorphism iff the pushforward reproduces the
tensor entrywise.  Everything here is pure and immutable, over the one
coefficient ring of `polyalg`: a map with a Gaussian scale factor, such as
the order-4 twist, acts on rational tensors with no conversion, and its
results hold a `GaussianRational` only where a coefficient is not real.

Every operation contracts a tensor with gradients: it visits only stored
(nonzero) tensor entries and differentiates each polynomial once, in one
walk over its terms that reads each monomial key's fields once
(`_gradient`).  The Jacobiator and the Lie derivative pair each stored entry,
for each variable in its support, with the row of the tensor that meets that
variable, so they cost O(nnz * support * row length) polynomial products
rather than the O(m^4) of a loop over all index tuples; on the banded catalog
tensors that is O(m).  Each product goes term by term into one sum per
output entry (`add_product`), with no `Poly` built per product.  The sums
run on integers, Gaussian where a coefficient is not real: each operand (a
tensor, a field, a polynomial) is first `cleared` of its denominators, D *
operand for D the lcm of the denominators of its coefficients, and each
output coefficient is divided by the product of the D's once
(`poly_from_sum`); an operand with integer coefficients has D = 1.  The
bracket is {F, G} = X_G(F).  The operands of one operation share one
variable list, or it raises `ValueError`.  The tests keep the dense loops
as oracles.

The Jacobiator is quadratic in the tensor, so `is_compatible` decides
whether pi + rho is Poisson from the mixed term M(pi, rho) = J(pi + rho) -
J(pi) - J(rho) alone, the same loop run across the two tensors, and adds
the two Jacobiators that `jacobiator` keeps on each (immutable) tensor.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .polyalg import (
    Poly, Scalar, add_product, cleared, divide, format_scalar, key_fields, key_layout, normal,
    poly_from_sum)

_set = object.__setattr__


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.variables == other.variables and self.components == other.components

    __hash__ = None

    def __repr__(self) -> str:
        rows = ", ".join(f"{v}' = {p}" for v, p in zip(self.variables, self.components))
        return f"PolyVectorField({rows})"


class PoissonTensor:
    """Antisymmetric matrix of polynomials, stored by its strict upper triangle
    by position: `upper[i, j]` is {x_i, x_j}, i < j; the names are labels only.

    Antisymmetry is structural: entry(i, j) returns the stored polynomial for
    i < j, its negative for i > j and zero on the diagonal.  The Jacobi
    identity is *not* assumed; candidates are tested with `is_poisson`.
    A tensor is immutable: `upper` is a read-only view of the stored entries
    and no attribute can be set, so the Jacobiator `jacobiator` keeps on the
    tensor can never go stale.
    """

    __slots__ = ("variables", "upper", "_jacobiator")

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
        _set(self, "variables", variables)
        _set(self, "upper", MappingProxyType(clean))
        _set(self, "_jacobiator", None)

    def __setattr__(self, *args):
        raise AttributeError("PoissonTensor is immutable")

    # ------------------------------------------------------------- accessors

    @property
    def dim(self) -> int:
        return len(self.variables)

    def entry(self, i: int, j: int) -> Poly:
        zero = Poly.zero(self.variables)
        return self.upper.get((i, j), zero) if i <= j else -self.upper.get((j, i), zero)

    # ------------------------------------------------------------ arithmetic

    def scale(self, c: Scalar) -> "PoissonTensor":
        return PoissonTensor(self.variables, {k: p.scale(c) for k, p in self.upper.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonTensor):
            return NotImplemented
        return self.variables == other.variables and self.upper == other.upper

    __hash__ = None

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


def _gradient(terms, units: tuple[int, ...]) -> dict[int, list]:
    """{i: term list of d/dx_i} of a term list for the variables x_i that occur
    in it, in ascending i, where units[i] is the key of x_i: one walk, which
    reads each key's fields once (`key_fields`)."""
    grad: dict[int, list] = {}
    n = len(units)
    for key, c in terms:
        for i, e in zip(*key_fields(key, n)):
            term = (key - units[i], c * e)
            if i in grad:
                grad[i].append(term)
            else:
                grad[i] = [term]
    return {i: grad[i] for i in sorted(grad)}


def _act(acc: dict, comps: list, h, units: tuple[int, ...], guard: int) -> None:
    """Add Z(h) = sum_i Z^i dh/dx_i into the sum `acc`, for the term lists
    `comps` of Z's components and h of a polynomial."""
    for i, dh in _gradient(h, units).items():
        add_product(acc, comps[i], dh, guard)


def bracket(pi: PoissonTensor, F: Poly, G: Poly) -> Poly:
    """{F, G} = sum_ij pi^ij dF/dx_i dG/dx_j = X_G(F)."""
    return directional_action(hamiltonian_vf(pi, G), F)


def hamiltonian_vf(pi: PoissonTensor, H: Poly) -> PolyVectorField:
    """Hamiltonian field with X_H(F) = {F, H}: component a is sum_l pi^al dH/dx_l."""
    if H.variables != pi.variables:
        raise ValueError("Hamiltonian and tensor on different variable lists")
    units, guard = key_layout(pi.dim)
    d_pi, entries = cleared(pi.upper.values())
    d_h, (h,) = cleared([H])
    rows = _rows(pi, entries)
    sums: list[dict] = [{} for _ in range(pi.dim)]
    for l, dl in _gradient(h, units).items():
        for a, _, p_al in rows[l]:
            add_product(sums[a], p_al, dl, guard)
    return PolyVectorField(pi.variables, [poly_from_sum(pi.variables, acc, d_pi * d_h)
                                          for acc in sums])


def _rows(pi: PoissonTensor, entries: list) -> list[list[tuple[int, list, list]]]:
    """rows[k] lists (a, pi^ka, pi^ak) as term lists, for each stored entry
    meeting k; `entries` holds the term lists of pi.upper, in its order."""
    rows: list[list[tuple[int, list, list]]] = [[] for _ in range(pi.dim)]
    for (i, j), p in zip(pi.upper, entries):
        minus = [(e, -c) for e, c in p]
        rows[i].append((j, p, minus))
        rows[j].append((i, minus, p))
    return rows


def _add_jacobi_terms(sums: dict, rows: list, upper, entries: list,
                      units: tuple[int, ...], guard: int) -> None:
    """Add sum_l (A^il d_l B^jk + A^jl d_l B^ki + A^kl d_l B^ij) into the
    sums `sums`, keyed by i < j < k, for `rows` the `_rows` of a tensor A and
    `upper`, `entries` the stored keys and term lists of a tensor B (J(pi) is
    A = B = pi).

    For each stored B^jk (j < k), each l in its support and each a with
    A^al != 0, the product A^al d_l B^jk is the (a; j, k) term at the sorted
    triple of {a, j, k}.  It enters with sign +1 when (a, j, k) is a cyclic
    order of that triple (a < j or a > k) and -1 otherwise (j < a < k),
    since B^kj = -B^jk.
    """
    for (j, k), pjk in zip(upper, entries):
        for l, dl in _gradient(pjk, units).items():
            for a, p_la, p_al in rows[l]:
                if a < j:
                    add_product(sums.setdefault((a, j, k), {}), p_al, dl, guard)
                elif j < a < k:
                    add_product(sums.setdefault((j, a, k), {}), p_la, dl, guard)
                elif a > k:
                    add_product(sums.setdefault((j, k, a), {}), p_al, dl, guard)


def _kept_jacobiator(pi: PoissonTensor) -> dict[tuple[int, int, int], Poly]:
    """The nonzero Jacobiator entries of pi, computed on the first call and
    kept on the tensor, which is safe because a tensor cannot change.  The
    dict is the kept one: callers only read it."""
    if pi._jacobiator is None:
        units, guard = key_layout(pi.dim)
        d, entries = cleared(pi.upper.values())
        sums: dict[tuple[int, int, int], dict] = {}
        _add_jacobi_terms(sums, _rows(pi, entries), pi.upper, entries, units, guard)
        _set(pi, "_jacobiator", {key: poly_from_sum(pi.variables, sums[key], d * d)
                                 for key in sorted(sums) if sums[key]})
    return pi._jacobiator


def jacobiator(pi: PoissonTensor) -> dict[tuple[int, int, int], Poly]:
    """J^ijk = sum_l (pi^il d_l pi^jk + pi^jl d_l pi^ki + pi^kl d_l pi^ij).

    Returns the nonzero entries, keyed by i < j < k in ascending order, so a
    Poisson tensor gives an empty dict.  Only stored entries are visited:
    the rows of pi against its own entries (`_add_jacobi_terms`).  The sums
    run on D * pi, D the tensor's `cleared` denominator, and are divided by
    D^2 at the end.  The result is computed once per tensor and kept on it
    (`_kept_jacobiator`), which is safe because a tensor cannot change; each
    call returns a new dict.
    """
    return dict(_kept_jacobiator(pi))


def is_poisson(pi: PoissonTensor) -> bool:
    return not jacobiator(pi)


def is_compatible(pi: PoissonTensor, rho: PoissonTensor) -> bool:
    """Whether pi + rho is Poisson, for any two tensors on one variable list.

    The Jacobiator is quadratic in the tensor, so J(pi + rho) = J(pi) +
    J(rho) + M(pi, rho) exactly, where the mixed term M (the Schouten
    bracket [pi, rho] of Magri's compatibility condition) is the loop of
    `jacobiator` run with the rows of each tensor against the entries of the
    other.  Both tensors are cleared over one common denominator D, so M
    sums on integers at D^2; J(pi) and J(rho), kept on the tensors
    (`_kept_jacobiator`, so a `jacobiator` call before reuses them), are
    added in at D^2 (D is a multiple of each tensor's own denominator, so
    they stay integral), and pi + rho is never built.
    """
    if pi.variables != rho.variables:
        raise ValueError("tensors on different variable lists")
    units, guard = key_layout(pi.dim)
    d, entries = cleared([*pi.upper.values(), *rho.upper.values()])
    pi_entries, rho_entries = entries[:len(pi.upper)], entries[len(pi.upper):]
    sums: dict[tuple[int, int, int], dict] = {}
    _add_jacobi_terms(sums, _rows(pi, pi_entries), rho.upper, rho_entries, units, guard)
    _add_jacobi_terms(sums, _rows(rho, rho_entries), pi.upper, pi_entries, units, guard)
    scale = ((0, d * d),)
    for jac in (_kept_jacobiator(pi), _kept_jacobiator(rho)):
        for key, p in jac.items():
            add_product(sums.setdefault(key, {}), p.packed.items(), scale, guard)
    # a sum that cancels is left empty by `add_product`; `poly_from_sum` still
    # raises on a key past the exponent limit in one that does not
    return all(poly_from_sum(pi.variables, acc, d * d).is_zero for acc in sums.values() if acc)


def lie_derivative_bivector(Z: PolyVectorField, pi: PoissonTensor) -> PoissonTensor:
    """(L_Z pi)^ij = Z^k d_k pi^ij - pi^kj d_k Z^i - pi^ik d_k Z^j (candidate).

    Only stored entries are visited.  The first term is Z(pi^ij), added by
    `_act` as in `directional_action`, for each stored pi^ij.  The other two
    run over k in the support of each component Z^c against the row
    (a, pi^ka) of pi:
    for c < a the product pi^ka d_k Z^c is the second term of entry (c, a),
    entering with sign -1; for a < c it is the third term of entry (a, c),
    since -pi^ak = pi^ka, entering with sign +1.
    """
    if Z.variables != pi.variables:
        raise ValueError("field and tensor on different variable lists")
    units, guard = key_layout(pi.dim)
    d_z, comps = cleared(Z.components)
    d_pi, entries = cleared(pi.upper.values())
    sums: dict[tuple[int, int], dict] = {}
    for key, p in zip(pi.upper, entries):
        _act(sums.setdefault(key, {}), comps, p, units, guard)
    rows = _rows(pi, entries)
    for c, zc in enumerate(comps):
        for k, dz in _gradient(zc, units).items():
            for a, p_ka, p_ak in rows[k]:
                if c < a:
                    add_product(sums.setdefault((c, a), {}), p_ak, dz, guard)
                elif a < c:
                    add_product(sums.setdefault((a, c), {}), p_ka, dz, guard)
    return PoissonTensor(pi.variables, {key: poly_from_sum(pi.variables, acc, d_z * d_pi)
                                        for key, acc in sums.items()})


def directional_action(Z: PolyVectorField, H: Poly) -> Poly:
    """Z(H) = sum_i Z^i dH/dx_i."""
    if H.variables != Z.variables:
        raise ValueError("polynomial and field on different variable lists")
    units, guard = key_layout(len(Z.variables))
    d_z, comps = cleared(Z.components)
    d_h, (h,) = cleared([H])
    acc: dict = {}
    _act(acc, comps, h, units, guard)
    return poly_from_sum(Z.variables, acc, d_z * d_h)


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
    """+1 / -1 if A_* pi = +/- pi exactly, else None.  The sign -1 is read
    entry by entry against the negated stored entries; no -pi is built."""
    pushed = pushforward_bivector(A, pi)
    if pushed == pi:
        return 1
    if pushed.upper.keys() == pi.upper.keys() and all(
            pushed.upper[key] == -p for key, p in pi.upper.items()):
        return -1
    return None

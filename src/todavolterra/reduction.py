"""Fixed-point reduction of Poisson tensors by finite groups of linear symmetries.

Each group G is cyclic, generated by one scaled coordinate permutation g of
finite order (the catalog symmetries psi, phi and phi-tilde).  When g acts by
a Poisson automorphism of pi, so does every power of g, and the fixed-point
set N = M^G (a linear subspace here) inherits a unique bracket: lift two
functions on N to G-invariant functions by averaging, bracket them upstairs,
restrict back.

The fixed-point set is generally *not* a Poisson submanifold; restricting the
tensor naively would be wrong.  The averaging step is what makes the recipe
well defined.  Everything is read off one walk of each cycle of g, from its
first variable r in the generator's order: g^j sends r to (w_j, C_j) for
j = 0..L-1, and the cycle's scale product P = C_L is 1, -1, i or -i.  A
fixed point has x_r = C_j x_{w_j}, so x_{w_j} = x_r / C_j when P = 1, and
the whole cycle is zero when P != 1 (x_r = P x_r).  On the reduced
coordinate r the averaged lift is linear, (1/L) sum_j C_j x_{w_j}: each
ambient variable has one lift weight C_j / L, and {lift r, lift r'} is the
sum of weight_v weight_w pi^vw over the stored entries pi^vw.
`reduced_bracket` restricts each stored entry once, into the one reduced
entry its two cycles name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .polyalg import I_UNIT, Poly, Scalar, divide, normal
from .poisson import LinearMap, PoissonTensor, pushforward_sign


class NotPoissonActionError(ValueError):
    """The group does not act by Poisson automorphisms of the given tensor."""


class FiniteGroupAction:
    """The cyclic group generated by one LinearMap g of finite order, as g's cycles.

    `cycles` lists `(path, P)` per cycle in the order of r, the cycle's first
    variable in the generator's order: `path[j] = (w_j, C_j)` says (g^j x)_r
    = C_j x_{w_j} for j = 0..L-1 (C_0 = 1), P = C_L the product of its scales.
    g has finite order exactly when every P is a root of unity, and the only
    ones in Q(i) are 1, -1, i and -i.  Any other product raises `ValueError`.
    """

    def __init__(self, generator: LinearMap):
        self.generator = generator
        self.variables = generator.variables
        self.cycles: list[tuple[list[tuple[str, Scalar]], Scalar]] = []
        seen: set[str] = set()
        for r in self.variables:
            if r in seen:
                continue
            path, w, c = [], r, 1
            while not path or w != r:  # walk r's cycle once
                path.append((w, c))
                seen.add(w)
                w, s = generator.images[w]
                c = normal(c * s)
            if c not in (1, -1, I_UNIT, -I_UNIT):
                raise ValueError(f"{generator!r} has infinite order")
            self.cycles.append((path, c))


@dataclass(frozen=True)
class FixedPointChart:
    """Linear parametrization of the fixed-point set.

    section: {ambient variable v: (w, c)}, a `Poly.subst_linear` table
    saying x_v = c * x_w on the fixed-point set, w a reduced variable; c = 0
    on a cycle forced to zero.  Each cycle is represented, and its reduced
    coordinate named, by the cycle's first variable in the generator's order.
    """

    ambient_variables: tuple[str, ...]
    reduced_variables: tuple[str, ...]
    section: Mapping[str, tuple[str, Scalar]]

    def restrict(self, F: Poly) -> Poly:
        """Restrict an ambient polynomial to the fixed-point set."""
        return F.subst_linear(self.section, self.reduced_variables)


def fixed_point_chart(group: FiniteGroupAction) -> FixedPointChart:
    """Read the fixed-point chart off the generator's cycles.

    On a cycle from r with path (w_j, C_j) and product P, a fixed point has
    x_{w_j} = x_r / C_j when P = 1, and x_{w_j} = 0 when P != 1, since there
    x_r = P x_r.  The representatives of the P = 1 cycles are the reduced
    variables.
    """
    section = {w: (path[0][0], divide(1, c) if P == 1 else 0)
               for path, P in group.cycles for w, c in path}
    reduced = tuple(path[0][0] for path, P in group.cycles if P == 1)
    return FixedPointChart(group.variables, reduced, section)


def check_poisson_action(pi: PoissonTensor, group: FiniteGroupAction) -> None:
    """Raise unless g_* pi = pi for the generator g, and so for every power:
    (g^k)_* = (g_*)^k."""
    if pushforward_sign(group.generator, pi) != 1:
        raise NotPoissonActionError("action is not Poisson for this tensor")


def reduced_bracket(pi: PoissonTensor, group: FiniteGroupAction) -> PoissonTensor:
    """Reduce pi to the fixed-point set of the group (averaging + restriction)."""
    if group.variables != pi.variables:
        raise ValueError("group and tensor act on different variable lists")
    check_poisson_action(pi, group)
    chart = fixed_point_chart(group)
    # weight[v] = (i, v's weight C_j / L in the lift of reduced coordinate i);
    # zero cycles have no lift, so their variables have no weight
    live = [path for path, P in group.cycles if P == 1]
    weight = {w: (i, divide(c, len(path))) for i, path in enumerate(live) for w, c in path}
    upper: dict[tuple[int, int], Poly] = {}
    for (a, b), p in pi.upper.items():
        i, wa = weight.get(pi.variables[a], (None, 0))
        j, wb = weight.get(pi.variables[b], (None, 0))
        if i is None or j is None or i == j:  # a zero cycle, or {lift u, lift u} = 0
            continue
        q = chart.restrict(p).scale(wa * wb if i < j else -wa * wb)
        key = (i, j) if i < j else (j, i)
        upper[key] = upper[key] + q if key in upper else q
    return PoissonTensor(chart.reduced_variables, upper)


def verify_reduction(
    pi_ambient: PoissonTensor,
    group: FiniteGroupAction,
    expected: PoissonTensor,
) -> list[dict]:
    """The entries where the reduced bracket differs from `expected`; [] when equal."""
    got = reduced_bracket(pi_ambient, group)
    if got.variables != expected.variables:
        return [{
            "i": 0,
            "j": 0,
            "expected": ",".join(expected.variables),
            "got": ",".join(got.variables),
        }]
    diffs = []
    for i, j in sorted(set(got.upper) | set(expected.upper)):
        e, g = expected.entry(i, j), got.entry(i, j)
        if e != g:
            diffs.append(
                {"i": i + 1, "j": j + 1, "expected": e.canonical_str(), "got": g.canonical_str()}
            )
    return diffs

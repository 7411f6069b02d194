"""Fixed-point reduction of Poisson tensors by finite groups of linear symmetries.

Each group G is cyclic, generated by one scaled coordinate permutation g of
finite order (the catalog symmetries psi, phi and phi-tilde).  When g acts by
a Poisson automorphism of pi, so does every power of g, and the fixed-point
set N = M^G (a linear subspace here) inherits a unique bracket: lift two
functions on N to G-invariant functions by averaging, bracket them upstairs,
restrict back.  `reduced_bracket` executes exactly that recipe symbolically.

The fixed-point set is generally *not* a Poisson submanifold; restricting the
tensor naively would be wrong.  The averaging step is what makes the recipe
well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .polyalg import I_UNIT, Poly, Scalar, normal, variable_sort_key
from .poisson import LinearMap, PoissonTensor, directional_action, hamiltonian_vf, pushforward_sign


class NotPoissonActionError(ValueError):
    """The group does not act by Poisson automorphisms of the given tensor."""


class FiniteGroupAction:
    """The cyclic group generated by one LinearMap of finite order.

    `elements` are its powers identity, g, g^2, ..., so the group is closed
    by construction.  On a cycle of g's permutation of length L, g^L scales
    each variable by the product of the cycle's scales; so g has finite order
    exactly when every such product is a root of unity, and the only ones in
    Q(i) are 1, -1, i and -i.  Any other product raises `ValueError`.
    """

    def __init__(self, generator: LinearMap):
        seen: set[str] = set()
        for w in generator.variables:
            product = 1
            while w not in seen:  # walk w's cycle once
                seen.add(w)
                w, c = generator.images[w]
                product = product * c
            if normal(product) not in (1, -1, I_UNIT, -I_UNIT):
                raise ValueError(f"{generator!r} has infinite order")
        self.generator = generator
        self.variables = generator.variables
        self.elements = [LinearMap.identity(self.variables)]
        power = generator
        while not power.is_identity():
            self.elements.append(power)
            power = power.compose(generator)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FixedPointChart:
    """Linear parametrization of the fixed-point set.

    section: {ambient variable v: (w, c)}, a `Poly.subst_linear` table
    saying x_v = c * x_w on the fixed-point set, w a reduced variable; c = 0
    on an orbit forced to zero (w is then the orbit's ambient representative).
    Each reduced coordinate is named after the ambient variable that
    represents its class, so restrict o lift is the identity.
    """

    ambient_variables: tuple[str, ...]
    reduced_variables: tuple[str, ...]
    section: Mapping[str, tuple[str, Scalar]]

    def lift(self, f: Poly) -> Poly:
        """Read a reduced-coordinate polynomial as one in the ambient variables."""
        return f.subst_linear({u: (u, 1) for u in self.reduced_variables}, self.ambient_variables)

    def restrict(self, F: Poly) -> Poly:
        """Restrict an ambient polynomial to the fixed-point set."""
        return F.subst_linear(self.section, self.reduced_variables)


def fixed_point_chart(group: FiniteGroupAction) -> FixedPointChart:
    """Read the fixed-point chart of a group of scaled permutations off its orbits.

    A fixed point has x_v = c * x_w for every element g and every
    g.images[v] = (w, c).  The group is closed (the powers of one generator),
    so these constraints link the variables of one orbit {w : some g sends v
    to (w, c)} and no others; the orbit's smallest variable rep names its
    reduced coordinate.  An element that fixes rep with scale c != 1 forces
    x_rep = 0, and with it the whole orbit.  Otherwise every element sending
    v to rep has the same scale c (orbit-stabilizer: the inverse of one after
    another fixes rep with their ratio), and x_v = c * x_rep solves each
    constraint x_v = c' * x_w: g followed by an element sending w to
    (rep, c_w) sends v to (rep, c' * c_w).
    """
    orbit = {v: [g.images[v] for g in group.elements] for v in group.variables}
    rep = {v: min((w for w, _ in images), key=variable_sort_key) for v, images in orbit.items()}
    zero = {r for r in rep.values() if any(w == r and c != 1 for w, c in orbit[r])}
    reduced = tuple(sorted(set(rep.values()) - zero, key=variable_sort_key))
    section = {v: (r, 0 if r in zero else next(c for w, c in orbit[v] if w == r))
               for v, r in rep.items()}
    return FixedPointChart(group.variables, reduced, section)


def invariant_average(F: Poly, group: FiniteGroupAction) -> Poly:
    """Group average (1/|G|) sum_g F o g; the result is exactly G-invariant."""
    total = None
    for g in group.elements:
        term = F.subst_linear(g.images)
        total = term if total is None else total + term
    return total.scale(Fraction(1, len(group)))


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
    red = chart.reduced_variables
    lifts = [invariant_average(chart.lift(Poly.var(red, u)), group) for u in red]
    # {F, G} = X_G(F), as in `poisson.bracket`, with each lift's field built
    # once; entry (i, j) has j >= 1, so lifts[0] needs none
    fields = [hamiltonian_vf(pi, G) for G in lifts[1:]]
    upper = {
        (i, j): chart.restrict(directional_action(fields[j - 1], lifts[i]))
        for i in range(len(red)) for j in range(i + 1, len(red))
    }
    return PoissonTensor(red, upper)


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

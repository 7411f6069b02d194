"""Fixed-point reduction of Poisson tensors by finite groups of linear symmetries.

Given a finite group G of scaled coordinate permutations that acts by Poisson
automorphisms of pi, the fixed-point set N = M^G (a linear subspace here)
inherits a unique bracket: lift two functions on N to G-invariant functions by
averaging, bracket them upstairs, restrict back.  `reduced_bracket` executes
exactly that recipe symbolically.

The fixed-point set is generally *not* a Poisson submanifold; restricting the
tensor naively would be wrong.  The averaging step is what makes the recipe
well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .polyalg import Poly, variable_sort_key
from .poisson import LinearMap, PoissonTensor, directional_action, hamiltonian_vf, pushforward_sign


class NotPoissonActionError(ValueError):
    """The group does not act by Poisson automorphisms of the given tensor."""


class FiniteGroupAction:
    """A finite group of LinearMaps on one variable list (closure verified)."""

    def __init__(self, elements: Sequence[LinearMap]):
        elements = list(elements)
        if not elements:
            raise ValueError("empty group")
        vars_ = elements[0].variables
        if any(g.variables != vars_ for g in elements):
            raise ValueError("group elements act on different variable lists")
        if not any(g.is_identity() for g in elements):
            raise ValueError("group must contain the identity")
        for g in elements:
            for h in elements:
                gh = g.compose(h)
                if not any(gh == e for e in elements):
                    raise ValueError("element list is not closed under composition")
        self.variables = vars_
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FixedPointChart:
    """Linear parametrization of the fixed-point set.

    section: ambient variable -> Poly in the reduced variables (0 or c*u).
    Each reduced coordinate is named after the ambient variable that
    represents its class, so restrict o lift is the identity.
    """

    ambient_variables: tuple[str, ...]
    reduced_variables: tuple[str, ...]
    section: Mapping[str, Poly]

    def lift(self, f: Poly) -> Poly:
        """Read a reduced-coordinate polynomial as one in the ambient variables."""
        return f.extend(self.ambient_variables)

    def restrict(self, F: Poly) -> Poly:
        """Restrict an ambient polynomial to the fixed-point set."""
        return F.substitute(self.section)


def fixed_point_chart(group: FiniteGroupAction) -> FixedPointChart:
    """Read the fixed-point chart of a group of scaled permutations off its orbits.

    A fixed point has x_v = c * x_w for every element g and every
    g.images[v] = (w, c).  The group is closed (FiniteGroupAction checks it),
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
    section = {}
    for v, r in rep.items():
        if r in zero:
            section[v] = Poly.zero(reduced)
        else:
            c = next(c for w, c in orbit[v] if w == r)
            section[v] = Poly.var(reduced, r).scale(c)
    return FixedPointChart(group.variables, reduced, section)


def invariant_average(F: Poly, group: FiniteGroupAction) -> Poly:
    """Group average (1/|G|) sum_g F o g; the result is exactly G-invariant."""
    total = None
    for g in group.elements:
        term = F.subst_linear(g.images)
        total = term if total is None else total + term
    return total.scale(Fraction(1, len(group)))


def check_poisson_action(pi: PoissonTensor, group: FiniteGroupAction) -> None:
    for g in group.elements:
        if pushforward_sign(g, pi) != 1:
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


@dataclass
class ReductionReport:
    """Entrywise comparison of a computed reduction against an expected tensor."""

    matches: bool
    diffs: list[dict]

    def to_json_dict(self) -> dict:
        return {"matches": self.matches, "diffs": self.diffs}


def verify_reduction(
    pi_ambient: PoissonTensor,
    group: FiniteGroupAction,
    expected: PoissonTensor,
) -> ReductionReport:
    got = reduced_bracket(pi_ambient, group)
    if got.variables != expected.variables:
        return ReductionReport(
            False,
            [{
                "i": 0,
                "j": 0,
                "expected": ",".join(expected.variables),
                "got": ",".join(got.variables),
            }],
        )
    diffs = []
    for i, j in sorted(set(got.upper) | set(expected.upper)):
        e, g = expected.entry(i, j), got.entry(i, j)
        if e != g:
            diffs.append(
                {"i": i + 1, "j": j + 1, "expected": e.canonical_str(), "got": g.canonical_str()}
            )
    return ReductionReport(not diffs, diffs)

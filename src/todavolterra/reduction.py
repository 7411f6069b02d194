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

from .polyalg import Poly, divide, join_fields, scalar_field, variable_sort_key
from .poisson import LinearMap, PoissonTensor, bracket, pushforward_sign


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
        images = {v: self.section[v].with_field(F.field) for v in F.variables}
        return F.substitute(images)

    def constraints(self) -> list[Poly]:
        """Ambient linear forms vanishing exactly on the fixed-point set."""
        out = []
        for v in self.ambient_variables:
            diff = Poly.var(self.ambient_variables, v, self.section[v].field) - self.lift(
                self.section[v]
            )
            if not diff.is_zero:
                out.append(diff)
        return out


def fixed_point_chart(group: FiniteGroupAction) -> FixedPointChart:
    """Derive the fixed-point chart of a group of scaled permutations.

    Constraints x_v = c * x_w (one per element and variable) are merged by
    union-find with multipliers; inconsistent cycles force coordinates to
    zero.  The representative of each surviving class is its smallest
    variable, reused as the reduced coordinate name.
    """
    vars_ = group.variables
    parent: dict[str, str] = {v: v for v in vars_}
    mult: dict[str, object] = {v: 1 for v in vars_}  # x_v = mult[v] * x_parent
    zero_roots: set[str] = set()

    def walk(u: str):
        """Path-compressing find: returns (root, m) with x_u = m * x_root."""
        if parent[u] == u:
            return u, 1
        root, m_up = walk(parent[u])
        m_here = mult[u] * m_up
        parent[u] = root
        mult[u] = m_here
        return root, m_here

    def union(v: str, w: str, c) -> None:
        # constraint from the fixed-point equation: x_v = c * x_w
        rv, mv = walk(v)
        rw, mw = walk(w)
        if rv == rw:
            if mv != c * mw:
                zero_roots.add(rv)
            return
        parent[rv] = rw
        mult[rv] = divide(c * mw, mv)  # x_rv = (c mw / mv) x_rw

    for g in group.elements:
        for v, (w, c) in g.images.items():
            union(v, w, c)

    classes: dict[str, list[str]] = {}
    for v in vars_:
        root, _ = walk(v)
        classes.setdefault(root, []).append(v)

    reps = {root: min(members, key=variable_sort_key) for root, members in classes.items()}
    reduced = sorted(
        (reps[root] for root in classes if root not in zero_roots), key=variable_sort_key
    )

    section: dict[str, Poly] = {}
    for root, members in classes.items():
        rep = reps[root]
        _, m_rep = walk(rep)
        for v in members:
            if root in zero_roots:
                section[v] = Poly.zero(reduced)
            else:
                _, m_v = walk(v)
                scale = divide(m_v, m_rep)  # x_v = scale * x_rep on the fixed set
                section[v] = Poly.var(reduced, rep, scalar_field(scale)).scale(scale)
    return FixedPointChart(tuple(vars_), tuple(reduced), section)


def invariant_average(F: Poly, group: FiniteGroupAction) -> Poly:
    """Group average (1/|G|) sum_g F o g; the result is exactly G-invariant."""
    total = None
    for g in group.elements:
        term = F.subst_linear(g)
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
    lifts = {}
    for u in chart.reduced_variables:
        f = Poly.var(chart.reduced_variables, u, pi.field)
        lifts[u] = invariant_average(chart.lift(f), group)
    upper = {}
    red = chart.reduced_variables
    for i, u in enumerate(red):
        for j in range(i + 1, len(red)):
            v = red[j]
            h = bracket(pi, lifts[u], lifts[v])
            entry = chart.restrict(h)
            if not entry.is_zero:
                upper[(i, j)] = entry
    return PoissonTensor(red, upper, pi.field)


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
    field = join_fields(got.field, expected.field)
    diffs = []
    m = got.dim
    for i in range(m):
        for j in range(i + 1, m):
            e = expected.entry(i, j).with_field(field)
            g = got.entry(i, j).with_field(field)
            if e != g:
                diffs.append(
                    {"i": i + 1, "j": j + 1, "expected": e.canonical_str(), "got": g.canonical_str()}
                )
    return ReductionReport(not diffs, diffs)

"""A second arithmetic for the Jacobi identity: the catalog tensors at a
random point modulo the prime P = 2^61 - 1, from the catalog's data alone.

It reads only the data tables `catalog.TENSORS` and `catalog.LAST_SITE`
(and, in its tests, `checks.COMPATIBLE_PAIRS`), places the templates with
its own loop, and evaluates each entry and its first derivatives from the
template monomials in int arithmetic mod P.  It builds no `Poly` and calls
no `polyalg` or `poisson` code, so a fault in the package's ring operations
or product loops cannot bend it the same way as the operations it checks.

Why one point suffices (Schwartz 1980, Zippel 1979): a nonzero polynomial
of total degree d vanishes at a uniform random point of F_P^m with
probability at most d / P.  A Jacobiator entry of a tensor of degree at
most 3 has degree at most 5, so a nonzero one reads zero with probability
below 2^-58.  The templates are rational, so P needs no square root of -1
(2^61 - 1 is 3 mod 4).
"""

from __future__ import annotations

import random
from fractions import Fraction

P = (1 << 61) - 1


def lattice_variables(name: str, n: int) -> list[str]:
    """a1..ap, then b1..bn on toda, where p = n - 1 on the a-types and n otherwise."""
    family, kind = name.split("-")
    p = n - 1 if kind == "a" else n
    return [f"a{i}" for i in range(1, p + 1)] + [f"b{i}" for i in range(1, n + 1)
                                                  if family == "toda"]


def random_point(variables: list[str], seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    return {v: rng.randrange(P) for v in variables}


def residue(c) -> int:
    """An int or a Fraction as an element of F_P."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, P) % P


def placed(template, last, variables: list[str]) -> dict[tuple[str, str], tuple[dict, int]]:
    """{(u, v): (local polynomial, site)}: the bracket {x_u, x_v} is the local
    polynomial read at the site.  Each template entry goes to every site
    where both of its variables exist; a `last` entry goes to the last a-site
    only, replacing the template's bracket there."""
    count = {letter: sum(v[0] == letter for v in variables) for letter in "ab"}
    out = {}
    for entries, only in ((template, None), (last, count["a"])):
        for (lu, ou), (lv, ov), poly in entries:
            for i in range(max(1 - ou, 1 - ov), min(count[lu] - ou, count[lv] - ov) + 1):
                if only in (None, i):
                    out[(f"{lu}{i + ou}", f"{lv}{i + ov}")] = (poly, i)
    return out


def value_and_gradient(poly: dict, site: int, x: dict[str, int]) -> tuple[int, dict[str, int]]:
    """A local polynomial read at `site` and its first derivatives, at x mod P;
    a factor off the lattice is zero, so its monomial drops out."""
    value, grad = 0, {}
    for mono, c in poly.items():
        names = [f"{letter}{site + offset}" for letter, offset in mono]
        if not all(v in x for v in names):
            continue
        c = residue(c)
        term = c
        for v in names:
            term = term * x[v] % P
        value += term
        for t, v in enumerate(names):  # d/dx_v of the product: drop factor t
            d = c
            for s, w in enumerate(names):
                if s != t:
                    d = d * x[w] % P
            grad[v] = (grad.get(v, 0) + d) % P
    return value % P, grad


def tensor_at(templates, variables: list[str], x: dict[str, int]) -> dict:
    """{(i, j): (pi^ij, {l: d_l pi^ij})} at x for i < j, over the positions
    of `variables`, of the sum of the tensors placed from `templates`, a list
    of (template, last) pairs."""
    pos = {v: k for k, v in enumerate(variables)}
    out: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}
    for template, last in templates:
        for (u, v), (poly, site) in placed(template, last, variables).items():
            value, grad = value_and_gradient(poly, site, x)
            sign = 1 if pos[u] < pos[v] else -1
            key = (min(pos[u], pos[v]), max(pos[u], pos[v]))
            old_value, old_grad = out.get(key, (0, {}))
            new_grad = dict(old_grad)
            for w, d in grad.items():
                new_grad[pos[w]] = (new_grad.get(pos[w], 0) + sign * d) % P
            out[key] = ((old_value + sign * value) % P, new_grad)
    return out


def jacobiator_at(entries: dict) -> dict[tuple[int, int, int], int]:
    """The nonzero J^ijk = sum_l (pi^il d_l pi^jk + pi^jl d_l pi^ki + pi^kl d_l pi^ij),
    i < j < k, at the point of `entries` (`tensor_at`).

    A term pi^al d_l pi^bc is nonzero only where pi^al is stored and l is in
    the gradient of pi^bc, so the candidate triples are {a, b, c} for such
    a, l and (b, c); each is then summed by the formula itself."""
    value = {}
    grad = {}
    row: dict[int, list[int]] = {}
    for (i, j), (v, g) in entries.items():
        value[(i, j)], value[(j, i)] = v, -v % P
        grad[(i, j)], grad[(j, i)] = g, {l: -d % P for l, d in g.items()}
        row.setdefault(i, []).append(j)
        row.setdefault(j, []).append(i)
    triples = {tuple(sorted((a, b, c)))
               for (b, c), (_, g) in entries.items() for l in g for a in row.get(l, ())
               if a != b and a != c}
    out = {}
    for i, j, k in sorted(triples):
        total = 0
        for a, (b, c) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            for l, d in grad.get((b, c), {}).items():
                total += value.get((a, l), 0) * d
        if total % P:
            out[(i, j, k)] = total % P
    return out

"""The Jacobi identity of every catalog tensor and compatible pair, checked in
the second arithmetic of `modular_oracle` at one random point mod 2^61 - 1:
at the sizes `verify all --max-rank 6` runs, and at N = 640, ten times the
CLI's largest `verify` system (`cli.MAX_VERIFY_SYSTEM`)."""

import pytest

from todavolterra import catalog, checks
from todavolterra.cli import MAX_VERIFY_SYSTEM
from todavolterra.poisson import PoissonTensor, jacobiator
from todavolterra.polyalg import Poly

from modular_oracle import (
    P, jacobiator_at, lattice_variables, random_point, residue, tensor_at)

LARGE = 10 * MAX_VERIFY_SYSTEM
# the sizes of `verify all --max-rank 6`; volterra-c, which `verify` does not
# run, at the volterra-b sizes
VERIFY_ALL_SIZES = {
    "toda-a": range(2, 7),
    "toda-b": range(1, 7),
    "volterra-a": range(3, 14),
    "volterra-b": range(1, 7),
    "volterra-c": range(1, 7),
}
COMPATIBLE_SIZES = {"toda-a": range(2, 7), "volterra-a": range(3, 8)}


def templates(name, ks):
    return [(catalog.TENSORS[name, k], catalog.LAST_SITE.get((name, k), ())) for k in ks]


def modular_jacobiator(name, n, ks, seed=1):
    variables = lattice_variables(name, n)
    return jacobiator_at(tensor_at(templates(name, ks), variables, random_point(variables, seed)))


TENSOR_CASES = [(name, k, n) for name, k in catalog.TENSORS
                for n in [*VERIFY_ALL_SIZES[name], LARGE]]
PAIR_CASES = [(name, pair, n) for name, pairs in checks.COMPATIBLE_PAIRS.items()
              for pair in pairs for n in [*COMPATIBLE_SIZES[name], LARGE]]


@pytest.mark.parametrize("name, k, n", TENSOR_CASES,
                         ids=[f"pi{k} {name}:{n}" for name, k, n in TENSOR_CASES])
def test_every_catalog_tensor_is_poisson(name, k, n):
    assert modular_jacobiator(name, n, [k]) == {}


@pytest.mark.parametrize("name, pair, n", PAIR_CASES,
                         ids=[f"pi{i}+pi{j} {name}:{n}" for name, (i, j), n in PAIR_CASES])
def test_every_compatible_pair_sums_to_a_poisson_tensor(name, pair, n):
    assert modular_jacobiator(name, n, pair) == {}


def with_a_squared(template):
    """toda-a's pi3 template with a_i^2 added to {a_i, b_i}."""
    out = []
    for u, v, poly in template:
        if (u, v) == (("a", 0), ("b", 0)):
            square = (("a", 0), ("a", 0))
            poly = {**poly, square: poly.get(square, 0) + 1}
        out.append((u, v, poly))
    return tuple(out)


@pytest.mark.parametrize("n", [8, LARGE])
def test_negative_control_leaves_nonzero_entries(n):
    variables = lattice_variables("toda-a", n)
    x = random_point(variables, 1)
    bad = jacobiator_at(tensor_at([(with_a_squared(catalog.TENSORS["toda-a", 3]), ())],
                                  variables, x))
    assert bad
    assert all(0 < value < P for value in bad.values())


def test_negative_control_agrees_with_the_package():
    """The package's exact Jacobiator of the same perturbed tensor, read at the
    same point mod P: the same nonzero entries with the same values.  Only
    this comparison touches `Poly`; the oracle itself does not."""
    sys = catalog.SystemId("toda", "a", 8)
    variables = lattice_variables("toda-a", 8)
    assert tuple(variables) == catalog.variables(sys)
    x = random_point(variables, 1)
    pi = catalog.tensor(sys, 3)
    upper = dict(pi.upper)
    for i in range(1, 8):
        key = (variables.index(f"a{i}"), variables.index(f"b{i}"))
        a = Poly.var(variables, f"a{i}")
        upper[key] = upper[key] + a * a
    exact = jacobiator(PoissonTensor(variables, upper))

    def at_x(p):
        total = 0
        for expo, c in p.terms.items():
            term = residue(c)
            for v, e in zip(variables, expo):
                term = term * pow(x[v], e, P) % P
            total += term
        return total % P

    modular = jacobiator_at(tensor_at([(with_a_squared(catalog.TENSORS["toda-a", 3]), ())],
                                      variables, x))
    assert len(modular) == 25
    assert modular == {key: at_x(p) for key, p in exact.items()}

"""The catalog's template builds against the string constructions they replaced.

`catalog` builds its tensors, master symmetry, I4, embedded Volterra tensors
and Lax matrices from local templates.  The functions prefixed `old_` below
are the earlier constructions, which wrote every entry as a polynomial string
with hand-written index ranges and read it back; they are kept verbatim as
independent oracles, the strings read by the test-side `read_poly`.
`old_hamiltonian` is the earlier H_k = tr(L^k)/k by symbolic matrix powers,
the oracle for the closed-walk construction.
"""

from fractions import Fraction

import pytest

from todavolterra import catalog
from todavolterra.catalog import SystemId, lax_size, variables
from todavolterra.poisson import PoissonTensor, PolyVectorField
from todavolterra.polyalg import RAT, Poly, poly_matrix_mul

from conftest import read_poly


def old_tensor(sys: SystemId, k: int) -> PoissonTensor:
    vars_ = variables(sys)
    P = lambda s: read_poly(s, vars_)
    fam, kind, n = sys.family, sys.kind, sys.n
    key = (fam, kind, k)

    if key == ("toda", "a", 1):
        entries = {}
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "a", 2):
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}*b{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}*b{i + 1}")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "a", 3):
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-2*a{i}*a{i + 1}*b{i + 1}")
            entries[(f"a{i + 1}", f"b{i}")] = P(f"a{i}*a{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}*b{i}^2 + a{i}^2")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}*b{i + 1}^2 - a{i}^2")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-a{i}*b{i} - a{i}*b{i + 1}")
        for i in range(1, n - 1):
            entries[(f"a{i}", f"b{i + 2}")] = P(f"-a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "b", 1):
        entries = {}
        for i in range(1, n + 1):
            entries[(f"a{i}", f"b{i}")] = P(f"1/2*a{i}")
            if i < n:
                entries[(f"a{i}", f"b{i + 1}")] = P(f"-1/2*a{i}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("toda", "b", 3):
        entries = {}
        for i in range(1, n):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}*b{i + 1}")
            entries[(f"a{i + 1}", f"b{i}")] = P(f"1/2*a{i}*a{i + 1}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-1/2*a{i}*b{i + 1}^2 - 1/2*a{i}^2")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-1/2*a{i}*b{i} - 1/2*a{i}*b{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"1/2*a{i}*b{i}^2 + 1/2*a{i}^2")
        entries[(f"a{n}", f"b{n}")] = P(f"1/2*a{n}*b{n}^2 + a{n}^2")
        for i in range(1, n - 1):
            entries[(f"a{i}", f"b{i + 2}")] = P(f"-1/2*a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("volterra", "a", 2):
        entries = {}
        m = n - 1
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        return PoissonTensor.from_brackets(vars_, entries)

    if key == ("volterra", "a", 4):
        entries = {}
        m = n - 1
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}^2*a{i + 1} - a{i}*a{i + 1}^2")
        for i in range(1, m - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-a{i}*a{i + 1}*a{i + 2}")
        return PoissonTensor.from_brackets(vars_, entries)

    if kind in ("b", "c") and fam == "volterra" and k == 4:
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-1/2*a{i}^2*a{i + 1} - 1/2*a{i}*a{i + 1}^2")
        if n >= 2:
            entries[(f"a{n - 1}", f"a{n}")] = P(
                f"-1/2*a{n - 1}^2*a{n} - a{n - 1}*a{n}^2"
            )
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-1/2*a{i}*a{i + 1}*a{i + 2}")
        return PoissonTensor.from_brackets(vars_, entries)

    raise ValueError(f"no catalog tensor pi_{k} for {sys}")


def old_embedded_volterra_tensor(N: int, k: int, field: str = RAT) -> PoissonTensor:
    small = old_tensor(SystemId("volterra", "a", N), k)
    big_vars = variables(SystemId("toda", "a", N))
    upper = {}
    for (i, j), p in small.upper.items():
        upper[(i, j)] = p.extend(big_vars).with_field(field)
    return PoissonTensor(big_vars, upper, field)


def old_master_symmetry(sys: SystemId) -> PolyVectorField:
    n = sys.n
    vars_ = variables(sys)
    P = lambda s: read_poly(s, vars_)
    comps = []
    for i in range(1, n):
        comps.append(P(f"{1 - 2 * i}*a{i}*b{i} + {3 + 2 * i}*a{i}*b{i + 1}"))
    for i in range(1, n + 1):
        chunks = [f"b{i}^2"]
        if i >= 2:
            chunks.append(f"{2 - 2 * i}*a{i - 1}")
        if i <= n - 1:
            chunks.append(f"{2 + 2 * i}*a{i}")
        comps.append(P(" + ".join(chunks)))
    return PolyVectorField(vars_, comps)


def old_i4_hamiltonian(n: int) -> Poly:
    vars_ = variables(SystemId("volterra", "b", n))
    out = Poly.zero(vars_)
    for i in range(1, n):
        out = out + read_poly(f"1/2*a{i}^2 + 1/4*a{i}*a{i + 1}", vars_)
    return out


def old_lax(sys: SystemId, field: str = RAT) -> list[list[Poly]]:
    vars_ = variables(sys)
    N = lax_size(sys)
    zero = Poly.zero(vars_, field)
    one = Poly.const(vars_, 1, field)
    V = lambda name: Poly.var(vars_, name, field)
    L = [[zero for _ in range(N)] for _ in range(N)]
    fam, kind, n = sys.family, sys.kind, sys.n

    if fam == "toda" and kind == "a":
        for i in range(1, N + 1):
            L[i - 1][i - 1] = V(f"b{i}")
        for i in range(1, N):
            L[i - 1][i] = V(f"a{i}")
            L[i][i - 1] = one
        return L

    if fam == "toda" and kind == "b":
        for i in range(1, n + 1):
            L[i - 1][i - 1] = V(f"b{i}")
            L[N - i][N - i] = -V(f"b{i}")
        for s in range(1, N):
            L[s][s - 1] = one if s <= n else -one
            L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
        return L

    if fam == "toda" and kind == "c":
        for i in range(1, n + 1):
            L[i - 1][i - 1] = V(f"b{i}")
            L[N - i][N - i] = -V(f"b{i}")
        for s in range(1, N):
            L[s][s - 1] = one
            L[s - 1][s] = V(f"a{min(s, 2 * n - s)}")
        return L

    if fam == "volterra" and kind == "a":
        for s in range(1, N):
            L[s - 1][s] = V(f"a{s}")
            L[s][s - 1] = one
        return L

    for s in range(1, N):  # volterra-b, volterra-c
        L[s][s - 1] = one
        L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
    return L


def old_matrix_power(A: list[list[Poly]], k: int) -> list[list[Poly]]:
    if k < 1:
        raise ValueError("power must be >= 1")
    out = A
    for _ in range(k - 1):
        out = poly_matrix_mul(out, A)
    return out


def old_hamiltonian(sys: SystemId, k: int) -> Poly:
    P = old_matrix_power(old_lax(sys), k)
    tr = Poly.zero(variables(sys))
    for i in range(len(P)):
        tr = tr + P[i][i]
    return tr.scale(Fraction(1, k))


# Every catalog tensor at these sizes (264 in all).
TENSOR_RANGES = {
    ("toda", "a"): (range(2, 31), (1, 2, 3)),
    ("toda", "b"): (range(1, 31), (1, 3)),
    ("volterra", "a"): (range(2, 41), (2, 4)),
    ("volterra", "b"): (range(1, 31), (4,)),
    ("volterra", "c"): (range(1, 10), (4,)),
}


@pytest.mark.parametrize("family, kind", list(TENSOR_RANGES), ids="-".join)
def test_tensors_equal_old(family, kind):
    sizes, brackets = TENSOR_RANGES[(family, kind)]
    for n in sizes:
        sys = SystemId(family, kind, n)
        for k in brackets:
            new, old = catalog.tensor(sys, k), old_tensor(sys, k)
            assert new == old, (str(sys), k)
            assert new.to_json_dict() == old.to_json_dict()


def test_master_symmetry_equals_old():
    for n in range(2, 31):
        sys = SystemId("toda", "a", n)
        assert catalog.master_symmetry(sys) == old_master_symmetry(sys), n


def test_i4_equals_old():
    for n in range(1, 31):
        assert catalog.i4_hamiltonian(n) == old_i4_hamiltonian(n), n


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_embedded_volterra_tensor_equals_old(field):
    for N in range(3, 16):
        for k in (2, 4):
            new = catalog.embedded_volterra_tensor(N, k, field)
            assert new == old_embedded_volterra_tensor(N, k, field), (N, k)
            assert new.field == field


@pytest.mark.parametrize("name", ["toda-a", "toda-b", "toda-c", "volterra-a",
                                  "volterra-b", "volterra-c"])
@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_lax_equals_old(name, field):
    lo = 2 if name.endswith("-a") else 1
    for n in range(lo, 13):
        sys = catalog.parse_system(f"{name}:{n}")
        assert catalog.lax(sys, field) == old_lax(sys, field), str(sys)


# The sizes at which `verify all --max-rank 6` builds H_k (toda-a:2..6,
# toda-b:1..3, volterra-a:3..7), widened to toda-b:5 and volterra-a:2, and
# toda-c, volterra-b and volterra-c, whose H_k `verify` does not build, at 1..3.
HAMILTONIAN_SIZES = {
    "toda-a": range(2, 7),
    "toda-b": range(1, 6),
    "toda-c": range(1, 4),
    "volterra-a": range(2, 8),
    "volterra-b": range(1, 4),
    "volterra-c": range(1, 4),
}


@pytest.mark.parametrize("name", list(HAMILTONIAN_SIZES))
def test_hamiltonian_equals_old(name):
    for n in HAMILTONIAN_SIZES[name]:
        sys = catalog.parse_system(f"{name}:{n}")
        for k in range(1, 9):
            new, old = catalog.hamiltonian(sys, k), old_hamiltonian(sys, k)
            assert new.canonical_str() == old.canonical_str(), (str(sys), k)
            assert new == old


def test_hamiltonian_h10_equals_old():
    sys = SystemId("toda", "a", 10)
    assert catalog.hamiltonian(sys, 10).canonical_str() == old_hamiltonian(sys, 10).canonical_str()


@pytest.mark.parametrize("k", range(1, 7))
def test_perturbed_density_disagrees(monkeypatch, k):
    """Negative control: any one count of D_k off by one changes H_k.  A
    closed walk of length k visits at most k/2 + 1 sites, so on toda-a:k+1
    each monomial of D_k is read at some site, and all Lax entries are +1
    there, so no other monomial can cancel the change."""
    sys = SystemId("toda", "a", k + 1)
    old = old_hamiltonian(sys, k).canonical_str()
    density = catalog.walk_density(k)
    for mono in density:
        for delta in (1, -1):
            perturbed = dict(density)
            perturbed[mono] += delta
            monkeypatch.setattr(catalog, "walk_density", lambda _k, d=perturbed: d)
            assert catalog.hamiltonian(sys, k).canonical_str() != old, (mono, delta)

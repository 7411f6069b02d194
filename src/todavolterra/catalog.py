"""Constructors for the concrete lattice structures.

Lax matrices, trace Hamiltonians, Poisson tensors, master symmetries and the
finite symmetry maps for the Toda (A/B/C) and Volterra (A/B/C) families.

Conventions fixed here once and used everywhere:

* Variables: ``a1..ap, b1..bq`` (Volterra spaces have no b's).  Boundary
  convention a_0 = a_{end+1} = 0 and likewise for b.
* Hamiltonian fields satisfy X_H(F) = {F, H}; with the linear Toda bracket
  this makes hamiltonian_vf(pi1, H2) reproduce the Toda equations
  a_i' = a_i(b_i - b_{i+1}), b_i' = a_{i-1} - a_i exactly.
* The cubic Toda bracket is defined by the master-symmetry recursion
  pi3 = -L_{Z1} pi2.  The deformation relations L_{Z0}pi_l = (l-2)pi_l,
  L_{Z1}pi_1 = -2 pi2, L_{Z1}pi_2 = -pi3 and Z_k(H_l) = (k+l)H_{k+l} then
  hold exactly, as do the ladders pi3 dH_l = pi2 dH_{l+1} = pi1 dH_{l+2}.
* The B-family tensors are the fixed-point reductions of the A-family ones
  (frozen closed forms, regression-tested against the live reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polyalg import (
    I_UNIT,
    RAT,
    Poly,
    poly_matrix_power,
    poly_matrix_trace,
)
from .poisson import LinearMap, PoissonTensor, PolyVectorField, hamiltonian_vf


@dataclass(frozen=True)
class SystemId:
    """A lattice family member: toda/volterra, type a/b/c, rank parameter n.

    For volterra-a the parameter is the Lax matrix size N (variables
    a1..a_{N-1}); for the other families it is the rank n.
    """

    family: str
    kind: str
    n: int

    def __post_init__(self):
        if self.family not in ("toda", "volterra"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.kind not in ("a", "b", "c"):
            raise ValueError(f"unknown type {self.kind!r}")
        if self.n < 1:
            raise ValueError("rank parameter must be >= 1")
        if (self.family, self.kind) == ("toda", "a") and self.n < 2:
            raise ValueError("toda-a needs matrix size >= 2")
        if (self.family, self.kind) == ("volterra", "a") and self.n < 2:
            raise ValueError("volterra-a needs matrix size >= 2")

    @property
    def name(self) -> str:
        """The family and type, e.g. 'toda-a'."""
        return f"{self.family}-{self.kind}"

    def __str__(self) -> str:
        return f"{self.name}:{self.n}"


def parse_system(text: str) -> SystemId:
    """Parse the CLI grammar 'toda-a:3', 'volterra-b:2', ..."""
    try:
        name, n = text.split(":")
        family, kind = name.split("-")
        return SystemId(family.lower(), kind.lower(), int(n))
    except ValueError as exc:
        raise ValueError(f"bad system id {text!r} (expected e.g. 'toda-a:3')") from exc


def _sys(sys: SystemId | str) -> SystemId:
    return parse_system(sys) if isinstance(sys, str) else sys


def variables(sys: SystemId | str) -> tuple[str, ...]:
    """Ordered phase-space variables of the system."""
    sys = _sys(sys)
    fam, kind, n = sys.family, sys.kind, sys.n
    if fam == "toda" and kind == "a":
        return tuple(f"a{i}" for i in range(1, n)) + tuple(f"b{i}" for i in range(1, n + 1))
    if fam == "toda" and kind in ("b", "c"):
        return tuple(f"a{i}" for i in range(1, n + 1)) + tuple(f"b{i}" for i in range(1, n + 1))
    if fam == "volterra" and kind == "a":
        return tuple(f"a{i}" for i in range(1, n))
    if fam == "volterra" and kind in ("b", "c"):
        return tuple(f"a{i}" for i in range(1, n + 1))
    raise ValueError(f"unsupported system {sys}")


def lax_size(sys: SystemId | str) -> int:
    sys = _sys(sys)
    if (sys.family, sys.kind) in (("toda", "a"), ("volterra", "a")):
        return sys.n
    if sys.kind == "c" and sys.family == "toda":
        return 2 * sys.n
    return 2 * sys.n + 1


def lax(sys: SystemId | str, field: str = RAT) -> list[list[Poly]]:
    """Symbolic Lax matrix of the system."""
    sys = _sys(sys)
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
        # diag (b1..bn, 0, -bn..-b1), superdiag (a1..an, -an..-a1),
        # subdiag (+1 x n, -1 x n)
        for i in range(1, n + 1):
            L[i - 1][i - 1] = V(f"b{i}")
            L[N - i][N - i] = -V(f"b{i}")
        for s in range(1, N):
            L[s][s - 1] = one if s <= n else -one
            L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
        return L

    if fam == "toda" and kind == "c":
        # fixed-point form inside the even-size toda-a space:
        # diag (b1..bn, -bn..-b1), superdiag (a1..a_{n-1}, an, a_{n-1}..a1)
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

    if fam == "volterra" and kind in ("b", "c"):
        # superdiag (a1..an, -an..-a1), unit subdiagonal, zero diagonal
        for s in range(1, N):
            L[s][s - 1] = one
            L[s - 1][s] = V(f"a{s}") if s <= n else -V(f"a{2 * n + 1 - s}")
        return L

    raise ValueError(f"unsupported system {sys}")


def hamiltonian(sys: SystemId | str, k: int, field: str = RAT) -> Poly:
    """H_k = tr(L^k)/k; identically zero for odd k on mirror-symmetric Lax."""
    sys = _sys(sys)
    if k < 1:
        raise ValueError("k must be >= 1")
    L = lax(sys, field)
    tr = poly_matrix_trace(poly_matrix_power(L, k))
    return tr.scale(Fraction(1, k))


# --------------------------------------------------------------------- tensors

# The catalog Poisson tensors pi_k of each family, k in ascending order.
BRACKETS = {
    "toda-a": (1, 2, 3),
    "toda-b": (1, 3),
    "volterra-a": (2, 4),
    "volterra-b": (4,),
}


def _brackets_to_tensor(sys, entries, degree):
    return PoissonTensor.from_brackets(variables(sys), entries, degree=degree)


@lru_cache(maxsize=None)
def tensor(sys: SystemId | str, k: int) -> PoissonTensor:
    """Catalog Poisson tensor pi_k of the system; errors name the gap."""
    sys = _sys(sys)
    vars_ = variables(sys)
    P = lambda s: Poly.parse(s, vars_)
    fam, kind, n = sys.family, sys.kind, sys.n
    key = (fam, kind, k)

    if key == ("toda", "a", 1):
        entries = {}
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}")
        return _brackets_to_tensor(sys, entries, 1)

    if key == ("toda", "a", 2):
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        for i in range(1, n):
            entries[(f"a{i}", f"b{i}")] = P(f"a{i}*b{i}")
            entries[(f"a{i}", f"b{i + 1}")] = P(f"-a{i}*b{i + 1}")
            entries[(f"b{i}", f"b{i + 1}")] = P(f"-a{i}")
        return _brackets_to_tensor(sys, entries, 2)

    if key == ("toda", "a", 3):
        # cubic bracket pi3 = -L_{Z1} pi2 (regression-tested against the
        # recursion; see master_symmetry for the sign conventions)
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
        return _brackets_to_tensor(sys, entries, 3)

    if key == ("toda", "b", 1):
        # fixed-point reduction of the linear bracket (frozen closed form)
        entries = {}
        for i in range(1, n + 1):
            entries[(f"a{i}", f"b{i}")] = P(f"1/2*a{i}")
            if i < n:
                entries[(f"a{i}", f"b{i + 1}")] = P(f"-1/2*a{i}")
        return _brackets_to_tensor(sys, entries, 1)

    if key == ("toda", "b", 3):
        # fixed-point reduction of the cubic bracket (frozen closed form)
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
        return _brackets_to_tensor(sys, entries, 3)

    if key == ("volterra", "a", 2):
        entries = {}
        m = n - 1  # number of variables
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}*a{i + 1}")
        return _brackets_to_tensor(sys, entries, 2)

    if key == ("volterra", "a", 4):
        # quartic bracket, sign pinned by the ladder pi4 dH2 = pi2 dH4
        # (equivalently: restriction of the fifth Toda flow), as for pi3
        entries = {}
        m = n - 1
        for i in range(1, m):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-a{i}^2*a{i + 1} - a{i}*a{i + 1}^2")
        for i in range(1, m - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-a{i}*a{i + 1}*a{i + 2}")
        return _brackets_to_tensor(sys, entries, 4)

    if kind in ("b", "c") and fam == "volterra" and k == 4:
        # fixed-point reduction of the quartic bracket (frozen closed form)
        entries = {}
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 1}")] = P(f"-1/2*a{i}^2*a{i + 1} - 1/2*a{i}*a{i + 1}^2")
        if n >= 2:
            entries[(f"a{n - 1}", f"a{n}")] = P(
                f"-1/2*a{n - 1}^2*a{n} - a{n - 1}*a{n}^2"
            )
        for i in range(1, n - 1):
            entries[(f"a{i}", f"a{i + 2}")] = P(f"-1/2*a{i}*a{i + 1}*a{i + 2}")
        return _brackets_to_tensor(sys, entries, 4)

    supported = " ".join(f"{name}:{','.join(map(str, ks))}" for name, ks in BRACKETS.items())
    raise ValueError(f"no catalog tensor pi_{k} for {sys}; supported: {supported}")


def embedded_volterra_tensor(N: int, k: int, field: str = RAT) -> PoissonTensor:
    """The volterra-a:N tensor viewed on the toda-a:N space (zero b-rows).

    Entries depend only on the a-variables, so the embedded bivector is still
    Poisson; it is invariant under the order-4 Gaussian twist group, which
    makes the one-stage/two-stage reduction comparison executable.
    """
    small = tensor(SystemId("volterra", "a", N), k)
    big_vars = variables(SystemId("toda", "a", N))
    upper = {}
    for (i, j), p in small.upper.items():
        upper[(i, j)] = p.extend(big_vars).with_field(field)
    return PoissonTensor(big_vars, upper, k, field)


# ---------------------------------------------------------------- vector fields


def euler_field(sys: SystemId | str) -> PolyVectorField:
    """Weighted Euler field Z0 = sum_i 2 a_i d/da_i + sum_i b_i d/db_i.

    The lattice grading gives a-variables weight 2 and b-variables weight 1
    (a_i is an exponential of a coordinate difference, b_i a momentum); this
    is the unique scaling field with L_{Z0} pi_l = (l-2) pi_l and
    Z0(H_l) = l H_l for the whole hierarchy.
    """
    sys = _sys(sys)
    vars_ = variables(sys)
    comps = [
        Poly.var(vars_, v).scale(2 if v.startswith("a") else 1) for v in vars_
    ]
    return PolyVectorField(vars_, comps)


def master_symmetry(sys: SystemId | str) -> PolyVectorField:
    """First master symmetry Z1 of the toda-a hierarchy.

    Z1 = sum_i a_i[(1-2i) b_i + (3+2i) b_{i+1}] d/da_i
       + sum_i [(2-2i) a_{i-1} + (2+2i) a_i + b_i^2] d/db_i

    Pinned by L_{Z1} pi1 = -2 pi2 together with Z1(H_l) = (1+l) H_{l+1}
    (regression-tested); the b_{i+1} coefficient differs from the commonly
    printed (1+2i) which fails both relations for n >= 3.
    """
    sys = _sys(sys)
    if (sys.family, sys.kind) != ("toda", "a"):
        raise ValueError("master symmetry is cataloged for toda-a only")
    n = sys.n
    vars_ = variables(sys)
    P = lambda s: Poly.parse(s, vars_)
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


def flow(sys: SystemId | str, k: int) -> PolyVectorField:
    """The H_k flow paired with the system's lowest catalog bracket.

    toda-a / toda-b use the linear bracket (X = pi1 dH_k), volterra-a the
    quadratic one (X = pi2 dH_k); flow(sys, 2) is the basic lattice equation
    in each case.
    """
    sys = _sys(sys)
    if sys.family == "toda":
        return hamiltonian_vf(tensor(sys, 1), hamiltonian(sys, k))
    if (sys.family, sys.kind) == ("volterra", "a"):
        return hamiltonian_vf(tensor(sys, 2), hamiltonian(sys, k))
    raise ValueError(f"no ladder flow cataloged for {sys}; use bn_volterra_flow")


def bn_volterra_flow(n: int) -> PolyVectorField:
    """The B-type Volterra equations:

    a1' = -a1 a2,  a_i' = a_i(a_{i-1} - a_{i+1}),  a_n' = a_n(a_{n-1} + a_n).

    Equals the restriction of the volterra-a equations to the mirror-odd
    subspace a_{2n+1-i} = -a_i (regression-tested).
    """
    sysv = SystemId("volterra", "b", n)
    vars_ = variables(sysv)
    V = lambda name: Poly.var(vars_, name)
    comps = []
    for i in range(1, n + 1):
        ai = V(f"a{i}")
        rhs = Poly.zero(vars_)
        if i > 1:
            rhs = rhs + ai * V(f"a{i - 1}")
        rhs = rhs - ai * V(f"a{i + 1}") if i < n else rhs + ai * ai
        comps.append(rhs)
    return PolyVectorField(vars_, comps)


def special_field(sys: SystemId | str, which) -> PolyVectorField:
    """Dispatch for the named special fields: "Z0", "Z1", ("flow", k),
    "bn_volterra_flow"."""
    sys = _sys(sys)
    if which == "Z0":
        return euler_field(sys)
    if which == "Z1":
        return master_symmetry(sys)
    if which == "bn_volterra_flow":
        if (sys.family, sys.kind) not in (("volterra", "b"), ("volterra", "c")):
            raise ValueError("bn_volterra_flow is defined for volterra-b systems")
        return bn_volterra_flow(sys.n)
    if isinstance(which, tuple) and len(which) == 2 and which[0] == "flow":
        return flow(sys, which[1])
    raise ValueError(f"unknown special field {which!r}")


def i4_hamiltonian(n: int) -> Poly:
    """I4 = 1/4 sum_{i<n} (2 a_i^2 + a_i a_{i+1}) on the B-type Volterra space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = variables(SystemId("volterra", "b", n))
    out = Poly.zero(vars_)
    for i in range(1, n):
        out = out + Poly.parse(f"1/2*a{i}^2 + 1/4*a{i}*a{i + 1}", vars_)
    return out


# ------------------------------------------------------------------ symmetries


def symmetry(name: str, sys: SystemId | str) -> LinearMap:
    """The finite symmetry maps.

    psi           b-sign flip on toda-a:N              (order 2)
    phi_toda      index mirror a_i -> a_{N-i}, b_i -> -b_{N+1-i} on toda-a:N
                  (order 2; works for both parities of N)
    phi_volterra  a_i -> -a_{N-i} on volterra-a:N      (order 2)
    phi_tilde     a_i -> -a_{N-i}, b_i -> i*b_{N+1-i} on toda-a:N, N odd
                  (order 4, Gaussian; phi_tilde^2 = psi)
    """
    sys = _sys(sys)
    vars_ = variables(sys)
    N = sys.n
    fam, kind = sys.family, sys.kind

    if name == "psi":
        if (fam, kind) != ("toda", "a"):
            raise ValueError("psi acts on toda-a systems")
        images = {v: (v, 1) for v in vars_ if v.startswith("a")}
        images.update({v: (v, -1) for v in vars_ if v.startswith("b")})
        return LinearMap(vars_, images, order=2)

    if name == "phi_toda":
        if (fam, kind) != ("toda", "a"):
            raise ValueError("phi_toda acts on toda-a systems")
        images = {}
        for i in range(1, N):
            images[f"a{i}"] = (f"a{N - i}", 1)
        for i in range(1, N + 1):
            images[f"b{i}"] = (f"b{N + 1 - i}", -1)
        return LinearMap(vars_, images, order=2)

    if name == "phi_volterra":
        if (fam, kind) != ("volterra", "a"):
            raise ValueError("phi_volterra acts on volterra-a systems")
        images = {f"a{i}": (f"a{N - i}", -1) for i in range(1, N)}
        return LinearMap(vars_, images, order=2)

    if name == "phi_tilde":
        if (fam, kind) != ("toda", "a") or N % 2 == 0:
            raise ValueError("phi_tilde acts on odd-size toda-a systems")
        images = {}
        for i in range(1, N):
            images[f"a{i}"] = (f"a{N - i}", -1)
        for i in range(1, N + 1):
            images[f"b{i}"] = (f"b{N + 1 - i}", I_UNIT)
        return LinearMap(vars_, images, order=4)

    raise ValueError(f"unknown symmetry {name!r}")


def symmetry_group(name: str, sys: SystemId | str) -> list[LinearMap]:
    """The cyclic group generated by the named symmetry (identity first)."""
    g = symmetry(name, sys)
    elems = [LinearMap.identity(g.variables)]
    cur = g
    while not cur.is_identity():
        elems.append(cur)
        cur = cur.compose(g)
    return elems

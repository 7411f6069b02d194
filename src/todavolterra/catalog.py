"""Constructors for the concrete lattice structures.

Lax matrices, trace Hamiltonians, Poisson tensors, master symmetries and the
finite symmetry maps for the Toda (A/B/C) and Volterra (A/B/C) families.

Conventions fixed here once and used everywhere:

* Systems: every function takes a parsed `SystemId`; only the CLI parses the
  text form 'toda-a:3' (`parse_system`).
* Variables: ``a1..ap, b1..bq`` (Volterra spaces have no b's).  Boundary
  convention a_0 = a_{end+1} = 0 and likewise for b.
* Hamiltonian fields satisfy X_H(F) = {F, H}; with the linear Toda bracket
  this makes hamiltonian_vf(pi1, H2) reproduce the Toda equations
  a_i' = a_i(b_i - b_{i+1}), b_i' = a_{i-1} - a_i exactly.
* The cubic Toda bracket is defined by the master-symmetry recursion
  pi3 = -L_{Z1} pi2.  The deformation relations L_{Z0}pi_l = (l-2)pi_l,
  L_{Z1}pi_1 = -2 pi2, L_{Z1}pi_2 = -pi3 and Z_k(H_l) = (k+l)H_{k+l} then
  hold exactly, as do the ladders pi3 dH_l = pi2 dH_{l+1} = pi1 dH_{l+2}.
* Every catalog polynomial is local: `TENSORS` states each bracket once as
  entries {x_u, x_v} = p with u, v and the monomials of p written as
  (letter, offset) factors relative to a site i, placed at every site where
  both variables exist.  The B-family tensors are the fixed-point reductions
  of the A-family ones (frozen closed forms, regression-tested against the
  live reduction): half the A-family bulk, with a `LAST_SITE` patch.
* H_k = tr(L^k)/k is built from closed walks, not matrix powers.  For a
  tridiagonal L, (L^k)[r][r] sums the products along the walks of length k
  from r back to r, and such a product depends only on the diagonal entries
  d_s and the edge products c_s = L[s][s+1] L[s+1][s], each a signed
  variable.  `lax_bands` is the single statement of that band rule; the
  float monitors (`flows.lax_bands`) read it too.  So one local density
  D_k (`walk_density`), found once per k on the infinite lattice, read at
  every site r of any of the six families, gives the trace.  The boundary
  costs nothing: a walk that would leave the N x N matrix crosses an edge
  with no entry, so reading an off-lattice factor as zero, as the templates
  do, is exactly the finite matrix.
* Builders that the checks call again and again are memoised per process
  (`lru_cache`): `variables`, `lax_entries`, `lax_bands`, `hamiltonian`,
  `tensor` and `symmetry`, like `walk_density`.  Their results are shared,
  so callers must not mutate them, and a test that perturbs a lower builder
  (say `walk_density`) must call the upper one's uncached `__wrapped__`,
  or it reads the object built before the perturbation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .polyalg import I_UNIT, Poly, divide, normal, unit_keys
from .poisson import LinearMap, PoissonTensor, PolyVectorField, hamiltonian_vf
from .reduction import FiniteGroupAction


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
        if self.kind == "a" and self.n < 2:
            raise ValueError(f"{self.name} needs matrix size >= 2")

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


@lru_cache(maxsize=None)
def variables(sys: SystemId) -> tuple[str, ...]:
    """Ordered phase-space variables of the system: a1..ap, then b1..bn on
    toda, where p = n - 1 on the a-types and n otherwise.  Memoised."""
    p = sys.n - 1 if sys.kind == "a" else sys.n
    bs = range(1, sys.n + 1) if sys.family == "toda" else ()
    return tuple(f"a{i}" for i in range(1, p + 1)) + tuple(f"b{i}" for i in bs)


def lax_size(sys: SystemId) -> int:
    if sys.kind == "a":
        return sys.n
    if sys.kind == "c" and sys.family == "toda":
        return 2 * sys.n
    return 2 * sys.n + 1


@lru_cache(maxsize=None)
def lax_entries(sys: SystemId) -> tuple[tuple[int, int, str | None, int], ...]:
    """The nonzero Lax entries (i, j, v, c): c * v, or the constant c if v is None.

    The a-types of size N carry b1..bN on the diagonal (toda only),
    a1..a_{N-1} on the superdiagonal and ones below it.  The mirror types
    extend a1..an and b1..bn to size 2n+1, or 2n for toda-c (the fixed-point
    form inside the even-size toda-a space):
      diagonal (toda)  b1..bn, [0,] -bn..-b1
      superdiagonal    a1..an, -an..-a1; toda-c: a1..a_{n-1}, an, a_{n-1}..a1
      subdiagonal      ones, negated in the mirror half for toda-b

    Memoised: the tuple is shared.
    """
    N, n = lax_size(sys), sys.n
    out = []
    if sys.family == "toda":
        for i in range(1, (N if sys.kind == "a" else n) + 1):
            out.append((i - 1, i - 1, f"b{i}", 1))
            if sys.kind != "a":
                out.append((N - i, N - i, f"b{i}", -1))
    for s in range(1, N):
        if sys.kind == "a":
            a, sign = s, 1
        elif sys.name == "toda-c":
            a, sign = min(s, 2 * n - s), 1
        else:
            a, sign = (s, 1) if s <= n else (2 * n + 1 - s, -1)
        out.append((s - 1, s, f"a{a}", sign))
        out.append((s, s - 1, None, sign if sys.name == "toda-b" else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def lax_bands(sys: SystemId) -> tuple[dict[int, tuple[int, str]], dict[int, tuple[int, str]]]:
    """The bands of the tridiagonal Lax matrix as signed variables (c, v):
    the diagonal {i: L[i][i]} and the edge products {i: L[i][i+1] L[i+1][i]}.

    Every subdiagonal entry of `lax_entries` is a constant, so each edge
    product is a signed variable too.  The diagonal is empty on the Volterra
    families.  This is the single statement of the band rule: `hamiltonian`
    and the float monitors (`flows.lax_bands`) read the bands from here.
    Memoised: the result is shared, and callers must not mutate it.
    """
    diagonal, upper, lower = {}, {}, {}
    for i, j, v, c in lax_entries(sys):
        if i == j:
            diagonal[i] = (c, v)
        elif j == i + 1:
            upper[i] = (c, v)
        else:
            lower[j] = c  # v is None
    return diagonal, {i: (c * lower[i], v) for i, (c, v) in upper.items()}


def lax(sys: SystemId) -> list[list[Poly]]:
    """Symbolic Lax matrix of the system, built from `lax_entries`."""
    zero = Poly.zero(variables(sys))  # checks the variables once
    vars_, N = zero.variables, lax_size(sys)
    unit = unit_keys(vars_)
    L = [[zero] * N for _ in range(N)]
    for i, j, v, c in lax_entries(sys):
        L[i][j] = Poly._make(vars_, {unit.get(v, 0): c})  # c is an int
    return L


@lru_cache(maxsize=None)
def walk_density(k: int) -> dict[tuple, int]:
    """D_k = (L^k)[0][0] for a tridiagonal L on the infinite lattice.

    {monomial: count}, a monomial a sorted tuple of ("d", offset) and
    ("c", offset) factors: each step of a closed walk from site 0 stays at s
    (the factor ("d", s)) or moves up from s (("c", s), the edge product) or
    down (no factor; a closed walk goes down each edge as often as up).  A
    dynamic program over (position, monomial) that drops positions from
    which the walk cannot return finds it.  The result is shared: callers
    must not mutate it.
    """
    layer = {(0, ()): 1}
    for left in range(k - 1, -1, -1):  # steps left after this one
        nxt: dict[tuple, int] = {}
        for (p, mono), count in layer.items():
            for q, factor in ((p, ("d", p)), (p + 1, ("c", p)), (p - 1, None)):
                if abs(q) <= left:
                    key = (q, mono if factor is None else tuple(sorted(mono + (factor,))))
                    nxt[key] = nxt.get(key, 0) + count
        layer = nxt
    return {mono: count for (_, mono), count in layer.items()}


@lru_cache(maxsize=None)
def hamiltonian(sys: SystemId, k: int) -> Poly:
    """H_k = tr(L^k)/k: the closed walks `walk_density(k)` read at every site.

    (L^k)[r][r] is D_k read at site r: the factor ("d", o) is the diagonal
    entry d_{r+o} and ("c", o) the edge product L[r+o][r+o+1] L[r+o+1][r+o],
    both from `lax_bands`, so every family is read alike.  A factor off the
    matrix or on a zero entry is zero: a walk that would leave the N x N
    matrix crosses the missing edge -1 or N-1, so dropping its monomial is
    exactly the matrix boundary.  Zero for odd k on a mirror-symmetric Lax.
    Memoised: the result is shared, and callers must not mutate it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vars_ = variables(sys)
    unit = unit_keys(vars_)
    # each band value as a signed monomial (coefficient, monomial key)
    values = {letter: {i: (c, unit[v]) for i, (c, v) in band.items()}
              for letter, band in zip("dc", lax_bands(sys))}
    terms: dict[int, int] = {}
    for mono, count in walk_density(k).items():
        for r in range(lax_size(sys)):
            coef, key = count, 0
            for letter, offset in mono:
                value = values[letter].get(r + offset)
                if value is None:
                    break
                coef *= value[0]
                key += value[1]
            else:
                terms[key] = terms.get(key, 0) + coef
    return Poly._make(vars_, {e: divide(c, k) for e, c in terms.items() if c})


# ------------------------------------------------------------ local templates

# A local polynomial is {monomial: coefficient}, a monomial a tuple of
# (letter, offset) factors: read at site i, the factor (letter, offset) is
# the variable letter{i + offset}, and a factor off the lattice is zero (the
# boundary convention), so its monomial drops out.
# a_{i-1}, a_i, a_{i+1}, a_{i+2} and b_i, b_{i+1}, b_{i+2}:
A_, A0, A1, A2 = ("a", -1), ("a", 0), ("a", 1), ("a", 2)
B0, B1, B2 = ("b", 0), ("b", 1), ("b", 2)


def local(vars_: tuple[str, ...], unit: Mapping[str, int], poly: dict, sites) -> Poly:
    """The sum over `sites` of the local polynomial `poly` read at each site.

    `unit` maps each of `vars_` to its key (`unit_keys`), built once by the
    caller.
    """
    terms = {}
    for i in sites:
        for mono, c in poly.items():
            key = 0
            for letter, offset in mono:
                u = unit.get(f"{letter}{i + offset}")
                if u is None:
                    break
                key += u
            else:
                terms[key] = terms.get(key, 0) + c
    return Poly._make(vars_, {e: normal(c) for e, c in terms.items() if c})


# --------------------------------------------------------------------- tensors


def _halved(entries):
    return tuple((u, v, {m: Fraction(c, 2) for m, c in p.items()}) for u, v, p in entries)


_TODA_PI1 = ((A0, B0, {(A0,): 1}), (A0, B1, {(A0,): -1}))
# the cubic bracket pi3 = -L_{Z1} pi2 (regression-tested against the
# recursion; see master_symmetry for the sign conventions)
_TODA_PI3 = (
    (A0, A1, {(A0, A1, B1): -2}),
    (A1, B0, {(A0, A1): 1}),
    (A0, B0, {(A0, B0, B0): 1, (A0, A0): 1}),
    (A0, B1, {(A0, B1, B1): -1, (A0, A0): -1}),
    (B0, B1, {(A0, B0): -1, (A0, B1): -1}),
    (A0, B2, {(A0, A1): -1}),
)
# the quartic bracket, sign pinned by the ladder pi4 dH2 = pi2 dH4
# (equivalently: restriction of the fifth Toda flow), as for pi3
_VOLTERRA_PI4 = (
    (A0, A1, {(A0, A0, A1): -1, (A0, A1, A1): -1}),
    (A0, A2, {(A0, A1, A2): -1}),
)
_VOLTERRA_B_PI4_LAST = ((A_, A0, {(A_, A_, A0): Fraction(-1, 2), (A_, A0, A0): -1}),)

# The catalog Poisson tensors pi_k as local entries (u, v, p): {x_u, x_v} = p
# at every site where both u and v are variables.  The B-family brackets are
# the fixed-point reductions of the A-family ones (frozen here, regression-
# tested against the live reduction): half the A-family template in the
# bulk, with the LAST_SITE entries replacing it at the last site n.
TENSORS = {
    ("toda-a", 1): _TODA_PI1,
    ("toda-a", 2): (
        (A0, A1, {(A0, A1): -1}),
        (A0, B0, {(A0, B0): 1}),
        (A0, B1, {(A0, B1): -1}),
        (B0, B1, {(A0,): -1}),
    ),
    ("toda-a", 3): _TODA_PI3,
    ("toda-b", 1): _halved(_TODA_PI1),
    ("toda-b", 3): _halved(_TODA_PI3),
    ("volterra-a", 2): ((A0, A1, {(A0, A1): -1}),),
    ("volterra-a", 4): _VOLTERRA_PI4,
    ("volterra-b", 4): _halved(_VOLTERRA_PI4),
    ("volterra-c", 4): _halved(_VOLTERRA_PI4),
}
LAST_SITE = {
    ("toda-b", 3): ((A0, B0, {(A0, B0, B0): Fraction(1, 2), (A0, A0): 1}),),
    ("volterra-b", 4): _VOLTERRA_B_PI4_LAST,
    ("volterra-c", 4): _VOLTERRA_B_PI4_LAST,
}

# The catalog Poisson tensors pi_k of each family, k in ascending order,
# read off the TENSORS keys.
BRACKETS = {name: tuple(sorted(k for other, k in TENSORS if other == name)) for name, _ in TENSORS}


def _tensor(sys: SystemId, k: int, vars_: tuple[str, ...]) -> PoissonTensor:
    """pi_k of `sys` from its template, placed on the variables `vars_`."""
    if (sys.name, k) not in TENSORS:
        supported = " ".join(f"{name}:{','.join(map(str, ks))}" for name, ks in BRACKETS.items())
        raise ValueError(f"no catalog tensor pi_{k} for {sys}; supported: {supported}")
    count = Counter(v[0] for v in vars_)  # sites per letter: a1..ap, b1..bq
    last = LAST_SITE.get((sys.name, k), ())
    unit = unit_keys(vars_)
    brackets = {}
    # the LAST_SITE entries come second, so they replace the bulk at site n
    for template, only in ((TENSORS[sys.name, k], None), (last, count["a"])):
        for (lu, ou), (lv, ov), p in template:
            for i in range(max(1 - ou, 1 - ov), min(count[lu] - ou, count[lv] - ov) + 1):
                if only in (None, i):
                    brackets[(f"{lu}{i + ou}", f"{lv}{i + ov}")] = local(
                        vars_, unit, p, (i,))
    return PoissonTensor.from_brackets(vars_, brackets)


@lru_cache(maxsize=None)
def tensor(sys: SystemId, k: int) -> PoissonTensor:
    """Catalog Poisson tensor pi_k of the system; errors name the gap.
    Memoised: the result is shared, and callers must not mutate it."""
    return _tensor(sys, k, variables(sys))


def embedded_volterra_tensor(N: int, k: int) -> PoissonTensor:
    """The volterra-a:N tensor viewed on the toda-a:N space (zero b-rows).

    Entries depend only on the a-variables, so the embedded bivector is still
    Poisson; it is invariant under the order-4 Gaussian twist group, which
    makes the one-stage/two-stage reduction comparison executable.
    """
    return _tensor(SystemId("volterra", "a", N), k, variables(SystemId("toda", "a", N)))


# ---------------------------------------------------------------- vector fields


def euler_field(sys: SystemId) -> PolyVectorField:
    """Weighted Euler field Z0 = sum_i 2 a_i d/da_i + sum_i b_i d/db_i.

    The lattice grading gives a-variables weight 2 and b-variables weight 1
    (a_i is an exponential of a coordinate difference, b_i a momentum); this
    is the unique scaling field with L_{Z0} pi_l = (l-2) pi_l and
    Z0(H_l) = l H_l for the whole hierarchy.
    """
    vars_ = variables(sys)
    unit = unit_keys(vars_)
    weight = {"a": {(A0,): 2}, "b": {(B0,): 1}}
    return PolyVectorField(vars_, [local(vars_, unit, weight[v[0]], (int(v[1:]),)) for v in vars_])


def master_symmetry(sys: SystemId) -> PolyVectorField:
    """First master symmetry Z1 of the toda-a hierarchy.

    Z1 = sum_i a_i[(1-2i) b_i + (3+2i) b_{i+1}] d/da_i
       + sum_i [(2-2i) a_{i-1} + (2+2i) a_i + b_i^2] d/db_i

    Pinned by L_{Z1} pi1 = -2 pi2 together with Z1(H_l) = (1+l) H_{l+1}
    (regression-tested); the b_{i+1} coefficient differs from the commonly
    printed (1+2i) which fails both relations for n >= 3.
    """
    if (sys.family, sys.kind) != ("toda", "a"):
        raise ValueError("master symmetry is cataloged for toda-a only")
    vars_ = variables(sys)
    count = Counter(v[0] for v in vars_)
    unit = unit_keys(vars_)
    # the component at site i is c + i * d, for the local polynomials (c, d)
    affine = {
        "a": ({(A0, B0): 1, (A0, B1): 3}, {(A0, B0): -2, (A0, B1): 2}),
        "b": ({(B0, B0): 1, (A_,): 2, (A0,): 2}, {(A_,): -2, (A0,): 2}),
    }
    comps = [
        local(vars_, unit, c, (i,)) + local(vars_, unit, d, (i,)).scale(i)
        for letter, (c, d) in affine.items()
        for i in range(1, count[letter] + 1)
    ]
    return PolyVectorField(vars_, comps)


def flow(sys: SystemId, k: int) -> PolyVectorField:
    """The H_k flow paired with the system's lowest catalog bracket.

    toda-a / toda-b use the linear bracket (X = pi1 dH_k), volterra-a the
    quadratic one (X = pi2 dH_k); flow(sys, 2) is the basic lattice equation
    in each case.  volterra-b / volterra-c have only that equation,
    `bn_volterra_flow`.
    """
    if sys.name in ("toda-a", "toda-b"):
        return hamiltonian_vf(tensor(sys, 1), hamiltonian(sys, k))
    if sys.name == "volterra-a":
        return hamiltonian_vf(tensor(sys, 2), hamiltonian(sys, k))
    if sys.name == "toda-c":
        raise ValueError(f"no flow cataloged for {sys}: toda-c has no catalog bracket")
    if k != 2:
        raise ValueError(f"{sys} has only its lattice equations, k = 2; got k = {k}")
    return bn_volterra_flow(sys.n)


def bn_volterra_flow(n: int) -> PolyVectorField:
    """The B-type Volterra equations:

    a1' = -a1 a2,  a_i' = a_i(a_{i-1} - a_{i+1}),  a_n' = a_n(a_{n-1} + a_n).

    Equals the restriction of the volterra-a equations to the mirror-odd
    subspace a_{2n+1-i} = -a_i (regression-tested).
    """
    vars_ = variables(SystemId("volterra", "b", n))
    unit = unit_keys(vars_)
    bulk, last = {(A_, A0): 1, (A0, A1): -1}, {(A_, A0): 1, (A0, A0): 1}
    return PolyVectorField(vars_, [local(vars_, unit, last if i == n else bulk, (i,))
                                   for i in range(1, n + 1)])


# ------------------------------------------------------------------ symmetries


# The finite symmetry maps of toda-a:N and volterra-a:N, as name -> (systems
# it acts on, index mirror, a-scale, b-scale): a_i -> a-scale * a_j and
# b_i -> b-scale * b_j, with j = i, or under the index mirror j = N - i for a
# and N + 1 - i for b.  So psi flips the b-signs, phi_toda and phi_volterra
# are order-2 mirrors (phi_toda on either parity of N), and the Gaussian
# phi_tilde has order 4, with phi_tilde^2 = psi.
SYMMETRIES = {
    "psi": ("toda-a", False, 1, -1),
    "phi_toda": ("toda-a", True, 1, -1),
    "phi_volterra": ("volterra-a", True, -1, None),
    "phi_tilde": ("odd-size toda-a", True, -1, I_UNIT),
}


@lru_cache(maxsize=None)
def symmetry(name: str, sys: SystemId) -> LinearMap:
    """The finite symmetry map `name` on sys, read off its SYMMETRIES row.
    Memoised: the result is shared, and callers must not mutate it."""
    if name not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {name!r}")
    acts_on, mirror, *scales = SYMMETRIES[name]
    N, vars_ = sys.n, variables(sys)
    if acts_on not in (sys.name, f"odd-size {sys.name}" if N % 2 else None):
        raise ValueError(f"{name} acts on {acts_on} systems")
    images = {}
    for v in vars_:
        k, i = "ab".index(v[0]), int(v[1:])  # k = 0 for a, 1 for b
        images[v] = (f"{v[0]}{N + k - i if mirror else i}", scales[k])
    return LinearMap(vars_, images)


def symmetry_group(name: str, sys: SystemId) -> FiniteGroupAction:
    """The cyclic group generated by the named symmetry."""
    return FiniteGroupAction(symmetry(name, sys))

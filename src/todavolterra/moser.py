"""Squaring map from B-type Volterra lattices to B/C-type Toda lattices.

In the variables x_i with a_i = -2 x_i^2 the B-type Volterra Lax matrix
becomes the symmetric tridiagonal matrix with superdiagonal
(x_1, ..., x_n, i x_n, ..., i x_1) and zero diagonal.  Its square couples
only positions of equal parity, so deleting every other row and column
leaves two Jacobi-type blocks; reading A_k off the block off-diagonal and
B_k off the diagonal turns the Volterra flow into Toda equations of type
B or C depending on the block size.

Deletion convention: positions are counted 0-based, `odd_deleted` removes
the 0-based-odd rows/columns (keeping the 1st, 3rd, 5th, ... in 1-based
counting).  With this convention the odd-deleted block at N = 9 is the
5x5 matrix with rows (x1^2, x1 x2, 0, 0, 0), (x1 x2, x2^2+x3^2, x3 x4,
0, 0), ... and its induced equations are the B2 Toda system.

The module is exact; the spectral cross-checks of the split (exact power
sums, a float eigensolver, the conjugation to the a-form Lax matrix) live
with their tests in tests/test_moser.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from ._linsolve import solve_exact
from .polyalg import I_UNIT, Poly, poly_matrix_mul, unit_keys
from .poisson import PolyVectorField, directional_action


def x_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def x_lax(N: int) -> list[list[Poly]]:
    """Symmetric Gaussian Lax matrix of size N = 2n+1 (zero diagonal)."""
    if N < 3 or N % 2 == 0:
        raise ValueError("size must be odd and >= 3")
    n = N // 2
    vars_ = x_variables(n)
    zero = Poly.zero(vars_)
    L = [[zero for _ in range(N)] for _ in range(N)]
    for s in range(1, N):
        if s <= n:
            entry = Poly.var(vars_, f"x{s}")
        else:
            entry = Poly.var(vars_, f"x{2 * n + 1 - s}").scale(I_UNIT)
        L[s - 1][s] = entry
        L[s][s - 1] = entry
    return L


def x_flow(n: int) -> PolyVectorField:
    """The B-type Volterra equations in the squared variables a_i = -2 x_i^2:

    x1' = x1 x2^2,  x_i' = x_i (x_{i+1}^2 - x_{i-1}^2),
    x_n' = -x_n (x_n^2 + x_{n-1}^2).

    The middle line is pinned by the chain rule against the a-equations
    a_i' = a_i (a_{i-1} - a_{i+1}) (regression-tested symbolically).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = x_variables(n)
    unit = unit_keys(vars_)
    X_, X0, X1 = ("x", -1), ("x", 0), ("x", 1)
    bulk, last = {(X0, X1, X1): 1, (X_, X_, X0): -1}, {(X0, X0, X0): -1, (X_, X_, X0): -1}
    return PolyVectorField(vars_, [catalog.local(vars_, unit, last if i == n else bulk, (i,))
                                   for i in range(1, n + 1)])


@dataclass(frozen=True)
class JacobiBlock:
    """A principal parity block of the squared Lax matrix."""

    size: int
    kept_indices: tuple[int, ...]  # 1-based positions kept from the ambient matrix
    matrix: tuple[tuple[Poly, ...], ...]
    tag: str  # "B<m>" for odd size 2m+1, "C<m>" for even size 2m

    @property
    def half_rank(self) -> int:
        return self.size // 2

    def diagonal(self) -> list[Poly]:
        return [self.matrix[k][k] for k in range(self.size)]

    def superdiagonal(self) -> list[Poly]:
        return [self.matrix[k][k + 1] for k in range(self.size - 1)]


@dataclass(frozen=True)
class MoserSplit:
    N: int
    squared: tuple[tuple[Poly, ...], ...]
    odd_deleted: JacobiBlock
    even_deleted: JacobiBlock


def _tag(size: int) -> str:
    return f"B{size // 2}" if size % 2 else f"C{size // 2}"


def square_and_split(N: int) -> MoserSplit:
    """Square the x-variable Lax matrix and return both parity blocks.

    The mixed-parity entries of L^2 vanish identically (checked), so the
    square decomposes into the two blocks.  Block of odd size 2m+1 is
    tagged B_m, block of even size 2m is tagged C_m.
    """
    if N < 5:
        raise ValueError("need size >= 5 to split")
    L = x_lax(N)
    M = poly_matrix_mul(L, L)
    for i in range(N):
        for j in range(N):
            if (i - j) % 2 and not M[i][j].is_zero:
                raise AssertionError("squared matrix couples parities")
    blocks = []
    for first in (1, 2):  # odd_deleted keeps the odd 1-based positions, even_deleted the even
        kept = tuple(range(first, N + 1, 2))
        matrix = tuple(tuple(M[i - 1][j - 1] for j in kept) for i in kept)
        block = JacobiBlock(len(kept), kept, matrix, _tag(len(kept)))
        _check_block_structure(block)
        blocks.append(block)
    return MoserSplit(N, tuple(tuple(row) for row in M), *blocks)


def _check_block_structure(block: JacobiBlock) -> None:
    """Mirror structure and realness of the block entries.

    B-type (odd) blocks are fully real with a zero central diagonal entry;
    C-type (even) blocks are real except the single central off-diagonal
    entry, which is purely imaginary (its square is real, so the induced
    equations still close over the A, B generators).
    """
    p = block.size
    m = block.half_rank
    diag = block.diagonal()
    sup = block.superdiagonal()
    for idx, entry in enumerate(diag):
        if not entry.imag_part().is_zero:
            raise AssertionError("diagonal entry is not real")
    for idx, entry in enumerate(sup):
        central = (p % 2 == 0) and idx == m - 1
        if central:
            if not entry.real_part().is_zero:
                raise AssertionError("central C-block entry is not purely imaginary")
        elif not entry.imag_part().is_zero:
            raise AssertionError("off-central block entry is not real")
    if p % 2 == 1 and not diag[m].is_zero:
        raise AssertionError("central diagonal entry of a B-block must vanish")
    for k in range(m):
        if not (diag[k] + diag[p - 1 - k]).is_zero:
            raise AssertionError("diagonal is not mirror-antisymmetric")
    for k in range(m if p % 2 else m - 1):
        if not (sup[k] + sup[p - 2 - k]).is_zero:
            raise AssertionError("off-diagonal is not mirror-antisymmetric")


@dataclass(frozen=True)
class IdentifiedSystem:
    """Toda-variable reading of a block and its induced equations."""

    tag: str
    a_defs: tuple[Poly, ...]  # A_k as polynomials in x
    b_defs: tuple[Poly, ...]  # B_k as polynomials in x
    variables: tuple[str, ...]  # A1..Am, B1..Bm
    equations: tuple[Poly, ...]  # d/dt of each generator, in the A/B variables

    def equation_strings(self) -> list[str]:
        return [
            f"{v}' = {p.canonical_str()}"
            for v, p in zip(self.variables, self.equations)
        ]


def identify_jacobi(block: JacobiBlock, flow: PolyVectorField) -> IdentifiedSystem:
    """Read A_k, B_k off the block, differentiate along the flow, and express
    the derivatives as polynomials in the generators.

    Every derivative is solved for at once, as target = sum(c_m *
    monomial_m(generators)) over the monomials of degree <= 2, in one exact
    solve whose columns are the terms of the basis polynomials.  Raises if
    some derivative is not such a polynomial (which would mean the block
    does not close into a Toda-type system).
    """
    m = block.half_rank
    a_defs = tuple(block.superdiagonal()[:m])
    b_defs = tuple(block.diagonal()[:m])
    names = tuple(f"A{k}" for k in range(1, m + 1)) + tuple(f"B{k}" for k in range(1, m + 1))
    gens = a_defs + b_defs
    targets = [directional_action(flow, g) for g in gens]
    # the basis in a deterministic order: 1, each generator, each product g_k g_l (k <= l);
    # `keys` are its monomials as packed keys over `names`, `expanded` its values in x
    unit = list(unit_keys(names).values())
    keys, expanded = [0, *unit], [Poly.const(gens[0].variables, 1), *gens]
    for k in range(len(gens)):
        for l in range(k, len(gens)):
            keys.append(unit[k] + unit[l])
            expanded.append(gens[k] * gens[l])
    sol = solve_exact([p.packed for p in expanded], [t.packed for t in targets])
    if sol is None:
        raise ValueError("induced equation is not expressible in the block generators")
    by_name = dict(zip(names, gens))
    equations = tuple(Poly._make(names, {key: c for key, c in zip(keys, coeffs) if c})
                      for coeffs in sol[0])
    # double-check by substitution
    if any(eq.substitute(by_name) != t for eq, t in zip(equations, targets)):
        raise ValueError("generator expression failed verification")
    return IdentifiedSystem(block.tag, a_defs, b_defs, names, equations)

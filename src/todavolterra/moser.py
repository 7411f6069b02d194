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


def _block(square, kept: list[int]) -> tuple[tuple[Poly, ...], ...]:
    return tuple(tuple(square[i - 1][j - 1] for j in kept) for i in kept)


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
    keep_for_odd_deleted = [k for k in range(1, N + 1) if k % 2 == 1]
    keep_for_even_deleted = [k for k in range(1, N + 1) if k % 2 == 0]
    odd_block = _block(M, keep_for_odd_deleted)
    even_block = _block(M, keep_for_even_deleted)
    odd = JacobiBlock(
        len(keep_for_odd_deleted), tuple(keep_for_odd_deleted), odd_block,
        _tag(len(keep_for_odd_deleted)),
    )
    even = JacobiBlock(
        len(keep_for_even_deleted), tuple(keep_for_even_deleted), even_block,
        _tag(len(keep_for_even_deleted)),
    )
    _check_block_structure(odd)
    _check_block_structure(even)
    return MoserSplit(N, tuple(tuple(row) for row in M), odd, even)


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

    Raises if some derivative is not a polynomial of degree <= 2 in the
    generators (which would mean the block does not close into a Toda-type
    system).
    """
    m = block.half_rank
    a_defs = tuple(block.superdiagonal()[k] for k in range(m))
    b_defs = tuple(block.diagonal()[k] for k in range(m))
    gen_names = tuple(f"A{k}" for k in range(1, m + 1)) + tuple(
        f"B{k}" for k in range(1, m + 1)
    )
    gens = list(a_defs) + list(b_defs)
    express = _generator_solver(gens, gen_names)
    equations = tuple(express(directional_action(flow, g)) for g in gens)
    return IdentifiedSystem(block.tag, a_defs, b_defs, gen_names, equations)


def _monomial_basis(names: tuple[str, ...]) -> list[tuple[tuple[str, int], ...]]:
    """Monomials of degree <= 2 in the generators, deterministic order."""
    basis: list[tuple[tuple[str, int], ...]] = [()]
    for k, u in enumerate(names):
        basis.append(((u, 1),))
    for k, u in enumerate(names):
        for l in range(k, len(names)):
            v = names[l]
            basis.append(((u, 2),) if u == v else ((u, 1), (v, 1)))
    return basis


def _generator_solver(gens: list[Poly], names: tuple[str, ...]):
    """Return `express(target)`, the exact linear solve of
    target = sum(c_m * monomial_m(generators)) over the degree <= 2 basis.

    The basis, its expansion in the x variables and its term support are
    built once here and shared by every target (the targets share the
    generators' variables).
    """
    by_name = dict(zip(names, gens))
    basis = _monomial_basis(names)
    expanded: list[Poly] = []
    monomials: list[Poly] = []
    for mono in basis:
        p = Poly.const(gens[0].variables, 1)
        q = Poly.const(names, 1)
        for u, e in mono:
            for _ in range(e):
                p = p * by_name[u]
            q = q * Poly.var(names, u) ** e
        expanded.append(p)
        monomials.append(q)
    basis_support = set().union(*(p.packed for p in expanded))

    def express(target: Poly) -> Poly:
        support = sorted(basis_support.union(target.packed))
        rows = [[p.packed.get(e, 0) for p in expanded] for e in support]
        rhs = [target.packed.get(e, 0) for e in support]
        sol = solve_exact(rows, rhs)
        if sol is None:
            raise ValueError(
                "induced equation is not expressible in the block generators"
            )
        coeffs, _ = sol
        out = Poly.zero(names)
        for c, q in zip(coeffs, monomials):
            if c:
                out = out + q.scale(c)
        # double-check by substitution
        if out.substitute(by_name) != target:
            raise ValueError("generator expression failed verification")
        return out

    return express

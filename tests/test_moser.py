import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from todavolterra import catalog, moser, reduction
from todavolterra.polyalg import GaussianRational, Poly
from todavolterra.poisson import PolyVectorField, directional_action

from conftest import evaluate, imag_part, poly_matrix_mul, real_part, substitute

# every --N that `moser` accepts (tests/test_cli.py checks the bounds)
CLI_SIZES = range(5, 42, 2)


def blocks_by_type(N: int) -> dict[str, moser.JacobiBlock]:
    """{"B": the B block, "C": the C block} of L^2 at size N; one of each,
    since the two blocks' sizes are consecutive."""
    split = moser.square_and_split(N)
    return {block.tag[0]: block for block in (split.odd_deleted, split.even_deleted)}


class TestXLax:
    def test_smallest(self):
        L = moser.x_lax(3)
        assert [[str(p) for p in row] for row in L] == [
            ["0", "x1", "0"],
            ["x1", "0", "i*x1"],
            ["0", "i*x1", "0"],
        ]

    def test_nine_superdiagonal(self):
        L = moser.x_lax(9)
        sup = [str(L[i][i + 1]) for i in range(8)]
        assert sup == ["x1", "x2", "x3", "x4", "i*x4", "i*x3", "i*x2", "i*x1"]

    def test_zero_point(self):
        L = moser.x_lax(3)
        assert all(complex(evaluate(p, [0.0])) == 0 for row in L for p in row)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            moser.x_lax(8)


class TestXFlow:
    def test_n1(self):
        f = moser.x_flow(1)
        assert f.components[0].canonical_str() == "-x1^3"

    def test_n2(self):
        f = moser.x_flow(2)
        assert f.variables == ("x1", "x2")
        assert [p.canonical_str() for p in f.components] == ["x1*x2^2", "-x1^2*x2 - x2^3"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_rule_against_a_variables(self, n):
        # d(-2 x_i^2)/dt along the x-flow equals the a-equations at a = -2x^2
        xf = moser.x_flow(n)
        xv = moser.x_variables(n)
        a_flow = catalog.bn_volterra_flow(n)
        x = {i: Poly.var(xv, f"x{i}") for i in range(1, n + 1)}
        sub = {f"a{i}": (x[i] * x[i]).scale(-2) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            lhs = Poly.var(xv, f"x{i}").scale(-4) * xf.component(f"x{i}")
            rhs = substitute(a_flow.component(f"a{i}"), sub)
            assert lhs == rhs


class TestSquareAndSplit:
    @pytest.mark.parametrize(
        "N,sizes,tags",
        [
            (5, (3, 2), ("B1", "C1")),
            (7, (4, 3), ("C2", "B1")),
            (9, (5, 4), ("B2", "C2")),
            (11, (6, 5), ("C3", "B2")),
            (13, (7, 6), ("B3", "C3")),
        ],
    )
    def test_sizes_and_tags(self, N, sizes, tags):
        split = moser.square_and_split(N)
        assert (split.odd_deleted.size, split.even_deleted.size) == sizes
        assert (split.odd_deleted.tag, split.even_deleted.tag) == tags

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_band_rule_matches_the_dense_product(self, N):
        # `square_and_split` writes the zeros of L^2 by its band rule, so
        # this comparison with the dense product L L is what gives the
        # parity and block tests below their meaning
        L = moser.x_lax(N)
        assert [list(row) for row in moser.square_and_split(N).squared] == poly_matrix_mul(L, L)

    @pytest.mark.parametrize("N", [5, 41])
    def test_a_square_without_the_left_term_fails(self, N):
        # negative control: drop s_{p-1}^2 from each diagonal entry (p, p)
        L = moser.x_lax(N)
        M = [list(row) for row in moser.square_and_split(N).squared]
        for p in range(1, N):
            M[p][p] = M[p][p] - L[p - 1][p] * L[p - 1][p]
        dense = poly_matrix_mul(L, L)
        assert [p for p in range(N) if M[p][p] != dense[p][p]] == list(range(1, N))

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_parity_blocks_vanish(self, N):
        # the mixed-parity entries of L^2 are identically zero
        M = moser.square_and_split(N).squared
        assert [(i, j) for i in range(N) for j in range(N)
                if (i - j) % 2 and not M[i][j].is_zero] == []

    def test_nine_site_block_matrix(self):
        split = moser.square_and_split(9)
        got = [[str(p) for p in row] for row in split.odd_deleted.matrix]
        assert got == [
            ["x1^2", "x1*x2", "0", "0", "0"],
            ["x1*x2", "x2^2 + x3^2", "x3*x4", "0", "0"],
            ["0", "x3*x4", "0", "-x3*x4", "0"],
            ["0", "0", "-x3*x4", "-x2^2 - x3^2", "-x1*x2"],
            ["0", "0", "0", "-x1*x2", "-x1^2"],
        ]

    def test_zero_x_gives_zero_blocks(self):
        split = moser.square_and_split(9)
        zeros = [0.0] * 4
        for block in (split.odd_deleted, split.even_deleted):
            assert all(complex(evaluate(p, zeros)) == 0 for row in block.matrix for p in row)

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            moser.square_and_split(3)

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_b_block_entries_real(self, N):
        block = blocks_by_type(N)["B"]
        assert [(i, j) for i, row in enumerate(block.matrix) for j, p in enumerate(row)
                if not imag_part(p).is_zero] == []

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_c_block_central_entry_imaginary(self, N):
        # a C block is real but for its central off-diagonal pair, which is
        # purely imaginary and nonzero
        block = blocks_by_type(N)["C"]
        m = block.half_rank
        for i, row in enumerate(block.matrix):
            for j, p in enumerate(row):
                if {i, j} == {m - 1, m}:
                    assert real_part(p).is_zero and not p.is_zero, (i, j)
                else:
                    assert imag_part(p).is_zero, (i, j)

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_b_block_central_diagonal_entry_zero(self, N):
        block = blocks_by_type(N)["B"]
        assert block.diagonal()[block.half_rank].is_zero

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_mirror_antisymmetry(self, N):
        # entry k and entry -1-k of the diagonal, and of the off-diagonal,
        # sum to zero; a middle entry is checked by one of the two tests above
        for tag, block in blocks_by_type(N).items():
            for line in (block.diagonal(), block.superdiagonal()):
                assert [k for k in range(len(line) // 2)
                        if not (line[k] + line[-1 - k]).is_zero] == [], tag


class TestIdentifyJacobi:
    def test_nine_site_b2_system(self):
        split = moser.square_and_split(9)
        ident = moser.identify_jacobi(split.odd_deleted, moser.x_flow(4))
        assert ident.equation_strings() == [
            "A1' = -A1*B1 + A1*B2",
            "A2' = -A2*B2",
            "B1' = 2*A1^2",
            "B2' = -2*A1^2 + 2*A2^2",
        ]
        assert [str(p) for p in ident.a_defs] == ["x1*x2", "x3*x4"]
        assert [str(p) for p in ident.b_defs] == ["x1^2", "x2^2 + x3^2"]

    def test_inexpressible_flow_rejected(self):
        # x_i' = x_i^2 makes every derivative odd in x; the generators and
        # their products are even, so the exact solve is inconsistent
        vs = moser.x_variables(4)
        flow = PolyVectorField(vs, [Poly.var(vs, v) * Poly.var(vs, v) for v in vs])
        block = moser.square_and_split(9).odd_deleted
        with pytest.raises(ValueError, match="not expressible"):
            moser.identify_jacobi(block, flow)

    def test_one_inexpressible_derivative_among_expressible_ones_rejected(self):
        # x4^2 added to x4' reaches only A2 = x3*x4, whose derivative gains the
        # odd term x3*x4^2; A1, B1 and B2 stay expressible, the joint solve
        # must still fail
        vs = moser.x_variables(4)
        base = moser.x_flow(4)
        comps = list(base.components)
        comps[3] = comps[3] + Poly.var(vs, "x4") * Poly.var(vs, "x4")
        block = moser.square_and_split(9).odd_deleted
        moser.identify_jacobi(block, base)
        with pytest.raises(ValueError, match="not expressible"):
            moser.identify_jacobi(block, PolyVectorField(vs, comps))

    @pytest.mark.parametrize("N", CLI_SIZES)
    def test_expressibility(self, N):
        # one equation per generator read off the block; each, with the
        # generators substituted, is the generator's derivative along the flow
        flow = moser.x_flow(N // 2)
        for tag, block in blocks_by_type(N).items():
            ident = moser.identify_jacobi(block, flow)
            m = block.half_rank
            gens = ident.a_defs + ident.b_defs
            assert gens == (*block.superdiagonal()[:m], *block.diagonal()[:m]), tag
            assert len(ident.equations) == 2 * m
            by_name = dict(zip(ident.variables, gens))
            for name, eq, g in zip(ident.variables, ident.equations, gens):
                assert substitute(eq, by_name) == directional_action(flow, g), (tag, name)

    @pytest.mark.parametrize("N", [5, 7, 9, 11, 13, 15, 17, 19, 21])
    def test_b_blocks_match_toda_b_flow(self, N):
        """Induced equations = catalog B-type flow under a = A^2, b = B, t -> -t/2."""
        split = moser.square_and_split(N)
        flow = moser.x_flow(N // 2)
        for block in (split.odd_deleted, split.even_deleted):
            if not block.tag.startswith("B"):
                continue
            m = block.half_rank
            ident = moser.identify_jacobi(block, flow)
            sys_b = catalog.SystemId("toda", "b", m)
            toda = catalog.flow(sys_b, 2)
            gen_vars = ident.variables
            sub = {
                f"a{i}": Poly.var(gen_vars, f"A{i}") * Poly.var(gen_vars, f"A{i}")
                for i in range(1, m + 1)
            }
            sub.update(
                {f"b{i}": Poly.var(gen_vars, f"B{i}") for i in range(1, m + 1)}
            )
            for i in range(1, m + 1):
                # 2 A_i A_i' = -2 * (a_i' of the catalog flow)
                lhs = Poly.var(gen_vars, f"A{i}").scale(2) * ident.equations[i - 1]
                rhs = substitute(toda.component(f"a{i}"), sub).scale(-2)
                assert lhs == rhs, (N, block.tag, f"a{i}")
                lhs_b = ident.equations[m + i - 1]
                rhs_b = substitute(toda.component(f"b{i}"), sub).scale(-2)
                assert lhs_b == rhs_b, (N, block.tag, f"b{i}")

    @pytest.mark.parametrize("N", [5, 7, 9, 11, 13, 15, 17, 19, 21])
    def test_c_blocks_match_reduced_even_chain_flow(self, N):
        """C-blocks induce the flow of the mirror-reduced even-size chain."""
        split = moser.square_and_split(N)
        flow = moser.x_flow(N // 2)
        for block in (split.odd_deleted, split.even_deleted):
            if not block.tag.startswith("C"):
                continue
            m = block.half_rank
            ident = moser.identify_jacobi(block, flow)
            # expected: restriction of the size-2m chain flow to the mirror
            # fixed-point set (the C-type lattice): a_m' = 2 a_m b_m etc.
            sys_a = catalog.SystemId("toda", "a", 2 * m)
            chain = catalog.flow(sys_a, 2)
            group = catalog.symmetry_group("phi_toda", sys_a)
            chart = reduction.fixed_point_chart(group)
            gen_vars = ident.variables
            sub = {
                f"a{i}": Poly.var(gen_vars, f"A{i}") * Poly.var(gen_vars, f"A{i}")
                for i in range(1, m + 1)
            }
            sub.update(
                {f"b{i}": Poly.var(gen_vars, f"B{i}") for i in range(1, m + 1)}
            )
            for i in range(1, m + 1):
                lhs = Poly.var(gen_vars, f"A{i}").scale(2) * ident.equations[i - 1]
                rhs = substitute(chart.restrict(chain.component(f"a{i}")), sub).scale(-2)
                assert lhs == rhs, (N, block.tag, f"a{i}")
                lhs_b = ident.equations[m + i - 1]
                rhs_b = substitute(chart.restrict(chain.component(f"b{i}")), sub).scale(-2)
                assert lhs_b == rhs_b, (N, block.tag, f"b{i}")


# ------------------------------------------------------------- cross-checks


def _power_sums(mat: list[list[GaussianRational]], k_max: int) -> list[GaussianRational]:
    """tr(M^j) for j = 1..k_max, exactly; each product visits only the
    nonzero entries of M (the matrices here are banded)."""
    N = len(mat)
    zero = GaussianRational.of(0)
    cols = [[(k, mat[k][l]) for k in range(N) if mat[k][l]] for l in range(N)]
    sums, power = [], mat
    for j in range(k_max):
        if j:
            power = [[sum((row[k] * m for k, m in col), zero) for col in cols] for row in power]
        sums.append(sum((power[i][i] for i in range(N)), zero))
    return sums


def block_spectrum_consistency(N: int, point: list[Fraction]) -> bool:
    """Exact check that both blocks carry the full spectrum of L^2.

    At a rational point, the power sums tr(L^{2j}), j = 1..N, equal the sums
    of the two blocks' power sums tr(B^j) (the square is the direct sum of
    the two parity blocks).  In characteristic 0 Newton's identities make
    this the same claim as char(L^2) = char(odd block) * char(even block),
    without expanding either polynomial; no floating tolerance involved.
    """
    split = moser.square_and_split(N)
    n = N // 2
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    pt = [Fraction(x) for x in point]

    def eval_matrix(rows):
        return [[GaussianRational.of(0) + evaluate(p, pt) for p in row] for row in rows]

    odd = _power_sums(eval_matrix(split.odd_deleted.matrix), N)
    even = _power_sums(eval_matrix(split.even_deleted.matrix), N)
    return _power_sums(eval_matrix(split.squared), N) == [a + b for a, b in zip(odd, even)]


def lax_eigen_consistency(N: int, rng: np.random.Generator) -> float:
    """Float spot check: sorted union of block eigenvalues vs spectrum of L^2.

    The exact statement is block_spectrum_consistency; this measures how well
    a plain eigensolver reproduces it (limited by clustered-eigenvalue
    conditioning of the complex-symmetric matrices).
    """
    split = moser.square_and_split(N)
    n = N // 2
    x = rng.uniform(0.2, 1.0, size=n)
    L = np.array(
        [[complex(evaluate(p, list(x))) for p in row] for row in moser.x_lax(N)], dtype=complex
    )
    sq_eigs = np.sort_complex(np.linalg.eigvals(L @ L))
    block_eigs = []
    for block in (split.odd_deleted, split.even_deleted):
        B = np.array(
            [[complex(evaluate(p, list(x))) for p in row] for row in block.matrix],
            dtype=complex,
        )
        block_eigs.extend(np.linalg.eigvals(B))
    return float(np.max(np.abs(np.sort_complex(np.array(block_eigs)) - sq_eigs)))


def squared_variable_conjugation(N: int, rng: np.random.Generator) -> float:
    """Numeric check of the recorded relation between the two Lax forms.

    With a_i = -2 x_i^2 the a-form Lax matrix L_a and the x-form matrix L_x
    satisfy L_x = c D L_a D^{-1} with the recorded scalar c = sqrt(-1/2)
    and a diagonal D built from the superdiagonal ratios; equivalently
    spec(L_x^2) = -1/2 spec(L_a^2).  Returns the max spectral mismatch.
    """
    n = N // 2
    x = rng.uniform(0.2, 1.0, size=n)
    a = [-2.0 * xi**2 for xi in x]
    La_sym = catalog.lax(catalog.SystemId("volterra", "b", n))
    La = np.array(
        [[complex(evaluate(p, list(a))) for p in row] for row in La_sym], dtype=complex
    )
    Lx = np.array(
        [[complex(evaluate(p, list(x))) for p in row] for row in moser.x_lax(N)], dtype=complex
    )
    lhs = np.sort_complex(np.linalg.eigvals(Lx @ Lx))
    rhs = np.sort_complex(-0.5 * np.linalg.eigvals(La @ La))
    return float(np.max(np.abs(lhs - rhs)))


class TestSpectralChecks:
    def test_block_spectra_exact(self):
        # char(L^2) = char(odd block) * char(even block), exactly
        from fractions import Fraction

        import random

        r = random.Random(5)
        for N in (5, 7, 9, 11, 13):
            point = [Fraction(r.randint(1, 9), r.randint(1, 5)) for _ in range(N // 2)]
            assert block_spectrum_consistency(N, point)

    def test_block_spectra_perturbed_block_fails(self, monkeypatch):
        # one off-diagonal entry of the odd block moved by 1: tr(B) is
        # unchanged, tr(B^2) is not
        real = moser.square_and_split

        def perturbed(N):
            split = real(N)
            rows = [list(row) for row in split.odd_deleted.matrix]
            entry = rows[0][1]
            rows[0][1] = entry + Poly.const(entry.variables, 1)
            block = dataclasses.replace(split.odd_deleted, matrix=tuple(map(tuple, rows)))
            return dataclasses.replace(split, odd_deleted=block)

        point = [Fraction(1, 2), Fraction(2, 3), Fraction(3)]
        assert block_spectrum_consistency(7, point)
        monkeypatch.setattr(moser, "square_and_split", perturbed)
        assert not block_spectrum_consistency(7, point)

    def test_eigenvalue_subset_float(self):
        # eigensolver reproduction of the exact containment; accuracy is
        # limited by clustered-eigenvalue conditioning, hence the loose bound
        rng = np.random.default_rng(11)
        for N in (5, 7, 9, 11, 13):
            assert lax_eigen_consistency(N, rng) < 1e-7

    def test_conjugation_to_a_form(self):
        # spec(L_x^2) = -1/2 spec(L_a^2) with a = -2 x^2 (recorded scalar -1/2)
        rng = np.random.default_rng(12)
        for N in (5, 9, 13):
            assert squared_variable_conjugation(N, rng) < 1e-10

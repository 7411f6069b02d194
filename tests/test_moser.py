import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from todavolterra import catalog, moser, reduction
from todavolterra.polyalg import Poly
from todavolterra.poisson import PolyVectorField


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
        assert all(complex(p.eval([0.0])) == 0 for row in L for p in row)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            moser.x_lax(8)


class TestXFlow:
    def test_n1(self):
        f = moser.x_flow(1)
        assert f.components[0] == Poly.parse("-x1^3", ("x1",))

    def test_n2(self):
        f = moser.x_flow(2)
        vs = ("x1", "x2")
        assert f == PolyVectorField(
            vs, [Poly.parse("x1*x2^2", vs), Poly.parse("-x1^2*x2 - x2^3", vs)]
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_rule_against_a_variables(self, n):
        # d(-2 x_i^2)/dt along the x-flow equals the a-equations at a = -2x^2
        xf = moser.x_flow(n)
        xv = moser.x_variables(n)
        a_flow = catalog.bn_volterra_flow(n)
        sub = {f"a{i}": Poly.var(xv, f"x{i}") ** 2 * (-2) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            lhs = Poly.var(xv, f"x{i}").scale(-4) * xf.component(f"x{i}")
            rhs = a_flow.component(f"a{i}").substitute(sub)
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

    def test_parity_blocks_vanish(self):
        # the mixed-parity entries of L^2 are identically zero
        split = moser.square_and_split(11)
        for i in range(11):
            for j in range(11):
                if (i - j) % 2:
                    assert split.squared[i][j].is_zero

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
            assert all(complex(p.eval(zeros)) == 0 for row in block.matrix for p in row)

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            moser.square_and_split(3)

    def test_b_block_entries_real(self):
        for N in (5, 7, 9, 11, 13):
            split = moser.square_and_split(N)
            for block in (split.odd_deleted, split.even_deleted):
                if block.tag.startswith("B"):
                    for row in block.matrix:
                        for p in row:
                            assert p.imag_part().is_zero

    def test_c_block_central_entry_imaginary(self):
        split = moser.square_and_split(9)
        block = split.even_deleted
        assert block.tag == "C2"
        central = block.superdiagonal()[block.half_rank - 1]
        assert central.real_part().is_zero and not central.is_zero


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
        flow = PolyVectorField(vs, [Poly.var(vs, v) ** 2 for v in vs])
        block = moser.square_and_split(9).odd_deleted
        with pytest.raises(ValueError, match="not expressible"):
            moser.identify_jacobi(block, flow)

    @pytest.mark.parametrize("N", [5, 7, 9, 11, 13, 15, 17, 19, 21])
    def test_expressibility(self, N):
        split = moser.square_and_split(N)
        flow = moser.x_flow(N // 2)
        for block in (split.odd_deleted, split.even_deleted):
            ident = moser.identify_jacobi(block, flow)
            assert len(ident.equations) == 2 * block.half_rank

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
                f"a{i}": Poly.var(gen_vars, f"A{i}") ** 2 for i in range(1, m + 1)
            }
            sub.update(
                {f"b{i}": Poly.var(gen_vars, f"B{i}") for i in range(1, m + 1)}
            )
            for i in range(1, m + 1):
                # 2 A_i A_i' = -2 * (a_i' of the catalog flow)
                lhs = Poly.var(gen_vars, f"A{i}", "Qi").scale(2) * ident.equations[i - 1]
                rhs = toda.component(f"a{i}").substitute(sub).scale(-2).to_gaussian()
                assert lhs == rhs, (N, block.tag, f"a{i}")
                lhs_b = ident.equations[m + i - 1]
                rhs_b = toda.component(f"b{i}").substitute(sub).scale(-2).to_gaussian()
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
            group = reduction.FiniteGroupAction(
                catalog.symmetry_group("phi_toda", sys_a)
            )
            chart = reduction.fixed_point_chart(group)
            gen_vars = ident.variables
            sub = {
                f"a{i}": Poly.var(gen_vars, f"A{i}") ** 2 for i in range(1, m + 1)
            }
            sub.update(
                {f"b{i}": Poly.var(gen_vars, f"B{i}") for i in range(1, m + 1)}
            )
            for i in range(1, m + 1):
                lhs = Poly.var(gen_vars, f"A{i}", "Qi").scale(2) * ident.equations[i - 1]
                rhs = (
                    chart.restrict(chain.component(f"a{i}"))
                    .substitute(sub)
                    .scale(-2)
                    .to_gaussian()
                )
                assert lhs == rhs, (N, block.tag, f"a{i}")
                lhs_b = ident.equations[m + i - 1]
                rhs_b = (
                    chart.restrict(chain.component(f"b{i}"))
                    .substitute(sub)
                    .scale(-2)
                    .to_gaussian()
                )
                assert lhs_b == rhs_b, (N, block.tag, f"b{i}")


class TestSpectralChecks:
    def test_block_spectra_exact(self):
        # char(L^2) = char(odd block) * char(even block), exactly
        from fractions import Fraction

        import random

        r = random.Random(5)
        for N in (5, 7, 9, 11, 13):
            point = [Fraction(r.randint(1, 9), r.randint(1, 5)) for _ in range(N // 2)]
            assert moser.block_spectrum_consistency(N, point)

    def test_block_spectra_perturbed_block_fails(self, monkeypatch):
        # one off-diagonal entry of the odd block moved by 1: tr(B) is
        # unchanged, tr(B^2) is not
        real = moser.square_and_split

        def perturbed(N):
            split = real(N)
            rows = [list(row) for row in split.odd_deleted.matrix]
            entry = rows[0][1]
            rows[0][1] = entry + Poly.const(entry.variables, 1, entry.field)
            block = dataclasses.replace(split.odd_deleted, matrix=tuple(map(tuple, rows)))
            return dataclasses.replace(split, odd_deleted=block)

        point = [Fraction(1, 2), Fraction(2, 3), Fraction(3)]
        assert moser.block_spectrum_consistency(7, point)
        monkeypatch.setattr(moser, "square_and_split", perturbed)
        assert not moser.block_spectrum_consistency(7, point)

    def test_eigenvalue_subset_float(self):
        # eigensolver reproduction of the exact containment; accuracy is
        # limited by clustered-eigenvalue conditioning, hence the loose bound
        rng = np.random.default_rng(11)
        for N in (5, 7, 9, 11, 13):
            assert moser.lax_eigen_consistency(N, rng) < 1e-7

    def test_conjugation_to_a_form(self):
        # spec(L_x^2) = -1/2 spec(L_a^2) with a = -2 x^2 (recorded scalar -1/2)
        rng = np.random.default_rng(12)
        for N in (5, 9, 13):
            assert moser.squared_variable_conjugation(N, rng) < 1e-10

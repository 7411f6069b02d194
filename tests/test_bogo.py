from fractions import Fraction
from typing import Sequence

import pytest

from todavolterra import bogo, catalog
from todavolterra.polyalg import divide

from conftest import chain_rule_identity_holds, evaluate


def b_system_eval(bsys: bogo.BSystem, point: Sequence[float]) -> list[float]:
    """The B-system's right-hand sides b_i' at a float point."""
    if len(point) != bsys.rank:
        raise ValueError("point dimension mismatch")
    if any(x == 0 for x in point):
        raise ZeroDivisionError("B-system is undefined where some b_j = 0")
    return [
        float(sum(float(c) / point[j - 1] for j, c in row.items()))
        for row in bsys.coeffs
    ]


def x_transform(
    rd: bogo.RootData, b_point: Sequence
) -> dict[tuple[int, int], int | Fraction | float]:
    """x_ij = c_ij / (b_i b_j) for all i, j (antisymmetric by construction).

    An exact point (every b_j an int or Fraction) gives exact values in
    normal form (`polyalg.divide`); any other point gives floats.
    """
    if len(b_point) != rd.rank:
        raise ValueError("point dimension mismatch")
    if any(x == 0 for x in b_point):
        raise ZeroDivisionError("x-variables are undefined where some b_j = 0")
    exact = all(isinstance(x, (int, Fraction)) for x in b_point)
    c = bogo.sign_matrix(rd)
    out = {}
    for i in range(rd.rank):
        for j in range(rd.rank):
            if c[i][j]:
                den = b_point[i] * b_point[j]
                out[(i + 1, j + 1)] = divide(c[i][j], den) if exact else c[i][j] / den
    return out


def integer_relation(rd: bogo.RootData) -> list[int]:
    """omega0 + k_1 w_1 + ... + k_n w_n, coordinate by coordinate over the
    union of the coordinates the roots use."""
    coords = sorted(set().union(rd.omega0, *rd.simple_roots))
    return [rd.omega0.get(c, 0) + sum(k * w.get(c, 0) for k, w in zip(rd.marks, rd.simple_roots))
            for c in coords]


def signed_sum_lines(bsys: bogo.BSystem) -> list[str]:
    """The B-system's lines, formatted term by term: the oracle for
    `BSystem.equation_strings`, which prints through `Poly.canonical_str`."""
    out = []
    for i, row in enumerate(bsys.coeffs, start=1):
        if not row:
            out.append(f"b{i}' = 0")
            continue
        parts = []
        for j in sorted(row):
            c = row[j]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            coef = "" if mag == 1 else f"{mag}*"
            parts.append((sign, f"{coef}1/b{j}"))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        out.append(f"b{i}' = {text}")
    return out


def marks_are_positive_ints(rd: bogo.RootData) -> bool:
    return all(type(k) is int and k > 0 for k in rd.marks)


# every (type, rank) that `bogo --type T --rank n` accepts
CLI_RANKS = [(t, n) for t in "ABCD" for n in range(3 if t == "D" else 1, 65)]


class TestRootData:
    def test_a_marks_all_one(self):
        for n in (1, 2, 3, 4):
            assert bogo.root_data("A", n).marks == (1,) * n

    def test_rank_one(self):
        rd = bogo.root_data("A", 1)
        assert rd.marks == (1,)
        assert rd.simple_roots == ({0: 1, 1: -1},)
        assert rd.omega0 == {c: -x for c, x in rd.simple_roots[0].items()}

    def test_b2_marks(self):
        assert bogo.root_data("B", 2).marks == (1, 2)

    def test_c_and_d_marks(self):
        assert bogo.root_data("C", 2).marks == (2, 1)
        assert bogo.root_data("C", 4).marks == (2, 2, 2, 1)
        assert bogo.root_data("D", 4).marks == (1, 2, 1, 1)

    def test_mark_relation_exact(self):
        # `root_data` keeps the solver's marks unchecked: the relation and the
        # marks' type are tested here, at every rank the CLI accepts
        for t, n in CLI_RANKS:
            rd = bogo.root_data(t, n)
            assert not any(integer_relation(rd)), (t, n)
            assert marks_are_positive_ints(rd), (t, n)

    def test_roots_hold_only_nonzero_coordinates(self):
        for t in "ABCD":
            for n in range(3 if t == "D" else 1, 13):
                rd = bogo.root_data(t, n)
                for v in (*rd.simple_roots, rd.omega0):
                    assert v and all(type(x) is int and x for x in v.values())

    def test_wrong_mark_fails_the_integer_relation(self, monkeypatch):
        # negative control: `root_data` keeps whatever marks the solver
        # returns, so a mark off by one must be caught by `integer_relation`,
        # and one that is zero or not an int by `marks_are_positive_ints`
        solve = bogo.solve_exact
        bends = {"off by one": lambda k: k + 1, "zero": lambda k: 0,
                 "half": lambda k: Fraction(1, 2)}

        for name, bend in bends.items():
            def bent(columns, rhs, bend=bend):
                ((marks,), unique) = solve(columns, rhs)
                return [[bend(marks[0]), *marks[1:]]], unique

            monkeypatch.setattr(bogo, "solve_exact", bent)
            for t, n in (("A", 3), ("B", 4), ("C", 2), ("D", 5)):
                rd = bogo.root_data(t, n)
                assert any(integer_relation(rd)), (name, t, n)
                assert marks_are_positive_ints(rd) == (name == "off by one"), (name, t, n)

    def test_d_needs_rank_3(self):
        with pytest.raises(ValueError):
            bogo.root_data("D", 2)

    @pytest.mark.parametrize("type_", "ABCD")
    def test_edges_are_the_nonzero_gram_entries(self, type_):
        # the Dynkin edges, found by dotting only roots that share a
        # coordinate, are the nonzero off-diagonal entries of the full Gram
        for n in range(3 if type_ == "D" else 1, 13):
            rd = bogo.root_data(type_, n)
            dim = n + 1 if type_ == "A" else n
            roots = [[u.get(c, 0) for c in range(dim)] for u in rd.simple_roots]
            gram = [[sum(a * b for a, b in zip(u, v)) for v in roots] for u in roots]
            assert rd.dynkin_edges == tuple(
                (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if gram[i][j])
            assert len(rd.dynkin_edges) == n - 1  # every diagram here is a tree


class TestSignMatrix:
    def test_a2(self):
        assert bogo.sign_matrix(bogo.root_data("A", 2)) == [[0, 1], [-1, 0]]

    def test_rank_one_zero(self):
        assert bogo.sign_matrix(bogo.root_data("A", 1)) == [[0]]

    def test_b3_edges(self):
        assert bogo.edges(bogo.root_data("B", 3)) == [(1, 2), (2, 3)]

    def test_d4_fork(self):
        assert bogo.edges(bogo.root_data("D", 4)) == [(1, 2), (2, 3), (2, 4)]


class TestBSystem:
    def test_strings_match_the_signed_sum_formatter(self):
        for t, n in CLI_RANKS:
            bsys = bogo.b_system_rhs(bogo.root_data(t, n))
            assert bsys.equation_strings() == signed_sum_lines(bsys), (t, n)

    def test_a2(self):
        bsys = bogo.b_system_rhs(bogo.root_data("A", 2))
        assert bsys.coeffs == ({2: Fraction(-1)}, {1: Fraction(1)})

    def test_rank_one_static(self):
        bsys = bogo.b_system_rhs(bogo.root_data("A", 1))
        assert bsys.coeffs == ({},)
        assert b_system_eval(bsys, [2.0]) == [0.0]

    def test_b2(self):
        bsys = bogo.b_system_rhs(bogo.root_data("B", 2))
        assert bsys.coeffs == ({2: Fraction(-2)}, {1: Fraction(1)})
        assert b_system_eval(bsys, [1.0, 2.0]) == [-1.0, 1.0]

    def test_zero_point_rejected(self):
        bsys = bogo.b_system_rhs(bogo.root_data("B", 2))
        with pytest.raises(ZeroDivisionError):
            b_system_eval(bsys, [1.0, 0.0])


class TestXSystem:
    def test_transform_antisymmetric(self):
        rd = bogo.root_data("B", 3)
        xs = x_transform(rd, [1.0, 2.0, 0.5])
        for (i, j), v in xs.items():
            assert xs[(j, i)] == -v

    def test_transform_exact_input_stays_exact(self):
        rd = bogo.root_data("A", 3)
        xs = x_transform(rd, [1, 2, 3])
        assert xs == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2),
                      (2, 3): Fraction(1, 6), (3, 2): Fraction(-1, 6)}
        assert all(type(v) is Fraction for v in xs.values())
        # b_i b_j = +-1 everywhere: integral values are ints, not Fraction(1)
        xs = x_transform(rd, [Fraction(1, 2), 2, Fraction(-1, 2)])
        assert xs == {(1, 2): 1, (2, 1): -1, (2, 3): -1, (3, 2): 1}
        assert all(type(v) is int for v in xs.values())

    def test_transform_float_input_divides_as_floats(self):
        xs = x_transform(bogo.root_data("A", 3), [1.0, 2.0, 3.0])
        assert xs == {(1, 2): 1 / 2.0, (2, 1): -1 / 2.0, (2, 3): 1 / 6.0, (3, 2): -1 / 6.0}
        assert all(type(v) is float for v in xs.values())

    def test_transform_rejects_zero(self):
        rd = bogo.root_data("A", 2)
        with pytest.raises(ZeroDivisionError):
            x_transform(rd, [0.0, 1.0])

    @pytest.mark.parametrize(
        "type_,ranks",
        [("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4))],
    )
    def test_chain_rule_identity(self, type_, ranks):
        for n in ranks:
            assert chain_rule_identity_holds(bogo.root_data(type_, n))

    def test_numeric_chain_rule(self):
        # d/dt x_ij along the B-system equals the X-system value, numerically
        rd = bogo.root_data("B", 3)
        b = [0.7, 1.3, 0.4]
        db = b_system_eval(bogo.b_system_rhs(rd), b)
        xs = x_transform(rd, b)
        field = bogo.x_system_rhs(rd)
        point = [xs[e] for e in bogo.edges(rd)]
        for k, (i, j) in enumerate(bogo.edges(rd)):
            # x_ij = c_ij / (b_i b_j)
            c = bogo.sign_matrix(rd)[i - 1][j - 1]
            dx = -c * (db[i - 1] * b[j - 1] + b[i - 1] * db[j - 1]) / (
                b[i - 1] * b[j - 1]
            ) ** 2
            rhs = float(evaluate(field.components[k], point))
            assert dx == pytest.approx(rhs, rel=1e-12)


class TestVolterraForm:
    def test_a_gives_km(self):
        for rank in (2, 3, 4):
            rd = bogo.root_data("A", rank)
            f = bogo.transformed_x_system(bogo.x_system_rhs(rd), bogo.volterra_form(rd))
            km = catalog.flow(catalog.SystemId("volterra", "a", rank), 2)
            assert f == km

    def test_b_gives_b_type_volterra(self):
        for rank in (2, 3, 4):
            rd = bogo.root_data("B", rank)
            f = bogo.transformed_x_system(bogo.x_system_rhs(rd), bogo.volterra_form(rd))
            assert f == catalog.bn_volterra_flow(rank - 1)

    def test_c_gives_b_type_volterra(self):
        for rank in (2, 3, 4):
            rd = bogo.root_data("C", rank)
            f = bogo.transformed_x_system(bogo.x_system_rhs(rd), bogo.volterra_form(rd))
            assert f == catalog.bn_volterra_flow(rank - 1)

    def test_d_has_no_chain_form(self):
        assert bogo.volterra_form(bogo.root_data("D", 4)) is None

    def test_recorded_substitution_shape(self):
        # the change of variables is a diagonal scaling of edge variables
        rd = bogo.root_data("B", 3)
        target, sub = bogo.volterra_form(rd)
        assert target == ("a1", "a2")
        assert sub["a2"] == ("x12", 1)
        assert sub["a1"] == ("x23", 2)

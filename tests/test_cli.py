import json
import math

import pytest

from todavolterra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_jacobi_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "jacobi", "--system", "toda-a:4", "--bracket", "3")
        assert code == 0
        assert "ok: True" in out

    def test_involution_antisymmetric_map_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "involution", "--map", "psi", "--system", "toda-a:3", "--bracket", "1",
        )
        assert code == 1
        assert "sign: -1" in out

    def test_involution_poisson_map_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "involution", "--map", "psi", "--system", "toda-a:3", "--bracket", "2",
        )
        assert code == 0

    def test_deformation(self, capsys):
        code, out, _ = run(
            capsys, "verify", "deformation", "--system", "toda-a:3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["schema"] == "todavolterra/verify/v1"

    def test_deformation_reports_canonical_system(self, capsys):
        code, out, _ = run(
            capsys, "verify", "deformation", "--system", "TODA-A:3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["system"] == "toda-a:3"

    def test_ladder(self, capsys):
        code, _, _ = run(capsys, "verify", "ladder", "--system", "volterra-a:6")
        assert code == 0

    def test_reduction(self, capsys):
        code, out, _ = run(
            capsys, "verify", "reduction", "--which", "phi-tilde", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["ok"]

    def test_all(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-rank", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and len(doc["results"]) > 20

    def test_usage_error(self, capsys):
        assert main(["verify", "jacobi", "--system", "nonsense", "--bracket", "1"]) == 2

    def test_unsupported_bracket_is_input_error(self, capsys):
        code, _, _ = run(capsys, "verify", "jacobi", "--system", "toda-b:2", "--bracket", "2")
        assert code == 2


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "verify", "all", "--max-rank", "2", "--format", "json")
        _, out2, _ = run(capsys, "verify", "all", "--max-rank", "2", "--format", "json")
        assert out1 == out2

    def test_simulate_deterministic(self, capsys):
        args = ("simulate", "--system", "toda-a:3", "--t-end", "0.5", "--h", "0.001",
                "--seed", "3", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestReduce:
    def test_reduce_emits_tensor(self, capsys):
        code, out, _ = run(
            capsys,
            "reduce", "--system", "toda-a:5", "--map", "phi_toda", "--bracket", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_poisson"] is True
        assert doc["reduced"]["dim"] == 4


class TestSimulate:
    def test_csv_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TODAVOLTERRA_OUT_DIR", str(tmp_path))
        code, out, _ = run(
            capsys,
            "simulate", "--system", "toda-a:2", "--t-end", "0.2", "--h", "0.01",
            "--decimate", "10", "--out", "run.csv",
        )
        assert code == 0
        text = (tmp_path / "run.csv").read_text()
        assert text.splitlines()[0] == "t,a1,b1,b2,H1,H2,c1_drift,c2_drift"

    def test_x0_file(self, capsys, tmp_path):
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": [0.5], "b": [0.1, -0.1]}))
        code, out, _ = run(
            capsys,
            "simulate", "--system", "toda-a:2", "--t-end", "0.1", "--h", "0.01",
            "--x0", str(path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x0"] == [0.5, 0.1, -0.1]

    def test_volterra_b_uses_its_flow(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--system", "volterra-b:2", "--t-end", "0.2", "--h", "0.01",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["monitors"]["hamiltonian_drift"]["4"] < 1e-9


class TestSimulateInput:
    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "inf"),
        ("--t-end", "-1"),
        ("--decimate", "0"),
        ("--h", "nan"),
        ("--h", "0"),
    ])
    def test_rejected_at_parse_time(self, capsys, flag, value):
        code, out, err = run(capsys, "simulate", "--system", "toda-a:2", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be a finite positive" in err
        assert "Traceback" not in err

    def test_step_count_overflow(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:2", "--t-end", "1e300", "--h", "1e-300"
        )
        assert code == 2
        assert out == ""
        assert "--t-end" in err and "--h" in err


class TestSimulateMemory:
    def test_toda_a_27_monitors_fit(self, capsys, tmp_path):
        # expanding H_1..H_27 and evaluating them densely asked for 12.1 GiB here
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": [1.0] * 26, "b": [0.0] * 27}))
        code, out, _ = run(
            capsys,
            "simulate", "--system", "toda-a:27", "--t-end", "0.2", "--h", "1e-3",
            "--format", "json", "--x0", str(path),
        )
        assert code == 0
        mon = json.loads(out)["monitors"]
        assert len(mon["hamiltonian_drift"]) == 27
        drifts = [*mon["hamiltonian_drift"].values(), *mon["charpoly_drift"]]
        assert all(math.isfinite(d) for d in drifts)


class TestBogoCli:
    def test_json_content(self, capsys):
        code, out, _ = run(capsys, "bogo", "--type", "B", "--rank", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["marks"] == [1, 2, 2]
        assert doc["volterra_form"] == ["a1' = -a1*a2", "a2' = a1*a2 + a2^2"]

    def test_d_type_has_no_volterra_form(self, capsys):
        code, out, _ = run(capsys, "bogo", "--type", "D", "--rank", "4", "--format", "json")
        assert code == 0
        assert "volterra_form" not in json.loads(out)


class TestMoserCli:
    def test_printed_block_in_json(self, capsys):
        code, out, _ = run(capsys, "moser", "--N", "9", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["odd_deleted"]["matrix"][0] == ["x1^2", "x1*x2", "0", "0", "0"]
        assert doc["odd_deleted"]["tag"] == "B2"
        assert doc["odd_deleted"]["induced_equations"] == [
            "A1' = -A1*B1 + A1*B2",
            "A2' = -A2*B2",
            "B1' = 2*A1^2",
            "B2' = -2*A1^2 + 2*A2^2",
        ]

    def test_even_size_rejected(self, capsys):
        code, _, err = run(capsys, "moser", "--N", "8")
        assert code == 2

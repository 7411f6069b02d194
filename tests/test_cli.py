import json
import math
import random
import time
import warnings
from pathlib import Path

import pytest

from todavolterra import catalog, checks, flows
from todavolterra.cli import (
    MAX_FLOW_WORK,
    MEMORY_BUDGET_BYTES,
    _check_flow,
    _estimated_bytes,
    build_parser,
    main,
)
from todavolterra.poisson import PoissonTensor

from conftest import read_poly, sid, tensor_sum

# The checks `verify all --max-rank 6` ran at the benchmark's seed commit.
EXPECTED = Path(__file__).parents[1] / "perfbench" / "expected"
VERIFY_ALL_CHECKS = EXPECTED / "verify_all_checks.json"

# The benchmark's `derive` calls; their JSON at the seed commit is
# EXPECTED / f"derive_{name}.json".
DERIVE_CALLS = [
    ("moser", ["moser", "--N", "17"]),
    ("reduce", ["reduce", "--system", "toda-a:13", "--map", "phi_toda", "--bracket", "3"]),
    *[(f"bogo_{t}", ["bogo", "--type", t, "--rank", "8"]) for t in "ABCD"],
]

# Outputs that need sqrt(-1) on the way (the order-4 twist phi_tilde and
# moser's squaring map), recorded as GOLDEN / f"{name}.json" while the
# coefficient field was still a tag on every polynomial.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CALLS = [
    ("reduce_toda-a5_phi_tilde_4",
     ["reduce", "--system", "toda-a:5", "--map", "phi_tilde", "--bracket", "4"]),
    ("verify_reduction_phi-tilde_3", ["verify", "reduction", "--which", "phi-tilde", "--n", "3"]),
    ("verify_involution_toda-a5_phi_tilde_4",
     ["verify", "involution", "--system", "toda-a:5", "--map", "phi_tilde", "--bracket", "4"]),
    ("moser_9", ["moser", "--N", "9"]),
]


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

    def test_all_runs_the_recorded_checks_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-rank", "6", "--format", "json")
        assert code == 0
        ids = []
        for r in json.loads(out)["results"]:
            key = " ".join([r["check"]] + [
                f"{k}={json.dumps(r[k])}"
                for k in ("system", "case", "n", "map", "bracket", "brackets")
                if k in r
            ])
            ids.append(key)
            ids += [f"{key} :: {row['relation']}" for row in r.get("relations", [])]
        expected = json.loads(VERIFY_ALL_CHECKS.read_text())
        assert len(expected) == 208
        assert ids == expected

    @pytest.mark.parametrize("value", ["0", "-5", "1", "x"])
    def test_max_rank_below_2_rejected(self, capsys, value):
        code, out, err = run(capsys, "verify", "all", "--max-rank", value)
        assert code == 2
        assert out == ""
        assert "argument --max-rank: must be an integer >= 2" in err

    @pytest.mark.parametrize("argv, message", [
        # --max-rank 17 would run past the 4 s that 16 takes
        (["all", "--max-rank", "17"], "argument --max-rank: must be an integer >= 2 and <= 16"),
        # --n 100000 was still running after 20 s
        (["reduction", "--which", "psi", "--n", "100000"],
         "argument --n: must be an integer >= 1 and <= 16"),
        (["reduction", "--which", "phi", "--n", "17"],
         "argument --n: must be an integer >= 1 and <= 16"),
        (["reduction", "--which", "phi", "--n", "0"],
         "argument --n: must be an integer >= 1 and <= 16"),
        (["reduction", "--which", "phi", "--n", "x"],
         "argument --n: must be an integer >= 1 and <= 16"),
        # these ended in "too many values to unpack" and a bare int() message
        (["compatible", "--system", "toda-a:3", "--brackets", "1,2,3"],
         "argument --brackets: must be two integers 'k,l', got '1,2,3'"),
        (["compatible", "--system", "toda-a:3", "--brackets", "x"],
         "argument --brackets: must be two integers 'k,l', got 'x'"),
        (["compatible", "--system", "toda-a:3", "--brackets", "2"],
         "argument --brackets: must be two integers 'k,l', got '2'"),
    ])
    def test_out_of_bounds_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--max-rank", "16"],
        ["verify", "reduction", "--which", "phi", "--n", "16"],
        ["verify", "reduction", "--which", "psi", "--n", "1"],
    ])
    def test_bounds_are_admitted(self, argv):
        build_parser().parse_args(argv)

    @pytest.mark.parametrize("N", [3, 5, 7])
    @pytest.mark.parametrize("k, sign", [(2, -1), (4, 1)])
    def test_phi_tilde_signs_on_embedded_volterra(self, N, k, sign):
        doc = checks.pushforward(sid(f"toda-a:{N}"), "phi_tilde", k)
        assert (doc["sign"], doc["expected_sign"], doc["ok"]) == (sign, sign, True)

    @pytest.mark.parametrize("k, code, sign", [(4, 0, 1), (2, 1, -1)])
    def test_involution_phi_tilde(self, capsys, k, code, sign):
        got, out, _ = run(
            capsys, "verify", "involution", "--map", "phi_tilde", "--system", "toda-a:5",
            "--bracket", str(k), "--format", "json",
        )
        assert got == code
        assert json.loads(out)["sign"] == sign

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_involution_phi_tilde_other_brackets_rejected(self, capsys, k):
        code, out, err = run(
            capsys, "verify", "involution", "--map", "phi_tilde", "--system", "toda-a:5",
            "--bracket", str(k),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: phi_tilde is checked on the embedded volterra-a pi2 and pi4 only, got pi_{k}\n"
        )

    @pytest.mark.parametrize("argv, message", [
        # moser --N 99999 and bogo --rank 100000 were still running after 10 s
        (["moser", "--N", "99999"], "argument --N: must be an odd integer in 5..41, got 99999"),
        (["moser", "--N", "43"], "argument --N: must be an odd integer in 5..41, got 43"),
        (["bogo", "--type", "B", "--rank", "100000"],
         "argument --rank: must be an integer >= 1 and <= 64"),
        (["bogo", "--type", "D", "--rank", "65"],
         "argument --rank: must be an integer >= 1 and <= 64"),
        (["reduce", "--system", "toda-a:100001", "--map", "psi", "--bracket", "3"],
         "error: --system toda-a:100001: the lattice parameter must be <= 33, got 100001"),
        (["reduce", "--system", "toda-a:34", "--map", "phi_toda", "--bracket", "3"],
         "error: --system toda-a:34: the lattice parameter must be <= 33, got 34"),
        (["verify", "jacobi", "--system", "toda-a:65", "--bracket", "3"],
         "error: --system toda-a:65: the lattice parameter must be <= 64, got 65"),
        (["verify", "ladder", "--system", "volterra-a:1000000"],
         "error: --system volterra-a:1000000: the lattice parameter must be <= 64, got 1000000"),
    ])
    def test_size_caps_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
        assert sum("error" in line for line in err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["moser", "--N", "41"],
        ["bogo", "--type", "D", "--rank", "64"],
    ])
    def test_size_caps_admitted(self, argv):
        build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["verify", "jacobi", "--system", "volterra-a:64", "--bracket", "2"],
        ["reduce", "--system", "volterra-a:33", "--map", "phi_volterra", "--bracket", "4"],
    ])
    def test_system_caps_admitted(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "jacobi", "--system", "toda-a:2", "--bracket", "1"],
        ["verify", "all", "--max-rank", "2"],
        ["reduce", "--system", "toda-a:3", "--map", "psi", "--bracket", "2"],
        ["bogo", "--type", "A", "--rank", "2"],
        ["moser", "--N", "5"],
    ])
    def test_seed_belongs_to_simulate_only(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_usage_error(self, capsys):
        assert main(["verify", "jacobi", "--system", "nonsense", "--bracket", "1"]) == 2

    def test_unsupported_bracket_is_input_error(self, capsys):
        code, _, _ = run(capsys, "verify", "jacobi", "--system", "toda-b:2", "--bracket", "2")
        assert code == 2


class TestPerturbedTensorFails:
    """A pi3 with one nonlinear term added to its {a1, b1} entry is caught."""

    @pytest.fixture(autouse=True)
    def perturbed_pi3(self, monkeypatch):
        tensor = catalog.tensor

        def perturbed(sys_id, k):
            pi = tensor(sys_id, k)
            if k != 3:
                return pi
            extra = {("a1", "b1"): read_poly("a1*b1^3", pi.variables)}
            return tensor_sum(pi, PoissonTensor.from_brackets(pi.variables, extra))

        monkeypatch.setattr(catalog, "tensor", perturbed)

    @pytest.mark.parametrize("what, failed", [
        ("deformation", ["L_Z0 pi3 = 1 pi3", "L_Z1 pi2 = -pi3"]),
        ("ladder", ["pi3 dH1 = pi2 dH2"]),
    ])
    def test_relations_fail(self, capsys, what, failed):
        code, out, _ = run(capsys, "verify", what, "--system", "toda-a:3", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [r["relation"] for r in doc["relations"] if r["ok"] is False] == failed

    def test_compatibility_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "compatible", "--system", "toda-a:3", "--brackets", "2,3",
            "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["brackets"] == [2, 3]


class TestSchema:
    """Every command's JSON names its own schema, `todavolterra/<command>/v1`."""

    @pytest.mark.parametrize("argv", [
        ["verify", "jacobi", "--system", "toda-a:3", "--bracket", "2"],
        ["reduce", "--system", "toda-a:5", "--map", "phi_toda", "--bracket", "3"],
        ["simulate", "--system", "toda-a:3", "--t-end", "0.1", "--h", "0.01"],
        ["bogo", "--type", "B", "--rank", "3"],
        ["moser", "--N", "5"],
    ], ids=lambda argv: argv[0])
    def test_schema_names_the_command(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["schema"] == f"todavolterra/{argv[0]}/v1"


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


class TestOneParser:
    """`build_parser` runs once per process; every call shares its parser."""

    VALID = ["verify", "jacobi", "--system", "toda-a:3", "--bracket", "2", "--format", "json"]

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("rejected", [
        ["verify", "all", "--max-rank", "17"],
        ["verify", "jacobi", "--system", "toda-a:3"],
        ["verify", "jacobi", "--system", "toda-a:3", "--bracket", "2", "--seed", "1"],
        ["verify", "jacobi", "--system", "toda-d:3", "--bracket", "2"],
        ["moser", "--N", "4", "--format", "json"],
        ["bogo", "--type", "E", "--rank", "2"],
        ["verify", "--help"],
        [],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_a_rejected_call_leaves_no_trace(self, capsys, rejected):
        # each call alone, on a parser of its own, then both on one parser
        alone = []
        for argv in (rejected, self.VALID):
            build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        build_parser.cache_clear()
        assert [run(capsys, *rejected), run(capsys, *self.VALID)] == alone
        assert alone[1][0] == 0 and alone[0][0] in (0, 2)


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

    def test_json_written_to_out(self, capsys, tmp_path, monkeypatch):
        # --out was ignored with --format json: the document went to stdout
        monkeypatch.setenv("TODAVOLTERRA_OUT_DIR", str(tmp_path))
        argv = ["simulate", "--system", "toda-a:3", "--t-end", "0.1", "--h", "0.01",
                "--format", "json"]
        _, printed, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--out", "run.json")
        path = tmp_path / "run.json"
        assert (code, out, err) == (0, f"wrote {path}\n", "")
        assert path.read_text() == printed

    def test_decimate_of_any_size(self, capsys):
        # a 400-digit --decimate ended in an OverflowError traceback, exit 1
        argv = ["simulate", "--system", "toda-a:3", "--t-end", "0.05", "--h", "0.01"]
        code, out, err = run(capsys, *argv, "--decimate", str(10**400))
        assert (code, err) == (0, "")
        _, every, _ = run(capsys, *argv, "--decimate", "1")
        rows = every.splitlines()
        assert out.splitlines() == [rows[0], rows[1], rows[-1]]  # header, t = 0, t = t_end

    def test_csv_ends_at_t_end(self, capsys):
        # 105 steps are not a multiple of --decimate 10: rows 0, 10, ..., 100
        # and then the final state
        code, out, _ = run(
            capsys,
            "simulate", "--system", "toda-a:3", "--t-end", "1.05", "--h", "0.01",
            "--decimate", "10",
        )
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert times == pytest.approx([0.1 * k for k in range(11)] + [1.05], abs=1e-12)

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_monitor_traces_taken_once(self, capsys, monkeypatch, fmt):
        calls = []
        real = flows._monitor_values

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(flows, "_monitor_values", counted)
        code, _, _ = run(
            capsys,
            "simulate", "--system", "toda-a:3", "--t-end", "0.1", "--h", "0.01",
            "--format", fmt,
        )
        assert code == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("content, message", [
        # a JSON list ended in an AttributeError traceback
        ("[1, 2]", 'expected an object {"a": [...], "b": [...]}'),
        ('{"a": 5, "b": [0.1, 0.2]}', 'expected an object {"a": [...], "b": [...]}'),
        ("{", "not a JSON document (Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1))"),
        # NaN was reported as "state left float range; last valid time 0.0"
        ('{"a": [NaN], "b": [0.1, 0.2]}', "a1 = nan is not a finite number"),
        ('{"a": [0.5], "b": [0.1, Infinity]}', "b2 = inf is not a finite number"),
        ('{"a": [0.5], "b": ["x", 0.2]}', "b1 = 'x' is not a finite number"),
        ('{"a": [0.5], "b": [null, 0.2]}', "b1 = None is not a finite number"),
        ('{"a": ["0.5", "0.3"], "b": [0.1, 0.2, 0.3]}', "a1 = '0.5' is not a finite number"),
        ('{"a": [true], "b": [false, 0.2]}', "a1 = True is not a finite number"),
        ('{"a": [0.5], "b": [0.1]}', "the file lacks b2"),
        # nested too deep for the parser: a RecursionError traceback, exit 1
        pytest.param("[" * 200000 + "]" * 200000,
                     "not a JSON document (maximum recursion depth exceeded while decoding "
                     "a JSON array from a unicode string)", id="deeply-nested"),
    ])
    def test_bad_x0_file(self, capsys, tmp_path, content, message):
        path = tmp_path / "x0.json"
        path.write_text(content)
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:2", "--t-end", "0.1", "--x0", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --x0 {path}: {message}\n"

    @pytest.mark.parametrize("t_end, ratio", [
        # integrated to t = 0.002 but reported "t_end": 0.0016
        ("0.0016", "1.6"),
        # took no step and reported zero drift
        ("0.0004", "0.4"),
    ])
    def test_partial_step_count_rejected(self, capsys, t_end, ratio):
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:2", "--t-end", t_end, "--h", "1e-3"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: t_end / h = {t_end} / 0.001 = {ratio} is not a whole number of steps >= 1\n"
        )

    # 0.7 / 0.1 is 6.999999999999999 in floats: a whole number within 1e-9
    @pytest.mark.parametrize("t_end, h", [("10", "1e-3"), ("0.7", "0.1")])
    def test_whole_step_count_runs(self, capsys, t_end, h):
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:2", "--t-end", t_end, "--h", h,
            "--format", "json",
        )
        assert code == 0, err
        assert json.loads(out)["t_end"] == float(t_end)

    def test_step_count_overflow(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:2", "--t-end", "1e300", "--h", "1e-300"
        )
        assert (code, out) == (2, "")
        assert err == "error: t_end / h = 1e+300 / 1e-300 = inf is not a whole number of steps >= 1\n"


    def test_escape_exits_2(self, capsys, tmp_path):
        # the toda-a:6 default point of seed 0 when a_i was drawn from [-1, 1]
        rng = random.Random(0)
        point = [rng.uniform(-1.0, 1.0) for _ in range(11)]
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": point[:5], "b": point[5:]}))
        code, out, err = run(
            capsys, "simulate", "--system", "toda-a:6", "--x0", str(path), "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err == "error: state left float range; last valid time 2.67\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_monitor_overflow_exits_2(self, capsys, tmp_path, fmt):
        # the state is finite but its Lax powers overflow: the H_k and
        # char-poly values were inf/NaN, printed as NaN tokens in the JSON,
        # with numpy RuntimeWarnings on stderr
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": [1e150] * 5, "b": [1e150] * 6}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "simulate", "--system", "toda-a:6", "--x0", str(path),
                                 "--t-end", "1e-300", "--h", "1e-300", "--format", fmt)
        assert (code, out, caught) == (2, "", [])
        assert err == (
            "error: a monitored H_k or char-poly value is not finite (the powers of the Lax "
            "matrix left float range); start from a smaller initial point\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_volterra_monitor_overflow_exits_2(self, capsys, tmp_path, fmt):
        # the state and the flow (products a_i a_j ~ 1e140) stay finite, but
        # H_10 and c_10 ~ a^5 overflow in the powers of the parity blocks of L^2
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": [1e70] * 10}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "simulate", "--system", "volterra-a:11", "--x0", str(path),
                                 "--t-end", "1e-300", "--h", "1e-300", "--format", fmt)
        assert (code, out, caught) == (2, "", [])
        assert err == (
            "error: a monitored H_k or char-poly value is not finite (the powers of the Lax "
            "matrix left float range); start from a smaller initial point\n"
        )

    @pytest.mark.parametrize("argv, code", [
        (["--decimate", "2"], 0), (["--decimate", "1"], 2), (["--format", "json"], 2)])
    def test_csv_monitors_only_its_written_rows(self, capsys, monkeypatch, argv, code):
        # a finite state whose H_2 and H_3 overflow, at step 1: the CSV
        # skips it at --decimate 2, the JSON monitors every state
        integrate = flows.integrate

        def with_overflow(*args):
            traj = integrate(*args)
            traj.states[1] = [1e300, -1e300, 1e300, -1e300, 1e300]
            return traj

        monkeypatch.setattr(flows, "integrate", with_overflow)
        got, _, err = run(capsys, "simulate", "--system", "toda-a:3", "--t-end", "0.04",
                          "--h", "0.01", *argv)
        assert (got, err.startswith("error: a monitored H_k")) == (code, code == 2)

    def test_large_state_with_finite_monitors_exits_0(self, capsys, tmp_path):
        # tr(L^6) ~ a^3 = 1e300 and c_6 stay finite; the dense Lax powers
        # overflowed in diagonals far from the main one (a^5 in L^5), turned
        # inf * 0 into NaN and exited 2 here
        path = tmp_path / "x0.json"
        path.write_text(json.dumps({"a": [1e100] * 5, "b": [0.0] * 6}))
        code, out, err = run(capsys, "simulate", "--system", "toda-a:6", "--x0", str(path),
                             "--t-end", "1e-300", "--h", "1e-300", "--format", "json")
        assert (code, err) == (0, "")
        drift = json.loads(out)["monitors"]
        assert all(map(math.isfinite, [*drift["hamiltonian_drift"].values(),
                                       *drift["charpoly_drift"]]))

    @pytest.mark.parametrize("system", ["toda-a:6", "toda-a:9", "toda-b:3"])
    def test_default_toda_point_stays_on_sheet(self, capsys, system):
        # these escaped at t = 2.7, 2.0 and 4.0 when a_i was drawn from [-1, 1]
        code, out, err = run(capsys, "simulate", "--system", system, "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        n_a = sum(v.startswith("a") for v in catalog.variables(sid(system)))
        assert all(0.1 <= a <= 1.0 for a in doc["x0"][:n_a])


class TestSimulateFlow:
    @pytest.mark.parametrize("argv, message", [
        # expanding H_99 symbolically did not finish in 60 s
        (["--system", "toda-a:3", "--flow", "99"], "--flow must lie in 1..3 for toda-a:3, got 99"),
        (["--system", "toda-a:3", "--flow", "0"], "--flow must lie in 1..3 for toda-a:3, got 0"),
        # volterra-b always integrates its lattice equations
        (["--system", "volterra-b:2", "--flow", "7"],
         "volterra-b:2 integrates only its lattice equations: --flow must be 2, got 7"),
    ])
    def test_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "simulate", *argv, "--t-end", "0.1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("system, k, work", [
        # with --t-end 0.001 --h 0.001, toda-a:14 --flow 14 took 59.5 s before
        # the bound, toda-a:400 --flow 6 44.8 s and toda-a:1000 --flow 2 58.2 s;
        # the other two were stopped after 30 s and 60 s
        ("toda-a:14", 14, "3.21e+06"),
        ("toda-a:20", 20, "4.19e+08"),
        ("toda-b:10", 20, "4.62e+08"),
        ("toda-a:400", 6, "1.02e+07"),
        ("toda-a:1000", 2, "4e+06"),
        # past float range: formatting the estimate raised OverflowError
        ("toda-a:2000", 1500, "1.4e+458"),
    ])
    def test_costly_setup_rejected_at_once(self, capsys, system, k, work):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "simulate", "--system", system, "--flow", str(k),
            "--t-end", "0.001", "--h", "0.001",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        N = catalog.lax_size(sid(system))
        assert err == (
            f"error: --flow {k} on {system} would need setup work N^2 * 2^k = {work} "
            f"(N = {N}, the Lax size; limit 200000); lower --flow or the lattice size\n"
        )

    def test_costliest_accepted_cases(self):
        # the cases MAX_FLOW_WORK cites, at its bound, and the next size up
        for system, k in [("toda-a:13", 10), ("toda-a:316", 1)]:
            N = catalog.lax_size(sid(system))
            assert N * N * 2**k <= MAX_FLOW_WORK < (N + 1) * (N + 1) * 2**k
            _check_flow(sid(system), k)

    def test_toda_c_has_no_flow(self, capsys):
        code, out, err = run(capsys, "simulate", "--system", "toda-c:3", "--t-end", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: no flow cataloged for toda-c:3: toda-c has no catalog bracket\n"

    def test_highest_flow_runs(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--system", "toda-a:3", "--flow", "3", "--t-end", "0.1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["flow"] == 3


class TestSimulateMemory:
    @pytest.mark.parametrize("argv, need", [
        # the [n_steps + 1, dim] state array alone would be 21.3 PiB
        (["--system", "toda-a:2", "--t-end", "1e12", "--h", "1e-3"], "1.19e+08"),
        # rejected before the lattice is built
        (["--system", "toda-a:1000000000"], "2.24e+14"),
        # past float range: formatting the estimate raised OverflowError
        (["--system", f"toda-a:{10**160}", "--t-end", "0.01"], "2.46e+313"),
    ])
    def test_over_budget_exits_2(self, capsys, argv, need):
        code, out, err = run(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: run would need about {need} GiB")
        assert "limit 1 GiB" in err

    def test_benchmark_sizes_far_below_budget(self):
        for system, t_end in [("toda-a:3", 10.0), ("toda-a:8", 5.0), ("volterra-a:11", 10.0)]:
            sys_id = catalog.parse_system(system)
            assert _estimated_bytes(sys_id, round(t_end / 1e-3)) < MEMORY_BUDGET_BYTES / 20
            _check_flow(sys_id, 2)

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

    @pytest.mark.parametrize("N", ["6", "8", "40"])
    def test_even_size_rejected(self, capsys, N):
        # these exited 2 with `size must be odd and >= 3` from moser.x_lax
        code, out, err = run(capsys, "moser", "--N", N)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f"error: argument --N: must be an odd integer in 5..41, got {N}"
        )
        assert sum("error" in line for line in err.splitlines()) == 1


class TestDerive:
    @pytest.mark.parametrize("name, argv", DERIVE_CALLS, ids=[name for name, _ in DERIVE_CALLS])
    def test_json_equals_the_recorded_output(self, capsys, name, argv):
        # every canonical polynomial string, and the type of every value
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        want = json.loads((EXPECTED / f"derive_{name}.json").read_text())
        assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(want, sort_keys=True)


class TestGaussianGolden:
    @pytest.mark.parametrize("name, argv", GOLDEN_CALLS, ids=[name for name, _ in GOLDEN_CALLS])
    def test_json_is_byte_identical(self, capsys, name, argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.json").read_text()

"""Smoke test of the benchmark: the shape of its output and its gates, no timings.

Run from the repository root:  python3 -m pytest -q perfbench/test_shape.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == \
        {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        run.per_layer_units()
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    assert len({m["name"] for m in metrics}) == len(metrics)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_short_run_prints_every_metric(trace):
    spec = load_spec()
    out = result_line(bench("--workload", "derive", "--seed", "3", "--seconds", "1",
                            "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "derive", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_simulate_inputs_follow_the_seed():
    assert workloads.initial_point("toda-a:8", 5) == workloads.initial_point("toda-a:8", 5)
    assert workloads.initial_point("toda-a:8", 5) != workloads.initial_point("toda-a:8", 6)
    point = workloads.initial_point("toda-a:8", 5)
    assert all(a > 0 for a in point["a"])
    assert sum(b < 0 for b in point["b"]) == 4


def test_gates_reject_wrong_outputs(tmp_path):
    (op, argv), = workloads.calls("verify", 1, str(tmp_path))
    doc = {"ok": True, "results": [{"check": "jacobi", "system": "toda-a:2",
                                    "bracket": 1, "ok": True}]}
    assert "differ" in workloads.check("verify", op, argv, json.dumps(doc))
    doc["results"][0]["ok"] = False
    assert "not ok" in workloads.check("verify", op, argv, json.dumps(doc))

    doc = workloads._load_expected("derive_bogo_A.json")
    doc["x_system"][0] += " + 1"
    assert "$.x_system[0]" in workloads.check("derive", "bogo_A", [], json.dumps(doc))

    calls = dict(workloads.calls("simulate", 1, str(tmp_path)))
    argv = calls["toda-a3"]
    with open(argv[argv.index("--x0") + 1]) as fh:
        x0 = json.load(fh)
    doc = {"t_end": 10.0, "x0": x0["a"] + x0["b"],
           "monitors": {"hamiltonian_drift": {"1": 1e-15}, "charpoly_drift": [2e-8]}}
    assert "max drift" in workloads.check("simulate", "toda-a3", argv, json.dumps(doc))
    doc["monitors"]["charpoly_drift"] = [1e-15]
    assert workloads.check("simulate", "toda-a3", argv, json.dumps(doc)) is None


def test_a_missing_trace_target_fails_instead_of_reading_zero(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    monkeypatch.setitem(tracer.SPANNED, "poisson", ("poisson", ["no_such_function"]))
    t = tracer.Tracer()
    with pytest.raises(LookupError, match="poisson.no_such_function"):
        t.install()
    assert t._patches == []



def test_times_are_scaled_by_the_calibrator_speed_in_their_window():
    measured = run.Run.__new__(run.Run)
    # 100 units 10 ms apart: 2 ms of CPU each before t = 0.5, 1 ms after.
    cpu = 0.0
    measured.marks = []
    for i in range(100):
        cpu += 2e-3 if i < 50 else 1e-3
        measured.marks.append((i * 0.01, cpu))
    slow = measured.reference_seconds({"window": [0.0, 0.45], "cpu_s": 2.0})
    fast = measured.reference_seconds({"window": [0.55, 0.99], "cpu_s": 1.0})
    assert slow == pytest.approx(2.0 * run.REF_UNIT_S / 2e-3)
    assert fast == pytest.approx(slow)
    # A window with too few units of its own borrows the nearest ones.
    short = measured.reference_seconds({"window": [0.8, 0.801], "cpu_s": 1.0})
    assert short == pytest.approx(run.REF_UNIT_S / 1e-3)
    measured.marks = measured.marks[:run.MIN_UNITS]
    with pytest.raises(RuntimeError, match="calibrator"):
        measured.reference_seconds({"window": [0.0, 0.1], "cpu_s": 1.0})

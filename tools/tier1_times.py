"""Tier-1 wall time, per file and per test, recorded in BENCH_tier1.json.

Runs the Tier-1 suite of a checkout once, as ROADMAP.md states it
(`python -m pytest -q --continue-on-collection-errors`, the package imported
from the checkout's `src/`), with `--durations=0 --durations-min=0`, and
appends one point to the JSON file (created if missing):

- `label`, `git_rev` (`git describe --always --dirty`) and `date`;
- `summary`: pytest's last line, e.g. "1246 passed, 3 xfailed in 30.33s";
- `wall_s`: the suite's wall time, as this script measures it;
- `cpu_s`: user + sys CPU time of the pytest process;
- `per_file_s`: the reported setup, call and teardown durations summed per
  test file (pytest rounds each to 0.01 s, so the sum reads a little low);
- `top_tests`: the 20 slowest tests, their three phases summed;
- `lines`: the line counts of the `*.py` files under `src/` and `tests/`, so
  a point states the size of the code it timed;
- `machine`: platform, python, CPU count and CPU model.

Run it from the root of the checkout to time:

    python3 tools/tier1_times.py --label "what changed"
    python3 tools/tier1_times.py --label parent --out ../other/BENCH_tier1.json

It exits 1, after writing its point, when the suite does not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from collections import defaultdict

# "0.51s call     tests/test_flows.py::TestX::test_y[a b]"; a node id may hold spaces
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown)\s+(.+)$")
TOP = 20


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    """The checkout's commit, with "-dirty" appended when the working tree has
    uncommitted changes, so a point names the code it timed."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_tier1() -> tuple[int, str, float, float]:
    """(exit code, output, wall seconds, user + sys CPU seconds) of one run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "--durations-min=0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, proc.stdout, wall, cpu


def line_count(root: str) -> int:
    """Lines of the `*.py` files under `root`, as `wc -l` counts them."""
    total = 0
    for folder, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def point(label: str, code: int, output: str, wall: float, cpu: float) -> dict:
    per_test: dict[str, float] = defaultdict(float)
    for line in output.splitlines():
        m = DURATION.match(line.strip())
        if m:
            per_test[m.group(3)] += float(m.group(1))
    per_file: dict[str, float] = defaultdict(float)
    for node, seconds in per_test.items():
        per_file[node.split("::")[0]] += seconds
    lines = [line.strip("= ") for line in output.splitlines() if line.strip()]
    return {
        "label": label,
        "git_rev": git_rev(),
        "date": time.strftime("%Y-%m-%d"),
        "summary": lines[-1] if lines else "",
        "exit_code": code,
        "wall_s": round(wall, 2),
        "cpu_s": round(cpu, 2),
        "per_file_s": {f: round(s, 2) for f, s in sorted(per_file.items(), key=lambda kv: -kv[1])},
        "top_tests": [{"test": node, "s": round(s, 2)}
                      for node, s in sorted(per_test.items(), key=lambda kv: -kv[1])[:TOP]],
        "lines": {"src": line_count("src"), "tests": line_count("tests")},
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count(), "cpu_model": cpu_model()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what this point measures")
    parser.add_argument("--out", default="BENCH_tier1.json", help="the JSON file to append to")
    args = parser.parse_args()
    code, output, wall, cpu = run_tier1()
    record = {"points": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record["points"].append(point(args.label, code, output, wall, cpu))
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    last = record["points"][-1]
    print(f"{last['summary']}  (wall {last['wall_s']} s, cpu {last['cpu_s']} s) -> {args.out}")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads, their generated inputs and their correctness gates.

Each workload is a fixed list of CLI calls that one pass runs, in order, in
one fresh interpreter through `todavolterra.cli.main`.  A call is one
operation: it fails on a non-zero exit code, an exception, or a failed gate.

Why these three workloads:

* `verify` is the paper's exact claims as a user checks them: many small to
  medium checks up to dimension 13.  It is bound by the Jacobiator and by
  `Poly` construction and never touches the float path.
* `derive` uses the same `polyalg` layer differently: a few large
  Gaussian-rational products and exact linear solves (`moser`, `bogo`) plus
  one fixed-point reduction.  Its only Jacobiator is the `is_poisson` check
  `reduce` runs on its result, so an exact-core change tuned for `verify`
  that costs the big-product path shows up here.
* `simulate` is the float path: the RK4 kernel (toda-a:3), the symbolic
  monitors (toda-a:8, CSV, where `trajectory_csv` expands every H_k a second
  time after `monitors` did) and a mix of both (volterra-a:11).  It bypasses
  `poisson`.

Notes on the `simulate` inputs:

* The starting points are drawn from `--seed` on the sheet the README names
  for long-time integration (`a_i > 0`) and passed as `--x0` files.  The
  CLI's own default point samples the toda `a_i` from [-1, 1], off that
  sheet, and escapes float range on toda-a:6 and toda-a:9, so the benchmark
  never relies on it.
* The float kernels raise states to integer powers with `np.power`, which
  runs about ten times slower on a negative base, so a pass costs more the
  more coordinates are negative along the trajectory.  With free signs that
  share varies by +-15% from seed to seed.  The toda points are therefore
  drawn on the fixed set of the involution psi (a_i = a_(N-i),
  b_i = -b_(N+1-i)), which the Toda flow preserves: on it exactly
  floor(N/2) of the b_i are negative at every time, whatever the seed.  The
  volterra-a flow keeps every a_i > 0.
* The lattice sizes stop at toda-a:8 because `simulate` does not finish for
  toda-a:N with N >= ~12 today: the monitors expand every H_k symbolically
  (on toda-a:27, H_10 alone has 4840 terms and takes 54 s to build) and then
  evaluate a dense [T, terms, dim] array.  That is a known defect, written
  down here rather than hidden by the choice of sizes; larger sizes belong in
  their own benchmark change once the monitors stop expanding H_k.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

# Criterion 9's bound on the trace-Hamiltonian and char-poly drifts.
DRIFT_BOUND = 1e-8

# (op name, system, t_end, output format) of each `simulate` call.
SIMULATE_CALLS = [
    ("toda-a3", "toda-a:3", 10.0, "json"),
    ("toda-a8_csv", "toda-a:8", 5.0, "csv"),
    ("volterra-a11", "volterra-a:11", 10.0, "json"),
]
STEP = 1e-3

# workload -> [(op name, argv)]; "{x0}" stands for the generated x0 file.
WORKLOADS = {
    "verify": [("all", ["verify", "all", "--max-rank", "6", "--format", "json"])],
    "derive": [
        ("moser", ["moser", "--N", "17", "--format", "json"]),
        ("reduce", ["reduce", "--system", "toda-a:13", "--map", "phi_toda",
                    "--bracket", "3", "--format", "json"]),
        *[(f"bogo_{t}", ["bogo", "--type", t, "--rank", "8", "--format", "json"])
          for t in "ABCD"],
    ],
    "simulate": [
        (op, ["simulate", "--system", system, "--t-end", repr(t_end), "--h", repr(STEP),
              "--format", fmt, "--x0", "{x0}"])
        for op, system, t_end, fmt in SIMULATE_CALLS
    ],
}


def initial_point(system: str, seed: int) -> dict:
    """A seeded point on the `a_i > 0` sheet of a toda-a or volterra-a lattice.

    Toda points lie on the fixed set of psi (see the module docstring).
    """
    family, n = system.split(":")
    n = int(n)
    rng = random.Random(f"{seed}/{system}")
    if family == "volterra-a":
        return {"a": [rng.uniform(0.1, 1.0) for _ in range(n - 1)]}
    a = [rng.uniform(0.1, 1.0) for _ in range(n // 2)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(n // 2)]
    middle_b = [0.0] if n % 2 else []
    return {"a": a + a[: (n - 1) - len(a)][::-1],
            "b": b + middle_b + [-x for x in reversed(b)]}


def calls(workload: str, seed: int, work_dir: str) -> list[tuple[str, list[str]]]:
    """The workload's calls, writing any input files it needs into `work_dir`."""
    out = []
    for op, argv in WORKLOADS[workload]:
        if "{x0}" in argv:
            system = argv[argv.index("--system") + 1]
            path = os.path.join(work_dir, f"x0-{op}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(initial_point(system, seed), fh)
            argv = [path if a == "{x0}" else a for a in argv]
        out.append((op, argv))
    return out


# ------------------------------------------------------------------- gates


def _load_expected(name: str):
    with open(os.path.join(EXPECTED, name)) as fh:
        return json.load(fh)


def verify_identities(doc: dict) -> list[str]:
    """What `verify all` checked: one line per check and per named relation."""
    ids = []
    for r in doc["results"]:
        key = " ".join([r["check"]] + [
            f"{k}={json.dumps(r[k])}"
            for k in ("system", "case", "n", "map", "bracket", "brackets")
            if k in r
        ])
        ids.append(key)
        ids.extend(f"{key} :: {row['relation']}" for row in r.get("relations", []))
    return ids


def _gate_verify(op: str, argv: list[str], stdout: str) -> str | None:
    doc = json.loads(stdout)
    bad = [r for r in doc["results"]
           if not r["ok"] or not all(row["ok"] for row in r.get("relations", []))]
    if bad or not doc["ok"]:
        return f"{len(bad)} verify results not ok"
    if verify_identities(doc) != _load_expected("verify_all_checks.json"):
        return "the checks run differ from the ones the seed commit runs"
    return None


def _first_difference(a, b, path="$") -> str | None:
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return path
        return next((d for k in a if (d := _first_difference(a[k], b[k], f"{path}.{k}"))), None)
    if isinstance(a, list):
        if len(a) != len(b):
            return path
        return next((d for i, (x, y) in enumerate(zip(a, b))
                     if (d := _first_difference(x, y, f"{path}[{i}]"))), None)
    return None if a == b else path


def _gate_derive(op: str, argv: list[str], stdout: str) -> str | None:
    diff = _first_difference(json.loads(stdout), _load_expected(f"derive_{op}.json"))
    return None if diff is None else f"output differs from the seed commit's at {diff}"


def _gate_simulate(op: str, argv: list[str], stdout: str) -> str | None:
    t_end = float(argv[argv.index("--t-end") + 1])
    with open(argv[argv.index("--x0") + 1]) as fh:
        x0 = json.load(fh)
    x0 = x0["a"] + x0.get("b", [])
    if "json" in argv:
        doc = json.loads(stdout)
        if doc["t_end"] != t_end or doc["x0"] != x0:
            return "the run did not use the requested t_end and x0"
        mon = doc["monitors"]
        drift = max([*mon["hamiltonian_drift"].values(), *mon["charpoly_drift"]])
    else:
        rows = list(csv.reader(io.StringIO(stdout)))
        head, first, last = rows[0], rows[1], rows[-1]
        if abs(float(last[0]) - t_end) > STEP / 2:
            return f"the CSV ends at t={last[0]}, not at t_end={t_end}"
        if [float(v) for v in first[1:1 + len(x0)]] != x0:
            return "the run did not use the requested x0"
        drift = 0.0
        for col, name in enumerate(head):
            values = [float(r[col]) for r in rows[1:]]
            if name.startswith("H"):
                drift = max(drift, max(abs(v - values[0]) for v in values))
            elif name.endswith("_drift"):
                drift = max(drift, max(values))
    if not drift < DRIFT_BOUND:
        return f"max drift {drift:.3e} is not below {DRIFT_BOUND}"
    return None


GATES = {"verify": _gate_verify, "derive": _gate_derive, "simulate": _gate_simulate}


def check(workload: str, op: str, argv: list[str], stdout: str) -> str | None:
    """None when the call's output passes the workload's gate, else the reason."""
    try:
        return GATES[workload](op, argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"

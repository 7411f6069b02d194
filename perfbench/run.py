"""Benchmark of the todavolterra CLI: end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40     # every workload, one table

Each pass runs a workload's CLI calls (see workloads.py) in one fresh
single-threaded interpreter, so `catalog.tensor`'s cache starts cold as it
does for a user.  Passes run one after another from this process, and the
run keeps itself and every process it starts on one CPU.  With `--trace 0`
the run repeats untraced passes until the next one would overrun
`--seconds`, times SETUP_PROBES bare imports of `todavolterra.cli` (set-up
time) spread between them, and reports the median of each metric.  Times
are taken at the reference host speed: calibrator.py runs beside the passes
on their CPU, and each pass's or probe's CPU time is scaled by how fast the
calibrator ran in the same window (see `Run.reference_seconds`).  With
`--trace 1` it alternates untraced and traced passes (tracer.py) and reports
per-layer metrics from the traced ones, per-call times from the untraced ones
and the tracing overhead as the difference of the two pass times.

Every call's output goes through the workload's correctness gate; a call
that exits non-zero, raises or fails its gate counts as failed.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable summary.  The full
record (metadata, samples, spans) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CALIBRATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrator.py")
SETUP_PROBES = 31
# CPU seconds one calibrator unit takes on the reference host; a reported
# time is the measured CPU time times REF_UNIT_S over the unit's CPU time
# in the same window.
REF_UNIT_S = 0.5e-3
# Fewest calibrator units a window's speed is taken from; a shorter window
# borrows the units nearest to it.
MIN_UNITS = 16
RUN_LIMIT_S = 170  # a run, set-up and every pass included, ends within this

# Pinned single-threaded and hash-seeded so the numbers measure the program,
# not the scheduler, and the traced counts repeat exactly.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def median(values: list[float]) -> float:
    """The median, or 0.0 when every pass failed (the run then reports failures)."""
    return statistics.median(values) if values else 0.0


# name -> (unit, statistic over the run's samples).  Every statistic is a
# median: it does not depend on how many passes fit in the run, so a faster
# program, which fits more, is measured the same way as a slower one.
END_TO_END = {
    "setup_s": ("s", median),
    "wall_s": ("s", median),
    "peak_rss_mb": ("MB", median),
}

# Layers whose self time is reported as `<name>.s`.
SELF_TIMED = [
    "poisson.jacobiator", "poisson.lie_derivative_bivector",
    "poisson.pushforward_bivector", "poisson.hamiltonian_vf",
    "poisson.directional_action", "linsolve.solve_exact",
    "moser.square_and_split", "moser.identify_jacobi", "catalog.tensor",
    "reduction.verify_reduction", "catalog.hamiltonian", "flows.monitors",
    "flows.hamiltonian_values", "flows.lax_values", "flows.charpoly_coefficients",
    "flows.trajectory_csv", "flows.compile_field", "flows.integrate",
    "kernels.rk4_integrate",
]
POLYALG_COUNTS = ["poly_new", "mul", "add", "diff", "subst_linear", "gauss_arith"]


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {f"{n}.s": ("s", "lower") for n in SELF_TIMED}
    units.update({
        "bogo.s": ("s", "lower"),
        "poisson.jacobiator.calls": ("count", "lower"),
        "poisson.jacobiator.useful_frac": ("ratio", "higher"),
        "catalog.tensor.hit_frac": ("ratio", "higher"),
        "catalog.hamiltonian.terms": ("count", "lower"),
        "flows.hamiltonian_values.bytes": ("B", "lower"),
        "flows.integrate.steps": ("count", "higher"),
        "flows.us_per_step": ("us", "lower"),
        "kernels.bytes_per_step": ("B", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    units.update({f"polyalg.{c}.count": ("count", "lower") for c in POLYALG_COUNTS})
    units.update({f"cli.{w}.{op}.s": ("s", "lower")
                  for w, ops in workloads.WORKLOADS.items() for op, _ in ops})
    return units


# ------------------------------------------------------------------ passes


class Run:
    """The samples and failures of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed = workload, seed
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        os.makedirs(OUT, exist_ok=True)
        self.calls = workloads.calls(workload, seed, OUT)
        self.setup_probes: list[dict] = []  # {"window", "cpu_s"}
        self.marks: list[tuple[float, float]] = []  # the calibrator's units
        self.passes: list[dict] = []  # untraced
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def probe_setup(self) -> None:
        """Time one interpreter start and import of `todavolterra.cli`, in CPU time."""
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import todavolterra.cli; print(time.perf_counter(), time.process_time())")
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, env=CHILD_ENV, cwd=ROOT, check=True,
                              timeout=max(self.time_left(), 1))
        t1, cpu = map(float, done.stdout.strip().splitlines()[-1].split())
        self.setup_probes.append({"window": [t0, t1], "cpu_s": cpu})

    def run_pass(self, trace: bool) -> dict | None:
        spec = json.dumps({"src": SRC, "calls": self.calls, "trace": trace})
        t0 = time.perf_counter()
        self.attempted += len(self.calls)
        try:
            done = subprocess.run([sys.executable, CHILD, spec], capture_output=True,
                                  text=True, env=CHILD_ENV, cwd=ROOT,
                                  timeout=max(self.time_left(), 1))
            if done.returncode != 0:
                raise RuntimeError(f"exit code {done.returncode}: "
                                   f"{done.stderr.strip()[-300:]}")
            record = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
            self.failures += [f"{op}: pass did not complete ({exc})" for op, _ in self.calls]
            return None
        record["elapsed_s"] = time.perf_counter() - t0
        for (op, argv), call in zip(self.calls, record["calls"]):
            reason = (f"exit code {call['rc']}" if call["rc"] != 0 else
                      workloads.check(self.workload, op, argv, call["stdout"]))
            if reason:
                self.failures.append(f"{op}: {reason}")
            del call["stdout"]
        (self.traced if trace else self.passes).append(record)
        return record

    def repeat(self, step) -> None:
        """Run `step` at least once, then again while another fits before the deadline."""
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() + longest > min(self.deadline, self.started + RUN_LIMIT_S):
                return

    def probe_setup_due(self) -> None:
        """Probe set-up until the probes keep pace with the time elapsed.

        The host's speed drifts over seconds, so the probes are spread over
        the whole run rather than taken in one burst.
        """
        share = (time.perf_counter() - self.started) / (self.deadline - self.started)
        while len(self.setup_probes) < min(SETUP_PROBES,
                                           max(1, math.ceil(SETUP_PROBES * share))):
            self.probe_setup()

    def measure(self) -> None:
        calibrator = subprocess.Popen([sys.executable, CALIBRATOR], stdout=subprocess.PIPE,
                                      text=True, env=CHILD_ENV, cwd=ROOT)
        try:
            if calibrator.stdout.readline().strip() != "ready":
                raise RuntimeError("calibrator.py did not start")
            self.repeat(lambda: (self.probe_setup_due(), self.run_pass(trace=False)))
            while len(self.setup_probes) < SETUP_PROBES:
                self.probe_setup()
        finally:
            calibrator.terminate()
            try:
                out, _ = calibrator.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                calibrator.kill()
                out, _ = calibrator.communicate()
        if calibrator.returncode != 0:
            raise RuntimeError(f"calibrator.py exited with code {calibrator.returncode}")
        self.marks = json.loads(out)

    def measure_traced(self) -> None:
        self.repeat(lambda: (self.run_pass(trace=False), self.run_pass(trace=True)))

    # -------------------------------------------------------------- metrics

    def reference_seconds(self, measured: dict) -> float:
        """A window's CPU time at the reference host speed.

        The calibrator's units that ended in the window (at least MIN_UNITS,
        the nearest ones when the window is short) give the CPU time one unit
        took then; the window's CPU time is scaled by REF_UNIT_S over that.
        """
        t0, t1 = measured["window"]
        ends = [t for t, _ in self.marks]
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        if hi - lo < MIN_UNITS + 1:
            mid = bisect.bisect_left(ends, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_UNITS // 2, len(ends) - MIN_UNITS - 1))
            hi = lo + MIN_UNITS + 1
        if hi > len(ends):
            raise RuntimeError(f"calibrator.py ran only {len(ends)} units")
        unit_s = (self.marks[hi - 1][1] - self.marks[lo][1]) / (hi - 1 - lo)
        return measured["cpu_s"] * REF_UNIT_S / unit_s

    def end_to_end(self) -> dict[str, list[float]]:
        return {
            "setup_s": [self.reference_seconds(p) for p in self.setup_probes],
            "wall_s": [self.reference_seconds(p) for p in self.passes],
            "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in self.passes],
        }

    def per_layer(self) -> tuple[dict[str, float], bool]:
        """Medians of the per-layer metrics and whether the counts repeated exactly."""
        samples = [layer_metrics(p["trace"]) for p in self.traced]
        units = per_layer_units()
        out = {name: median([s.get(name, 0.0) for s in samples]) for name in units}
        counts = [{k: v for k, v in s.items() if units[k][0] not in ("s", "us")}
                  for s in samples]
        for i, (op, _) in enumerate(self.calls):
            out[f"cli.{self.workload}.{op}.s"] = median(
                [p["calls"][i]["seconds"] for p in self.passes])
        out["trace.overhead_s"] = (median([p["wall_s"] for p in self.traced])
                                   - median([p["wall_s"] for p in self.passes]))
        return out, all(c == counts[0] for c in counts)


def layer_metrics(trace: dict) -> dict[str, float]:
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    out = {f"{n}.s": self_s.get(n, 0.0) for n in SELF_TIMED}
    out["bogo.s"] = sum(v for k, v in self_s.items() if k.startswith("bogo."))
    out["poisson.jacobiator.calls"] = calls.get("poisson.jacobiator", 0)
    visited = counts.get("jacobiator.visited", 0)
    out["poisson.jacobiator.useful_frac"] = (
        counts.get("jacobiator.useful", 0) / visited if visited else 0.0)
    for c in POLYALG_COUNTS:
        out[f"polyalg.{c}.count"] = counts.get(c, 0)
    cache = trace["tensor_cache"] or {"hits": 0, "misses": 0}
    lookups = cache["hits"] + cache["misses"]
    out["catalog.tensor.hit_frac"] = cache["hits"] / lookups if lookups else 0.0
    out["catalog.hamiltonian.terms"] = counts.get("hamiltonian.terms", 0)
    out["flows.hamiltonian_values.bytes"] = counts.get("hamiltonian_values.bytes", 0)
    steps = counts.get("integrate.steps", 0)
    out["flows.integrate.steps"] = steps
    integrate_s = self_s.get("flows.integrate", 0.0) + self_s.get("kernels.rk4_integrate", 0.0)
    out["flows.us_per_step"] = integrate_s / steps * 1e6 if steps else 0.0
    out["kernels.bytes_per_step"] = counts.get("kernels.bytes", 0) / steps if steps else 0.0
    return out


# ----------------------------------------------------------------- report


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail n/a (n={n} < 11)"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}"


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata(run: Run, seconds: int, trace: int, nproc: int) -> dict:
    record = (run.passes or run.traced or [{}])[0]
    return {
        "workload": run.workload, "seed": run.seed, "seconds": seconds, "trace": trace,
        "python": record.get("python"), "numpy": record.get("numpy"),
        "platform": platform.platform(), "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "threads": CHILD_ENV["OMP_NUM_THREADS"],
        "passes": len(run.passes), "traced_passes": len(run.traced),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 nproc: int) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds)
    if trace:
        run.measure_traced()
        metrics, counts_repeat = run.per_layer()
        units = per_layer_units()
        reported = {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}
        print(f"# {workload}: per-layer metrics (self time) from {len(run.traced)} traced "
              f"passes; counts repeat exactly: {counts_repeat}")
        for name, v in metrics.items():
            if v:
                print(f"  {name:40s} {v:.6g} {units[name][0]}")
    else:
        run.measure()
        samples = run.end_to_end()
        reported = {k: {"value": END_TO_END[k][1](v), "unit": END_TO_END[k][0]}
                    for k, v in samples.items()}
        print(f"# {workload}")
        for name, values in samples.items():
            print(f"  {name:12s} median {reported[name]['value']:.6g} {END_TO_END[name][0]}"
                  f"  {tail(values)}  n={len(values)}")
        print(f"  (wall clock, not corrected for host speed: pass median "
              f"{median([p['wall_s'] for p in run.passes]):.6g} s, calibrator unit median "
              f"{median([b[1] - a[1] for a, b in zip(run.marks, run.marks[1:])]) * 1e3:.4g} ms)")
    failed = len(run.failures)
    print(f"  failed_frac  {failed}/{run.attempted} = {failed / run.attempted:.3g}")
    for reason in run.failures[:5]:
        print(f"  FAILED {reason}")
    meta = metadata(run, seconds, trace, nproc)
    print("  meta " + json.dumps(meta))
    record = {"meta": meta, "metrics": reported, "failures": run.failures,
              "setup_probes": run.setup_probes, "calibrator_marks": run.marks,
              "passes": run.passes, "traced": run.traced}
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return run, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "todavolterra", "cli.py")):
        print(f"no package source at {SRC}/todavolterra: run from a checkout's root",
              file=sys.stderr)
        return 2
    # One CPU for the run and everything it starts: the calibrator must share
    # the passes' CPU, and the other CPUs stay free for whatever else runs.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, reported = run_workload(name, args.seed, args.seconds, args.trace, nproc)
        attempted += run.attempted
        failed += len(run.failures)
        if args.workload == "all":
            metrics.update({f"{name}.{k}": v for k, v in reported.items()})
            metrics[f"{name}.failed_frac"] = {
                "value": len(run.failures) / run.attempted, "unit": "ratio"}
        else:
            metrics = reported
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

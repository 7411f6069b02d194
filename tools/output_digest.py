"""sha256 digests of the CLI's outputs over a fixed list of calls.

Each call runs in-process through `todavolterra.cli.main`; its digest covers
stdout, stderr and the exit code.  The script prints one line per call and a
total over all of them, so two checkouts give the same total exactly when
every call gives the same bytes and exit code.  Run it from a checkout's
root; it imports the package from that checkout's `src/`:

    python3 tools/output_digest.py            # per-call lines and the total
    python3 tools/output_digest.py --total    # the total only

The list: the benchmark's calls at seeds 1 and 2 (their argv and starting
points are built here), `moser --N 5..21`, `bogo` A-D at ranks 1..12,
`reduce` for every map, `verify reduction` for every case at n = 1..4,
`verify involution` for every map and `verify all --max-rank 7`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from todavolterra import cli  # noqa: E402

J = ["--format", "json"]

# (system, t_end, format) of the benchmark's `simulate` calls, at h = 1e-3
SIMULATE = [("toda-a:3", 10.0, "json"), ("toda-a:8", 5.0, "csv"), ("volterra-a:11", 10.0, "json")]


def initial_point(system: str, seed: int) -> dict:
    """The benchmark's seeded starting point: a_i > 0, toda points on the
    fixed set of psi (a_i = a_(N-i), b_i = -b_(N+1-i))."""
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


def calls(work_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every call, writing the `--x0` files into work_dir."""
    out = []
    for seed in (1, 2):
        out.append((f"seed {seed}", ["verify", "all", "--max-rank", "6", *J]))
        out.append((f"seed {seed}", ["moser", "--N", "17", *J]))
        out.append((f"seed {seed}", ["reduce", "--system", "toda-a:13", "--map", "phi_toda",
                                     "--bracket", "3", *J]))
        out += [(f"seed {seed}", ["bogo", "--type", t, "--rank", "8", *J]) for t in "ABCD"]
        for system, t_end, fmt in SIMULATE:
            path = os.path.join(work_dir, f"x0-{system.replace(':', '')}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(initial_point(system, seed), fh)
            out.append((f"seed {seed}", ["simulate", "--system", system, "--t-end", repr(t_end),
                                         "--h", "0.001", "--format", fmt, "--x0", path]))
    out += [("", ["moser", "--N", str(N), *J]) for N in range(5, 22, 2)]
    out += [("", ["bogo", "--type", t, "--rank", str(r), *J]) for t in "ABCD" for r in range(1, 13)]
    reduce = [("toda-a:4", "psi", 2), ("toda-a:5", "psi", 2), ("toda-a:5", "phi_toda", 3),
              ("toda-a:7", "phi_toda", 3), ("volterra-a:5", "phi_volterra", 4),
              ("volterra-a:7", "phi_volterra", 4), ("toda-a:5", "phi_tilde", 4),
              ("toda-a:7", "phi_tilde", 2), ("toda-a:7", "phi_tilde", 4)]
    out += [("", ["reduce", "--system", s, "--map", m, "--bracket", str(k), *J])
            for s, m, k in reduce]
    out += [("", ["verify", "reduction", "--which", w, "--n", str(n), *J])
            for w in ("psi", "phi", "phi-volterra", "phi-tilde") for n in range(1, 5)]
    involution = [("toda-a:4", "psi", (1, 2, 3)), ("toda-a:5", "phi_toda", (1, 2, 3)),
                  ("volterra-a:5", "phi_volterra", (2, 4)), ("toda-a:5", "phi_tilde", (2, 3, 4))]
    out += [("", ["verify", "involution", "--system", s, "--map", m, "--bracket", str(k), *J])
            for s, m, ks in involution for k in ks]
    out.append(("", ["verify", "all", "--max-rank", "7", *J]))
    return out


def digest(argv: list[str]) -> tuple[str, int]:
    """(sha256 of one call's stdout, stderr and exit code, the exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = "\0".join([out.getvalue(), err.getvalue(), str(code)])
    return hashlib.sha256(text.encode()).hexdigest(), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", action="store_true", help="print the total digest only")
    args = parser.parse_args()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work_dir:
        for label, argv in calls(work_dir):
            d, code = digest(argv)
            total.update(d.encode())
            if not args.total:
                shown = ["{x0}" if a.startswith(work_dir) else a for a in argv]
                print(f"{d[:16]}  exit {code}  {' '.join(shown)}{f'  ({label})' if label else ''}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

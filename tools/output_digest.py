"""sha256 digests of the CLI's outputs over a fixed list of calls.

Each call runs in-process through `todavolterra.cli.main`; its digest covers
stdout, stderr and the exit code.  The script prints one line per call and a
total over all of them, so two checkouts give the same total exactly when
every call gives the same bytes and exit code.  Run it from a checkout's
root; it imports the package from that checkout's `src/`:

    python3 tools/output_digest.py            # per-call lines and the total
    python3 tools/output_digest.py --total    # the five totals only

The list: the benchmark's calls at seeds 1 and 2, with their argv and
starting points taken from perfbench/workloads.py, `moser --N 5..21`, `bogo`
A-D at ranks 1..12, `reduce` for every map, `verify reduction` for every
case at n = 1..4, `verify involution` for every map and `verify all
--max-rank 7`.  Their total is the first `total` line.

A second list, `parsing_calls`, runs every subcommand that parses
`--system` and has exact output: `verify jacobi/compatible/deformation/
ladder/involution` on every family and `reduce`, with the inputs these
reject (bad ids, sizes past `MAX_VERIFY_SYSTEM` and `MAX_REDUCE_SYSTEM`,
missing brackets, maps that are not Poisson for a bracket, a map on a system
it does not act on), so the exit code and the `error:` text are digested
too.  It also runs the exact commands' numeric options with a value each
rejects (`--n`, `--max-rank`, `--rank`, `--N` and `--brackets`), so their
error lines are pinned byte for byte.  Its total is the `parsing total`
line.

A third list, `cap_calls`, runs the exact commands at their largest accepted
sizes, where their cost is highest: `moser --N 23..41`, `bogo` A-D at
rank 64, `verify reduction --n 16` for every case, `reduce` for every map
at the largest `--system` it takes, `verify all --max-rank 16`, and `verify
jacobi` (bracket 3) and `verify deformation` on toda-a:64, which run the
Jacobiator and the Lie derivative at their largest sizes.  Its total is the
`cap total` line.

A fourth list, `text_calls`, runs `moser` and `bogo` without `--format
json`, at a small size and at the cap, and `reduce` and `verify reduction`
on the order-4 map, so that their text output is digested too.  Its total
is the `text total` line.

A fifth list, `float_calls`, runs `simulate` in JSON and in CSV on one
lattice of each family it runs (toda-a, toda-b, volterra-a at an odd and an
even size, and volterra-b), each from a fixed `--x0` file.  Its total is the
`float total` line, and its per-call lines show which families a change to
the float path moves.  The float path calls no BLAS routine, so no total
depends on the OpenBLAS kernel (CI compares all five under two core types),
but float bits may still differ across CPUs and numpy builds, so this list
is kept out of `tests/golden/`: compare it between two checkouts on one
machine.
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
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (the benchmark's own list, imported read-only)
from todavolterra import catalog, cli  # noqa: E402

J = ["--format", "json"]


def calls(work_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every call, writing the `--x0` files into work_dir."""
    out = [(f"seed {seed}", argv) for seed in (1, 2) for workload in workloads.WORKLOADS
           for _, argv in workloads.calls(workload, seed, work_dir)]
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


def parsing_calls() -> list[tuple[str, list[str]]]:
    """(label, argv) of the calls through the `--system` parsing paths."""
    jacobi = [("toda-a:4", (1, 2, 3, 4)), ("toda-b:3", (1, 2, 3)), ("toda-c:3", (1,)),
              ("volterra-a:5", (2, 4)), ("volterra-b:3", (4,)), ("volterra-c:3", (4,)),
              ("TODA-A:3", (2,)), ("toda-b:64", (1,))]
    out = [("", ["verify", "jacobi", "--system", s, "--bracket", str(k), *J])
           for s, ks in jacobi for k in ks]
    compatible = [("toda-a:4", ("1,2", "2,3", "1,3", "1,4")), ("toda-b:3", ("1,3", "1,2")),
                  ("volterra-a:5", ("2,4",)), ("volterra-b:3", ("4,4",)), ("toda-c:2", ("1,2",))]
    out += [("", ["verify", "compatible", "--system", s, "--brackets", p, *J])
            for s, ps in compatible for p in ps]
    families = ("toda-a:3", "toda-a:4", "toda-b:3", "toda-c:3", "volterra-a:5", "volterra-b:3",
                "volterra-c:3")
    out += [("", ["verify", what, "--system", s, *J])
            for what in ("deformation", "ladder") for s in families]
    involution = [("toda-a:5", "psi", 1), ("toda-a:4", "phi_toda", 2), ("toda-b:3", "psi", 1),
                  ("volterra-a:5", "psi", 2), ("toda-a:5", "phi_volterra", 2),
                  ("volterra-a:4", "phi_toda", 2), ("toda-a:4", "phi_tilde", 2),
                  ("volterra-a:5", "phi_tilde", 2), ("toda-a:5", "phi_tilde", 1),
                  ("volterra-a:5", "phi_volterra", 3)]
    out += [("", ["verify", "involution", "--system", s, "--map", m, "--bracket", str(k), *J])
            for s, m, k in involution]
    # accepted, then maps that are not Poisson for the bracket, then errors
    reduce = [("toda-a:6", "psi", 2), ("toda-a:6", "phi_toda", 3),
              ("volterra-a:6", "phi_volterra", 4),
              ("toda-a:5", "psi", 1), ("toda-a:5", "psi", 3), ("toda-a:5", "phi_toda", 2),
              ("volterra-a:5", "phi_volterra", 2),
              ("toda-a:5", "phi_tilde", 3), ("toda-a:4", "phi_tilde", 2),
              ("volterra-a:5", "psi", 2), ("toda-b:3", "phi_toda", 1), ("toda-a:5", "psi", 4)]
    out += [("", ["reduce", "--system", s, "--map", m, "--bracket", str(k), *J])
            for s, m, k in reduce]
    out.append(("", ["reduce", "--system", "toda-a:4", "--map", "psi", "--bracket", "2"]))
    out.append(("", ["verify", "ladder", "--system", "volterra-a:4"]))
    # rejected ids and sizes: each exits 2 with one error line
    bad = ("toda-a", "toda-a:x", "toda-a:0", "toda-a:1", "volterra-a:1", "toda-b:-2", "toda-d:3",
           "foo-a:3", "toda-a:3:4", "", ":", "toda-a:65", "TODA-A:65", "toda-c:65",
           "volterra-a:999999999999")
    for s in bad:
        out.append(("", ["verify", "jacobi", "--system", s, "--bracket", "1", *J]))
        out.append(("", ["verify", "deformation", "--system", s]))
        out.append(("", ["reduce", "--system", s, "--map", "psi", "--bracket", "2", *J]))
    out += [("", ["reduce", "--system", s, "--map", "phi_toda", "--bracket", "3", *J])
            for s in ("toda-a:34", "Toda-A:34", "toda-c:34", "toda-a:x34")]
    # rejected numeric options: each exits 2 with argparse's usage and one error line
    out += [("", ["verify", "reduction", "--which", "psi", "--n", "17"]),
            ("", ["verify", "all", "--max-rank", "1"]),
            ("", ["bogo", "--type", "A", "--rank", "65"]),
            ("", ["moser", "--N", "4"]), ("", ["moser", "--N", "43"]),
            ("", ["verify", "compatible", "--system", "toda-a:4", "--brackets", "x"])]
    return out


def cap_calls() -> list[tuple[str, list[str]]]:
    """(label, argv) of the exact commands at their size caps."""
    out = [("", ["moser", "--N", str(N), *J]) for N in range(23, 42, 2)]
    out += [("", ["bogo", "--type", t, "--rank", "64", *J]) for t in "ABCD"]
    out += [("", ["verify", "reduction", "--which", w, "--n", "16", *J])
            for w in ("psi", "phi", "phi-volterra", "phi-tilde")]
    reduce = [("toda-a:33", "psi", 2), ("toda-a:33", "phi_toda", 3), ("toda-a:33", "phi_tilde", 4),
              ("volterra-a:33", "phi_volterra", 4)]
    out += [("", ["reduce", "--system", s, "--map", m, "--bracket", str(k), *J])
            for s, m, k in reduce]
    out += [("", ["verify", "all", "--max-rank", "16", *J]),
            ("", ["verify", "jacobi", "--system", "toda-a:64", "--bracket", "3", *J]),
            ("", ["verify", "deformation", "--system", "toda-a:64", *J])]
    return out


def text_calls() -> list[tuple[str, list[str]]]:
    """(label, argv) of `moser`, `bogo`, `reduce` and `verify reduction` in
    their default text format."""
    return [("", ["moser", "--N", "9"]), ("", ["moser", "--N", "41"]),
            ("", ["bogo", "--type", "D", "--rank", "4"]),
            ("", ["bogo", "--type", "B", "--rank", "64"]),
            ("", ["bogo", "--type", "A", "--rank", "5"]),
            ("", ["bogo", "--type", "C", "--rank", "5"]),
            ("", ["reduce", "--system", "toda-a:7", "--map", "phi_tilde", "--bracket", "4"]),
            ("", ["verify", "reduction", "--which", "phi-tilde", "--n", "3"])]


# (system, x0 ranges by variable letter) of `float_calls`; each range keeps
# the flow on its sheet (volterra-b: a_i = -2 x_i^2 < 0)
FLOAT_SYSTEMS = [("toda-a:5", {"a": (0.1, 1.0), "b": (-1.0, 1.0)}),
                 ("toda-b:3", {"a": (0.1, 1.0), "b": (-1.0, 1.0)}),
                 ("volterra-a:7", {"a": (0.1, 1.0)}),
                 ("volterra-a:8", {"a": (0.1, 1.0)}),
                 ("volterra-b:3", {"a": (-1.0, -0.1)})]


def float_calls(work_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of the `simulate` calls by family, writing their `--x0`
    files into work_dir."""
    out = []
    for system, ranges in FLOAT_SYSTEMS:
        rng = random.Random(f"float/{system}")
        names = catalog.variables(catalog.parse_system(system))
        point = {letter: [rng.uniform(*span) for v in names if v[0] == letter]
                 for letter, span in ranges.items()}
        path = os.path.join(work_dir, f"x0-float-{system.replace(':', '')}.json")
        with open(path, "w") as fh:
            json.dump(point, fh)
        out += [("", ["simulate", "--system", system, "--t-end", "2.0", "--h", "0.001",
                      "--format", fmt, "--x0", path, *extra])
                for fmt, extra in (("json", []), ("csv", ["--decimate", "10"]))]
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
    with tempfile.TemporaryDirectory() as work_dir:
        for name, listed in (("total", calls(work_dir)), ("parsing total", parsing_calls()),
                             ("cap total", cap_calls()), ("text total", text_calls()),
                             ("float total", float_calls(work_dir))):
            total = hashlib.sha256()
            for label, argv in listed:
                d, code = digest(argv)
                total.update(d.encode())
                if not args.total:
                    shown = ["{x0}" if a.startswith(work_dir) else a for a in argv]
                    print(f"{d[:16]}  exit {code}  {' '.join(shown)}"
                          f"{f'  ({label})' if label else ''}")
            print(f"{name} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

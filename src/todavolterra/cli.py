"""Command-line interface.

Subcommands:
  verify {jacobi|compatible|deformation|involution|ladder|reduction|all}
             the paper's identities, stated once in `checks`
  reduce     emit a reduced bracket as JSON
  simulate   RK4 integration with conservation monitors (CSV or JSON)
  bogo       root-system Volterra construction (text or JSON)
  moser      squaring map, parity blocks and induced Toda equations

Exit codes: 0 all checks passed / run completed, 1 a mathematical check
failed (a diff is emitted), 2 usage or input error, a `simulate` run whose
state or monitored values (H_k, char-poly coefficients and their drifts)
leave float range, or one that would exceed MEMORY_BUDGET_BYTES or
MAX_FLOW_WORK.
All JSON documents carry a top-level "schema" field.  TODAVOLTERRA_OUT_DIR
sets the default directory for file outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

import numpy as np

from . import bogo, catalog, checks, flows, moser, reduction
from .poisson import is_poisson
from .polyalg import Poly, equation_lines

SCHEMA_PREFIX = "todavolterra"


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(doc)


def _emit_text(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in doc.items():
        if key == "schema":
            continue
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + 1)
                else:
                    print(f"{pad}  {item}")
        else:
            print(f"{pad}{key}: {value}")


# ------------------------------------------------------------------- verify


# The largest lattice parameter n ('toda-a:n') that `verify` and `reduce`
# take.  On a 2-vCPU x86 VM (Xeon, Python 3.11; process wall, median of 3)
# the costliest cases at the bound took 0.34 s (verify deformation --system
# toda-a:64) and 0.28 s (reduce --system toda-a:33 --map phi_toda --bracket 3).
MAX_VERIFY_SYSTEM = 64
MAX_REDUCE_SYSTEM = 33


def _bounded_system(system: str, most: int) -> catalog.SystemId:
    """The parsed `--system`, rejected when its lattice parameter exceeds `most`."""
    sys_id = catalog.parse_system(system)
    if sys_id.n > most:
        raise ValueError(
            f"--system {system}: the lattice parameter must be <= {most}, got {sys_id.n}")
    return sys_id


def _cmd_verify(args) -> int:
    if hasattr(args, "system"):  # the checks take the parsed id
        args.system = _bounded_system(args.system, MAX_VERIFY_SYSTEM)
    doc = args.check(args)
    doc["schema"] = f"{SCHEMA_PREFIX}/verify/v1"
    _emit(doc, args.format)
    return 0 if doc["ok"] else 1


# -------------------------------------------------------------------- reduce


def _cmd_reduce(args) -> int:
    sys_id = _bounded_system(args.system, MAX_REDUCE_SYSTEM)
    ambient, group = checks.ambient_and_group(sys_id, args.map, args.bracket)
    red = reduction.reduced_bracket(ambient, group)
    doc = {
        "schema": f"{SCHEMA_PREFIX}/reduce/v1",
        "system": str(sys_id),
        "map": args.map,
        "bracket": args.bracket,
        "reduced": red.to_json_dict(),
        "is_poisson": is_poisson(red),
    }
    _emit(doc, args.format)
    return 0


# ------------------------------------------------------------------ simulate


def _initial_point(args, sys_id) -> np.ndarray:
    vars_ = catalog.variables(sys_id)
    if args.x0:
        where = f"--x0 {args.x0}"
        with open(args.x0) as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ValueError(f"{where}: not a JSON document ({exc})") from None
        if not isinstance(data, dict) or not all(
            isinstance(data.get(k, []), list) for k in "ab"
        ):
            raise ValueError(f'{where}: expected an object {{"a": [...], "b": [...]}}')
        point = []
        for v in vars_:
            pool = data.get(v[0], [])
            idx = int(v[1:]) - 1
            if idx >= len(pool):
                raise ValueError(f"{where}: the file lacks {v}")
            try:  # JSON numbers only: not strings, not booleans
                x = float(pool[idx]) if type(pool[idx]) in (int, float) else math.nan
            except OverflowError:
                x = math.nan
            if not math.isfinite(x):
                raise ValueError(f"{where}: {v} = {pool[idx]!r} is not a finite number")
            point.append(x)
        return np.array(point)
    rng = random.Random(args.seed)
    if sys_id.family == "volterra" and sys_id.kind == "a":
        ranges = {"a": (0.1, 1.0)}  # the KM flow preserves positivity
    elif sys_id.family == "volterra":
        ranges = {"a": (-1.0, -0.1)}  # B-type sheet a_i = -2 x_i^2 < 0; a_n > 0 blows up
    else:
        ranges = {"a": (0.1, 1.0), "b": (-1.0, 1.0)}  # the a_i > 0 sheet
    return np.array([rng.uniform(*ranges[v[0]]) for v in vars_])


# The most a `simulate` run may ask for, as `_estimated_bytes` counts it.
MEMORY_BUDGET_BYTES = 1 << 30


def _estimated_bytes(sys_id, n_steps: int) -> int:
    """Bytes of n_steps + 1 recorded states and of [T, N, N] Lax arrays for
    all of them (the matrices, a power and the next power).

    Worked out from the Lax size N alone (every family has at most 2N
    coordinates), so an oversized lattice is rejected before it is built.
    The 3 N^2 term over-counts: the monitors hold the Lax bands and three
    tridiagonal [b, N, N] arrays (for the Volterra families, of the two
    parity blocks of L^2, about N/2 each) for one block of
    `flows.CHARPOLY_BLOCK` states at a time, not for the whole run.  It
    stays so that the accepted inputs do not move until one cost estimate
    replaces the fixed caps.
    """
    N = catalog.lax_size(sys_id)
    return 8 * (n_steps + 1) * (2 * N + 3 * N * N)


# The most setup work a `simulate` run may ask for, N^2 * 2^k for the H_k flow
# on a Lax matrix of size N: H_k has about N * 2^k terms, each an exponent
# tuple of length about 2N.  On a 2-vCPU x86 VM (Xeon, Python 3.11), with
# --t-end 0.001 --h 0.001, the costliest accepted cases took 0.84 s
# (toda-a:13 --flow 10, mostly the compile of the generated RK4 step) and
# 0.99 s (toda-a:316 --flow 1, mostly the monitors' N powers of the Lax
# matrix), process wall, median of 3.
MAX_FLOW_WORK = 200_000


def _check_flow(sys_id, k: int) -> None:
    """Reject `--flow k` before any symbolic work.  Past the Lax size N, H_k
    is a polynomial in H_1..H_N (Newton's identities), so k <= N."""
    N = catalog.lax_size(sys_id)
    if sys_id.name in ("volterra-b", "volterra-c"):
        if k != 2:
            raise ValueError(
                f"{sys_id} integrates only its lattice equations: --flow must be 2, got {k}"
            )
    elif not 1 <= k <= N:
        raise ValueError(f"--flow must lie in 1..{N} for {sys_id}, got {k}")
    work = N * N * 2**k
    if work > MAX_FLOW_WORK:
        raise ValueError(
            f"--flow {k} on {sys_id} would need setup work N^2 * 2^k = {work:.3g} "
            f"(N = {N}, the Lax size; limit {MAX_FLOW_WORK:g}); "
            "lower --flow or the lattice size"
        )


def _cmd_simulate(args) -> int:
    sys_id = catalog.parse_system(args.system)
    need = _estimated_bytes(sys_id, flows.step_count(args.t_end, args.h))
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"run would need about {need / 2**30:.3g} GiB for its states and Lax "
            f"arrays (limit {MEMORY_BUDGET_BYTES / 2**30:g} GiB); "
            "lower --t-end or the lattice size, or raise --h"
        )
    _check_flow(sys_id, args.flow)
    vf = catalog.flow(sys_id, args.flow)
    x0 = _initial_point(args, sys_id)
    traj = flows.integrate(vf, x0, args.t_end, args.h)
    # the Lax powers of a finite state may overflow: a monitored value that is
    # not finite ends the run as an escape does, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if args.format == "json":
            report = flows.monitors(traj, sys_id)
            values = [*report.hamiltonian_drift.values(), *report.charpoly_drift]
            finite = all(map(math.isfinite, values))
        else:
            text = flows.trajectory_csv(traj, sys_id, decimate=args.decimate)
            # each cell below the header is a float's repr; only inf and nan hold an "n"
            finite = "n" not in text.partition("\n")[2]
    if not finite:
        raise ValueError(
            "a monitored H_k or char-poly value is not finite (the powers of the Lax "
            "matrix left float range); start from a smaller initial point"
        )
    if args.format == "json":
        doc = {
            "schema": f"{SCHEMA_PREFIX}/simulate/v1",
            "system": str(sys_id),
            "flow": args.flow,
            "t_end": args.t_end,
            "h": args.h,
            "seed": args.seed,
            "x0": [float(x) for x in x0],
            # a constant of the simulate/v1 schema; it does not name the kernel
            "backend": "numpy",
            "monitors": report.to_json_dict(),
        }
        _emit(doc, "json")
    else:
        if args.out:
            out_dir = os.environ.get("TODAVOLTERRA_OUT_DIR", ".")
            path = args.out if os.path.isabs(args.out) else os.path.join(out_dir, args.out)
            with open(path, "w") as fh:
                fh.write(text)
            print(f"wrote {path}")
        else:
            sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------- bogo


def _cmd_bogo(args) -> int:
    rd = bogo.root_data(args.type, args.rank)
    bsys = bogo.b_system_rhs(rd)
    xsys = bogo.x_system_rhs(rd)
    doc = {
        "schema": f"{SCHEMA_PREFIX}/bogo/v1",
        "type": rd.type,
        "rank": rd.rank,
        "marks": list(rd.marks),
        "edges": [list(e) for e in bogo.edges(rd)],
        "sign_matrix": bogo.sign_matrix(rd),
        "b_system": bsys.equation_strings(),
        "x_system": equation_lines(xsys.variables, xsys.components),
    }
    form = bogo.volterra_form(rd)
    if form is not None:
        _, sub = form
        doc["volterra_change_of_variables"] = {
            a: Poly.var(xsys.variables, y).scale(c).canonical_str() for a, (y, c) in sub.items()
        }
        transformed = bogo.transformed_x_system(xsys, form)
        doc["volterra_form"] = equation_lines(transformed.variables, transformed.components)
    _emit(doc, args.format)
    return 0


# --------------------------------------------------------------------- moser


def _cmd_moser(args) -> int:
    split = moser.square_and_split(args.N)
    flow = moser.x_flow(args.N // 2)

    def block_doc(block):
        ident = moser.identify_jacobi(block, flow)
        return {
            "tag": block.tag,
            "size": block.size,
            "kept_indices": list(block.kept_indices),
            "matrix": [[p.canonical_str() for p in row] for row in block.matrix],
            "A": [p.canonical_str() for p in ident.a_defs],
            "B": [p.canonical_str() for p in ident.b_defs],
            "induced_equations": ident.equation_strings(),
        }

    doc = {
        "schema": f"{SCHEMA_PREFIX}/moser/v1",
        "N": args.N,
        "lax": [[p.canonical_str() for p in row] for row in moser.x_lax(args.N)],
        "flow": equation_lines(flow.variables, flow.components),
        "squared": [[p.canonical_str() for p in row] for row in split.squared],
        "odd_deleted": block_doc(split.odd_deleted),
        "even_deleted": block_doc(split.even_deleted),
    }
    _emit(doc, args.format)
    return 0


# ---------------------------------------------------------------------- main


def _positive(kind):
    """argparse type: a finite number of `kind` greater than zero."""
    noun = "integer" if kind is int else "number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or value <= 0:
            raise argparse.ArgumentTypeError(f"must be a finite positive {noun}, got {text!r}")
        return value

    return parse


def _bounded_int(lo: int, hi: int):
    """argparse type: an integer in lo..hi."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lo} and <= {hi}, got {text!r}"
            )
        return value

    return parse


def _odd_int(lo: int, hi: int):
    """argparse type: an odd integer in lo..hi."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi or value % 2 == 0:
            raise argparse.ArgumentTypeError(f"must be an odd integer in {lo}..{hi}, got {text}")
        return value

    return parse


def _int_pair(text: str) -> tuple[int, int]:
    """argparse type: two integers 'k,l'."""
    try:
        k, l = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be two integers 'k,l', got {text!r}") from None
    return k, l


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todavolterra",
        description="Exact multi-Hamiltonian structures and flows of Toda and "
        "Volterra lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run symbolic verifications")
    pv.set_defaults(run=_cmd_verify)
    vsub = pv.add_subparsers(dest="what", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = vsub.add_parser("jacobi")
    p.set_defaults(check=lambda a: checks.jacobi(a.system, a.bracket))
    p.add_argument("--system", required=True)
    p.add_argument("--bracket", type=int, required=True)

    p = vsub.add_parser("compatible")
    p.set_defaults(check=lambda a: checks.compatible(a.system, a.brackets))
    p.add_argument("--system", required=True)
    p.add_argument("--brackets", type=_int_pair, required=True, help="e.g. 1,2")

    p = vsub.add_parser("deformation")
    p.set_defaults(check=lambda a: checks.deformation(a.system))
    p.add_argument("--system", required=True)

    p = vsub.add_parser("involution")
    p.set_defaults(check=lambda a: checks.involution(a.system, a.map, a.bracket))
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True, choices=tuple(catalog.SYMMETRIES))
    p.add_argument("--bracket", type=int, required=True)

    p = vsub.add_parser("ladder")
    p.set_defaults(check=lambda a: checks.ladder(a.system))
    p.add_argument("--system", required=True)

    p = vsub.add_parser("reduction")
    p.set_defaults(check=lambda a: checks.fixed_point_reduction(a.which, a.n))
    p.add_argument("--which", choices=tuple(checks.REDUCTIONS), required=True)
    # the bounds keep a run within seconds: on a 2-vCPU x86 VM (Xeon, Python 3.11;
    # process wall, median of 5) --n 16 took 0.17 s (phi, the costliest) and
    # --max-rank 16 0.69 s
    p.add_argument("--n", type=_bounded_int(1, 16), default=2)

    p = vsub.add_parser("all")
    p.set_defaults(check=lambda a: checks.verify_all(a.max_rank))
    p.add_argument("--max-rank", type=_bounded_int(2, 16), default=4)

    for p in vsub.choices.values():  # last, so help lists --format last
        add_common(p)

    p = sub.add_parser("reduce", help="emit a reduced bracket")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True, choices=tuple(catalog.SYMMETRIES))
    p.add_argument("--bracket", type=int, required=True)
    add_common(p)

    p = sub.add_parser("simulate", help="integrate a lattice flow")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--system", required=True)
    p.add_argument("--flow", type=int, default=2, help="Hamiltonian index k of the flow")
    p.add_argument("--t-end", type=_positive(float), default=10.0)
    p.add_argument("--h", type=_positive(float), default=1e-3)
    p.add_argument("--x0", help="JSON file {\"a\": [...], \"b\": [...]}")
    p.add_argument("--decimate", type=_positive(int), default=100)
    p.add_argument("--out", help="CSV output file name")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bogo", help="root-system Volterra construction")
    p.set_defaults(run=_cmd_bogo)
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    # --rank 64 took 0.25-0.27 s (types A-D) on a 2-vCPU x86 VM (Xeon, Python 3.11),
    # process wall, median of 3
    p.add_argument("--rank", type=_bounded_int(1, 64), required=True)
    add_common(p)

    p = sub.add_parser("moser", help="squaring map to Toda form")
    p.set_defaults(run=_cmd_moser)
    # --N 41 took 0.28 s on a 2-vCPU x86 VM (Xeon, Python 3.11), process wall, median of 3
    p.add_argument("--N", type=_odd_int(5, 41), required=True, help="odd Lax size")
    add_common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

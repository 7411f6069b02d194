"""Command-line interface.

Subcommands:
  verify {jacobi|compatible|deformation|involution|ladder|reduction|all}
  reduce     emit a reduced bracket as JSON
  simulate   RK4 integration with conservation monitors (CSV or JSON)
  bogo       root-system Volterra construction (text or JSON)
  moser      squaring map, parity blocks and induced Toda equations

Exit codes: 0 all checks passed / run completed, 1 a mathematical check
failed (a diff is emitted), 2 usage or input error, a `simulate` run whose
state leaves float range, or one that would exceed MEMORY_BUDGET_BYTES.
All JSON documents carry a top-level "schema" field.  TODAVOLTERRA_OUT_DIR
sets the default directory for file outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np

from . import bogo, catalog, flows, moser, reduction
from .poisson import (
    directional_action,
    hamiltonian_vf,
    is_compatible,
    is_poisson,
    jacobiator,
    lie_derivative_bivector,
    pushforward_sign,
)

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


def _check_jacobi(system: str, k: int) -> dict:
    sys_id = catalog.parse_system(system)
    pi = catalog.tensor(sys_id, k)
    jac = jacobiator(pi)
    bad = {
        f"({i + 1},{j + 1},{l + 1})": p.canonical_str()
        for (i, j, l), p in jac.items()
        if not p.is_zero
    }
    return {
        "check": "jacobi",
        "system": str(sys_id),
        "bracket": k,
        "ok": not bad,
        "nonzero_jacobiator": bad,
    }


def _check_compatible(system: str, degrees: tuple[int, int]) -> dict:
    sys_id = catalog.parse_system(system)
    k, l = degrees
    ok = is_compatible(catalog.tensor(sys_id, k), catalog.tensor(sys_id, l))
    return {"check": "compatible", "system": str(sys_id), "brackets": [k, l], "ok": ok}


def _deformation_relations(sys_id: catalog.SystemId) -> list[dict]:
    Z0 = catalog.euler_field(sys_id)
    Z1 = catalog.master_symmetry(sys_id)
    rows = []

    def record(name, ok):
        rows.append({"relation": name, "ok": bool(ok)})

    for l in (1, 2, 3):
        pi = catalog.tensor(sys_id, l)
        record(
            f"L_Z0 pi{l} = {l - 2} pi{l}",
            lie_derivative_bivector(Z0, pi) == pi.scale(l - 2),
        )
    record(
        "L_Z1 pi1 = -2 pi2",
        lie_derivative_bivector(Z1, catalog.tensor(sys_id, 1))
        == catalog.tensor(sys_id, 2).scale(-2),
    )
    record(
        "L_Z1 pi2 = -pi3",
        lie_derivative_bivector(Z1, catalog.tensor(sys_id, 2))
        == catalog.tensor(sys_id, 3).scale(-1),
    )
    for l in (1, 2, 3):
        H = catalog.hamiltonian(sys_id, l)
        record(
            f"Z0(H{l}) = {l} H{l}",
            directional_action(Z0, H) == H.scale(l),
        )
        record(
            f"Z1(H{l}) = {l + 1} H{l + 1}",
            directional_action(Z1, H) == catalog.hamiltonian(sys_id, l + 1).scale(l + 1),
        )
    return rows


def _check_deformation(system: str) -> dict:
    sys_id = catalog.parse_system(system)
    rows = _deformation_relations(sys_id)
    return {
        "check": "deformation",
        "system": str(sys_id),
        "ok": all(r["ok"] for r in rows),
        "relations": rows,
    }


def _check_involution(system: str, map_name: str, k: int) -> dict:
    sys_id = catalog.parse_system(system)
    g = catalog.symmetry(map_name, sys_id)
    pi = catalog.tensor(sys_id, k)
    sign = pushforward_sign(g, pi)
    return {
        "check": "involution",
        "system": str(sys_id),
        "map": map_name,
        "bracket": k,
        "sign": sign,
        "ok": sign == 1,
    }


def _check_ladder(system: str) -> dict:
    sys_id = catalog.parse_system(system)
    rows = []
    if (sys_id.family, sys_id.kind) == ("toda", "a"):
        pairs = [((3, 1), (2, 2)), ((2, 2), (1, 3)), ((2, 1), (1, 2))]
    elif (sys_id.family, sys_id.kind) == ("toda", "b"):
        pairs = [((3, 2), (1, 4))]
    elif (sys_id.family, sys_id.kind) == ("volterra", "a"):
        pairs = [((4, 2), (2, 4))]
    else:
        raise ValueError(f"no ladder relations cataloged for {sys_id}")
    for (k1, l1), (k2, l2) in pairs:
        lhs = hamiltonian_vf(catalog.tensor(sys_id, k1), catalog.hamiltonian(sys_id, l1))
        rhs = hamiltonian_vf(catalog.tensor(sys_id, k2), catalog.hamiltonian(sys_id, l2))
        rows.append(
            {"relation": f"pi{k1} dH{l1} = pi{k2} dH{l2}", "ok": lhs == rhs}
        )
    return {
        "check": "ladder",
        "system": str(sys_id),
        "ok": all(r["ok"] for r in rows),
        "relations": rows,
    }


REDUCTION_CASES = ("psi", "phi", "phi-volterra", "phi-tilde")


def _check_reduction(which: str, n: int) -> dict:
    if which == "psi":
        sys_a = catalog.SystemId("toda", "a", n + 1)
        group = reduction.FiniteGroupAction(catalog.symmetry_group("psi", sys_a))
        ambient = catalog.tensor(sys_a, 2)
        expected = catalog.tensor(catalog.SystemId("volterra", "a", n + 1), 2)
    elif which == "phi":
        sys_a = catalog.SystemId("toda", "a", 2 * n + 1)
        group = reduction.FiniteGroupAction(catalog.symmetry_group("phi_toda", sys_a))
        ambient = catalog.tensor(sys_a, 3)
        expected = catalog.tensor(catalog.SystemId("toda", "b", n), 3)
    elif which == "phi-volterra":
        sys_a = catalog.SystemId("volterra", "a", 2 * n + 1)
        group = reduction.FiniteGroupAction(
            catalog.symmetry_group("phi_volterra", sys_a)
        )
        ambient = catalog.tensor(sys_a, 4)
        expected = catalog.tensor(catalog.SystemId("volterra", "b", n), 4)
    elif which == "phi-tilde":
        sys_t = catalog.SystemId("toda", "a", 2 * n + 1)
        group = reduction.FiniteGroupAction.generated_by(
            catalog.symmetry("phi_tilde", sys_t)
        )
        ambient = catalog.embedded_volterra_tensor(2 * n + 1, 4, "Qi")
        expected = catalog.tensor(catalog.SystemId("volterra", "b", n), 4).to_gaussian()
    else:
        raise ValueError(f"unknown reduction case {which!r}")
    report = reduction.verify_reduction(ambient, group, None, expected)
    return {
        "check": "reduction",
        "case": which,
        "n": n,
        "ok": report.matches,
        "diffs": report.diffs,
    }


def _verify_all(max_rank: int) -> dict:
    results = []
    for n in range(2, max_rank + 1):
        for k in (1, 2, 3):
            results.append(_check_jacobi(f"toda-a:{n}", k))
    for n in range(1, max_rank + 1):
        for k in (1, 3):
            results.append(_check_jacobi(f"toda-b:{n}", k))
    for N in range(3, 2 * max_rank + 2):
        for k in (2, 4):
            results.append(_check_jacobi(f"volterra-a:{N}", k))
    for n in range(1, max_rank + 1):
        results.append(_check_jacobi(f"volterra-b:{n}", 4))
    for n in range(2, max_rank + 1):
        for pair in ((1, 2), (2, 3), (1, 3)):
            results.append(_check_compatible(f"toda-a:{n}", pair))
        results.append(_check_compatible(f"volterra-a:{n + 1}", (2, 4)))
        results.append(_check_deformation(f"toda-a:{n}"))
        results.append(_check_ladder(f"toda-a:{n}"))
        results.append(_check_ladder(f"volterra-a:{n + 1}"))
    for n in range(1, min(max_rank, 3) + 1):
        results.append(_check_ladder(f"toda-b:{n}"))
        for which in REDUCTION_CASES:
            results.append(_check_reduction(which, n))
    # pushforward sign table (the expected signs are the verified ones)
    for n in range(1, 3):
        sys_a = f"toda-a:{2 * n + 1}"
        for k in (1, 2, 3):
            row = _check_involution(sys_a, "phi_toda", k)
            row["ok"] = row["sign"] == (1 if k % 2 == 1 else -1)
            row["expected_sign"] = 1 if k % 2 == 1 else -1
            results.append(row)
    for n in range(2, max_rank + 1):
        for k in (1, 2, 3):
            row = _check_involution(f"toda-a:{n}", "psi", k)
            row["ok"] = row["sign"] == (-1) ** k
            row["expected_sign"] = (-1) ** k
            results.append(row)
    for n in range(1, 3):
        for k in (2, 4):
            row = _check_involution(f"volterra-a:{2 * n + 1}", "phi_volterra", k)
            row["ok"] = row["sign"] == (-1) ** (k // 2)
            row["expected_sign"] = (-1) ** (k // 2)
            results.append(row)
    ok = all(r["ok"] for r in results)
    return {"check": "all", "ok": ok, "max_rank": max_rank, "results": results}


def _cmd_verify(args) -> int:
    if args.what == "jacobi":
        doc = _check_jacobi(args.system, args.bracket)
    elif args.what == "compatible":
        k, l = (int(x) for x in args.brackets.split(","))
        doc = _check_compatible(args.system, (k, l))
    elif args.what == "deformation":
        doc = _check_deformation(args.system)
    elif args.what == "involution":
        doc = _check_involution(args.system, args.map, args.bracket)
    elif args.what == "ladder":
        doc = _check_ladder(args.system)
    elif args.what == "reduction":
        doc = _check_reduction(args.which, args.n)
    elif args.what == "all":
        doc = _verify_all(args.max_rank)
    else:  # pragma: no cover
        raise ValueError(args.what)
    doc["schema"] = f"{SCHEMA_PREFIX}/verify/v1"
    _emit(doc, args.format)
    return 0 if doc["ok"] else 1


# -------------------------------------------------------------------- reduce


def _cmd_reduce(args) -> int:
    sys_id = catalog.parse_system(args.system)
    name = {"psi": "psi", "phi_toda": "phi_toda", "phi_volterra": "phi_volterra",
            "phi_tilde": "phi_tilde"}[args.map]
    if name == "phi_tilde":
        group = reduction.FiniteGroupAction.generated_by(catalog.symmetry(name, sys_id))
        ambient = catalog.embedded_volterra_tensor(sys_id.n, args.bracket, "Qi")
    else:
        group = reduction.FiniteGroupAction(catalog.symmetry_group(name, sys_id))
        ambient = catalog.tensor(sys_id, args.bracket)
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
        with open(args.x0) as fh:
            data = json.load(fh)
        a = list(data.get("a", []))
        b = list(data.get("b", []))
        point = []
        for v in vars_:
            pool = a if v.startswith("a") else b
            idx = int(v[1:]) - 1
            if idx >= len(pool):
                raise ValueError(f"initial condition file lacks {v}")
            point.append(float(pool[idx]))
        return np.array(point)
    rng = random.Random(args.seed)
    if sys_id.family == "volterra" and sys_id.kind == "a":
        ranges = {"a": (0.1, 1.0)}  # the KM flow preserves positivity
    elif sys_id.family == "volterra":
        ranges = {"a": (-1.0, -0.1)}  # B-type sheet a_i = -2 x_i^2 < 0; a_n > 0 blows up
    else:
        ranges = {"a": (0.1, 1.0), "b": (-1.0, 1.0)}  # the a_i > 0 sheet
    return np.array([rng.uniform(*ranges[v[0]]) for v in vars_])


# The most a `simulate` run may ask for: the recorded states plus the
# [T, N, N] Lax arrays the monitors build from them (the matrices, a power
# and the next power).
MEMORY_BUDGET_BYTES = 1 << 30


def _estimated_bytes(sys_id, n_steps: int) -> int:
    """Bytes of n_steps + 1 recorded states and their Lax arrays.

    Worked out from the Lax size N alone (every family has at most 2N
    coordinates), so an oversized lattice is rejected before it is built.
    """
    N = catalog.lax_size(sys_id)
    return 8 * (n_steps + 1) * (2 * N + 3 * N * N)


def _cmd_simulate(args) -> int:
    sys_id = catalog.parse_system(args.system)
    if not math.isfinite(args.t_end / args.h):
        raise ValueError(
            f"--t-end / --h = {args.t_end!r} / {args.h!r} is not a finite number of steps"
        )
    need = _estimated_bytes(sys_id, int(round(args.t_end / args.h)))
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"run would need about {need / 2**30:.3g} GiB for its states and Lax "
            f"arrays (limit {MEMORY_BUDGET_BYTES / 2**30:g} GiB); "
            "lower --t-end or the lattice size, or raise --h"
        )
    if (sys_id.family, sys_id.kind) in (("volterra", "b"), ("volterra", "c")):
        vf = catalog.bn_volterra_flow(sys_id.n)
    else:
        vf = catalog.flow(sys_id, args.flow)
    x0 = _initial_point(args, sys_id)
    traj = flows.integrate(vf, x0, args.t_end, args.h, record_stride=1)
    report = flows.monitors(traj, sys_id)
    if args.format == "json":
        doc = {
            "schema": f"{SCHEMA_PREFIX}/simulate/v1",
            "system": str(sys_id),
            "flow": args.flow,
            "t_end": args.t_end,
            "h": args.h,
            "seed": args.seed,
            "x0": [float(x) for x in x0],
            "backend": "numpy",
            "monitors": report.to_json_dict(),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        text = flows.trajectory_csv(traj, sys_id, decimate=args.decimate)
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
        "x_system": [
            f"{v}' = {p.canonical_str()}"
            for v, p in zip(xsys.variables, xsys.components)
        ],
    }
    form = bogo.volterra_form(rd)
    if form is not None:
        target, sub = form
        doc["volterra_change_of_variables"] = {
            a: sub[a].canonical_str() for a in target
        }
        transformed = bogo.transformed_x_system(rd)
        doc["volterra_form"] = [
            f"{v}' = {p.canonical_str()}"
            for v, p in zip(transformed.variables, transformed.components)
        ]
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
        "flow": [
            f"{v}' = {p.canonical_str()}"
            for v, p in zip(flow.variables, flow.components)
        ],
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todavolterra",
        description="Exact multi-Hamiltonian structures and flows of Toda and "
        "Volterra lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run symbolic verifications")
    vsub = pv.add_subparsers(dest="what", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--seed", type=int, default=0)

    p = vsub.add_parser("jacobi")
    p.add_argument("--system", required=True)
    p.add_argument("--bracket", type=int, required=True)
    add_common(p)

    p = vsub.add_parser("compatible")
    p.add_argument("--system", required=True)
    p.add_argument("--brackets", required=True, help="e.g. 1,2")
    add_common(p)

    p = vsub.add_parser("deformation")
    p.add_argument("--system", required=True)
    add_common(p)

    p = vsub.add_parser("involution")
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True,
                   choices=("psi", "phi_toda", "phi_volterra", "phi_tilde"))
    p.add_argument("--bracket", type=int, required=True)
    add_common(p)

    p = vsub.add_parser("ladder")
    p.add_argument("--system", required=True)
    add_common(p)

    p = vsub.add_parser("reduction")
    p.add_argument("--which", choices=REDUCTION_CASES, required=True)
    p.add_argument("--n", type=int, default=2)
    add_common(p)

    p = vsub.add_parser("all")
    p.add_argument("--max-rank", type=int, default=4)
    add_common(p)

    p = sub.add_parser("reduce", help="emit a reduced bracket")
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True,
                   choices=("psi", "phi_toda", "phi_volterra", "phi_tilde"))
    p.add_argument("--bracket", type=int, required=True)
    add_common(p)

    p = sub.add_parser("simulate", help="integrate a lattice flow")
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
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", type=int, required=True)
    add_common(p)

    p = sub.add_parser("moser", help="squaring map to Toda form")
    p.add_argument("--N", type=int, required=True, help="odd Lax size >= 5")
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bogo":
            return _cmd_bogo(args)
        if args.command == "moser":
            return _cmd_moser(args)
        parser.error(f"unknown command {args.command}")
    except (ValueError, KeyError, OSError, ZeroDivisionError,
            flows.NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The paper's exact identities, each stated once, and the checks that run them.

The identities are module-level tables: the compatible pairs, the
deformation relations, the ladders, the pushforward sign rules and the
fixed-point reductions (the catalog brackets themselves are
`catalog.BRACKETS`).  Each check function takes one parsed `SystemId` or
reduction case and returns the document `verify` emits, with an "ok" field;
`verify_all` runs the tables over the sizes `verify all --max-rank` asks
for.  The acceptance suite calls the same functions over its own sizes.
"""

from __future__ import annotations

from . import catalog, reduction
from .catalog import SystemId
from .poisson import (
    directional_action,
    hamiltonian_vf,
    is_compatible,
    jacobiator,
    lie_derivative_bivector,
    pushforward_sign,
)

# Pairs (k, l) of catalog brackets whose sum pi_k + pi_l is again Poisson.
COMPATIBLE_PAIRS = {
    "toda-a": ((1, 2), (2, 3), (1, 3)),
    "volterra-a": ((2, 4),),
}

# Master-symmetry deformation relations on toda-a, Z0 the Euler field and Z1
# the master symmetry: (name, Z, l, c, m) states L_Z pi_l = c pi_m ...
BIVECTOR_DEFORMATIONS = (
    ("L_Z0 pi1 = -1 pi1", "Z0", 1, -1, 1),
    ("L_Z0 pi2 = 0 pi2", "Z0", 2, 0, 2),
    ("L_Z0 pi3 = 1 pi3", "Z0", 3, 1, 3),
    ("L_Z1 pi1 = -2 pi2", "Z1", 1, -2, 2),
    ("L_Z1 pi2 = -pi3", "Z1", 2, -1, 3),
)
# ... and Z(H_l) = c H_m.
HAMILTONIAN_DEFORMATIONS = (
    ("Z0(H1) = 1 H1", "Z0", 1, 1, 1),
    ("Z1(H1) = 2 H2", "Z1", 1, 2, 2),
    ("Z0(H2) = 2 H2", "Z0", 2, 2, 2),
    ("Z1(H2) = 3 H3", "Z1", 2, 3, 3),
    ("Z0(H3) = 3 H3", "Z0", 3, 3, 3),
    ("Z1(H3) = 4 H4", "Z1", 3, 4, 4),
)

# Bi-Hamiltonian ladders: ((k1, l1), (k2, l2)) states pi_k1 dH_l1 = pi_k2 dH_l2.
LADDERS = {
    "toda-a": (((3, 1), (2, 2)), ((2, 2), (1, 3)), ((2, 1), (1, 2))),
    "toda-b": (((3, 2), (1, 4)),),
    "volterra-a": (((4, 2), (2, 4)),),
}

# The sign s(k) with map_* pi_k = s(k) pi_k.  The index mirror phi_toda has
# the same rule on both parities of N; phi_tilde acts on the volterra-a
# tensor embedded in the toda-a phase space (see `acted_tensor`), on whose
# a's it acts as phi_volterra does, so it has phi_volterra's rule.
SIGNS = {
    "psi": lambda k: (-1) ** k,
    "phi_toda": lambda k: (-1) ** (k + 1),
    "phi_volterra": lambda k: (-1) ** (k // 2),
    "phi_tilde": lambda k: (-1) ** (k // 2),
}

# Fixed-point reductions, by `verify reduction --which`: n -> (ambient
# system, map, bracket k, system whose pi_k the reduced bracket equals).
REDUCTIONS = {
    "psi": lambda n: (
        SystemId("toda", "a", n + 1), "psi", 2, SystemId("volterra", "a", n + 1)),
    "phi": lambda n: (
        SystemId("toda", "a", 2 * n + 1), "phi_toda", 3, SystemId("toda", "b", n)),
    "phi-volterra": lambda n: (
        SystemId("volterra", "a", 2 * n + 1), "phi_volterra", 4, SystemId("volterra", "b", n)),
    "phi-tilde": lambda n: (
        SystemId("toda", "a", 2 * n + 1), "phi_tilde", 4, SystemId("volterra", "b", n)),
}


def jacobi(sys_id: SystemId, k: int) -> dict:
    jac = jacobiator(catalog.tensor(sys_id, k))
    bad = {f"({i + 1},{j + 1},{l + 1})": p.canonical_str() for (i, j, l), p in jac.items()}
    return {
        "check": "jacobi",
        "system": str(sys_id),
        "bracket": k,
        "ok": not bad,
        "nonzero_jacobiator": bad,
    }


def compatible(sys_id: SystemId, pair: tuple[int, int]) -> dict:
    k, l = pair
    ok = is_compatible(catalog.tensor(sys_id, k), catalog.tensor(sys_id, l))
    return {"check": "compatible", "system": str(sys_id), "brackets": [k, l], "ok": ok}


def _relations(check: str, sys_id: SystemId, rows: list[dict]) -> dict:
    return {
        "check": check,
        "system": str(sys_id),
        "ok": all(r["ok"] for r in rows),
        "relations": rows,
    }


def deformation(sys_id: SystemId) -> dict:
    Z = {"Z0": catalog.euler_field(sys_id), "Z1": catalog.master_symmetry(sys_id)}
    pi = {l: catalog.tensor(sys_id, l) for l in (1, 2, 3)}
    H = {l: catalog.hamiltonian(sys_id, l) for l in (1, 2, 3, 4)}
    rows = [
        {"relation": name, "ok": lie_derivative_bivector(Z[z], pi[l]) == pi[m].scale(c)}
        for name, z, l, c, m in BIVECTOR_DEFORMATIONS
    ]
    rows += [
        {"relation": name, "ok": directional_action(Z[z], H[l]) == H[m].scale(c)}
        for name, z, l, c, m in HAMILTONIAN_DEFORMATIONS
    ]
    return _relations("deformation", sys_id, rows)


def ladder(sys_id: SystemId) -> dict:
    if sys_id.name not in LADDERS:
        raise ValueError(f"no ladder relations cataloged for {sys_id}")
    rows = []
    for (k1, l1), (k2, l2) in LADDERS[sys_id.name]:
        lhs = hamiltonian_vf(catalog.tensor(sys_id, k1), catalog.hamiltonian(sys_id, l1))
        rhs = hamiltonian_vf(catalog.tensor(sys_id, k2), catalog.hamiltonian(sys_id, l2))
        rows.append({"relation": f"pi{k1} dH{l1} = pi{k2} dH{l2}", "ok": lhs == rhs})
    return _relations("ladder", sys_id, rows)


def acted_tensor(sys_id: SystemId, map_name: str, k: int):
    """The tensor pi_k that map_name acts on in sys_id.

    phi_tilde is Gaussian and preserves no catalog tensor of toda-a, so its
    tensor is the volterra-a pi_k embedded with zero b-rows, which exists for
    k = 2 and 4 only.
    """
    if map_name == "phi_tilde":
        if k not in catalog.BRACKETS["volterra-a"]:
            raise ValueError(
                f"phi_tilde is checked on the embedded volterra-a pi2 and pi4 only, got pi_{k}"
            )
        return catalog.embedded_volterra_tensor(sys_id.n, k)
    return catalog.tensor(sys_id, k)


def involution(sys_id: SystemId, map_name: str, k: int) -> dict:
    """The sign of map_* pi_k; ok when the map is Poisson (sign 1)."""
    g = catalog.symmetry(map_name, sys_id)
    sign = pushforward_sign(g, acted_tensor(sys_id, map_name, k))
    return {
        "check": "involution",
        "system": str(sys_id),
        "map": map_name,
        "bracket": k,
        "sign": sign,
        "ok": sign == 1,
    }


def pushforward(sys_id: SystemId, map_name: str, k: int) -> dict:
    """`involution`, with ok when the sign is the one SIGNS states."""
    row = involution(sys_id, map_name, k)
    row["expected_sign"] = SIGNS[map_name](k)
    row["ok"] = row["sign"] == row["expected_sign"]
    return row


def ambient_and_group(sys_id: SystemId, map_name: str, k: int):
    """The tensor pi_k that map_name acts on in sys_id, and the group it generates."""
    group = catalog.symmetry_group(map_name, sys_id)
    return acted_tensor(sys_id, map_name, k), group


def fixed_point_reduction(which: str, n: int) -> dict:
    """The REDUCTIONS case `which` at n, entry by entry."""
    if which not in REDUCTIONS:
        raise ValueError(f"unknown reduction case {which!r}")
    sys_id, map_name, k, target = REDUCTIONS[which](n)
    ambient, group = ambient_and_group(sys_id, map_name, k)
    diffs = reduction.verify_reduction(ambient, group, catalog.tensor(target, k))
    return {"check": "reduction", "case": which, "n": n, "ok": not diffs, "diffs": diffs}


def verify_all(max_rank: int) -> dict:
    """Every table above, on the systems of rank at most max_rank."""
    results = []
    jacobi_sizes = {
        "toda-a": range(2, max_rank + 1),
        "toda-b": range(1, max_rank + 1),
        "volterra-a": range(3, 2 * max_rank + 2),
        "volterra-b": range(1, max_rank + 1),
    }
    for name, sizes in jacobi_sizes.items():
        for n in sizes:
            results += [jacobi(SystemId(*name.split("-"), n), k) for k in catalog.BRACKETS[name]]
    for n in range(2, max_rank + 1):
        toda, volterra = SystemId("toda", "a", n), SystemId("volterra", "a", n + 1)
        results += [compatible(toda, p) for p in COMPATIBLE_PAIRS["toda-a"]]
        results += [compatible(volterra, p) for p in COMPATIBLE_PAIRS["volterra-a"]]
        results += [deformation(toda), ladder(toda), ladder(volterra)]
    for n in range(1, min(max_rank, 3) + 1):
        results.append(ladder(SystemId("toda", "b", n)))
        results += [fixed_point_reduction(which, n) for which in REDUCTIONS]
    signs = [(SystemId("toda", "a", 2 * n + 1), "phi_toda") for n in (1, 2)]
    signs += [(SystemId("toda", "a", n), "psi") for n in range(2, max_rank + 1)]
    signs += [(SystemId("volterra", "a", 2 * n + 1), "phi_volterra") for n in (1, 2)]
    for sys_id, map_name in signs:
        results += [pushforward(sys_id, map_name, k) for k in catalog.BRACKETS[sys_id.name]]
    ok = all(r["ok"] for r in results)
    return {"check": "all", "ok": ok, "max_rank": max_rank, "results": results}

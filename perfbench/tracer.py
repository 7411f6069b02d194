"""Per-layer tracing of one pass, installed from outside the package.

Each traced public function is replaced at every name it is looked up under
(`cli` binds the `poisson` operations by name, `catalog` binds
`hamiltonian_vf`, `reduction` binds `pushforward_bivector`, `moser` and `bogo`
bind `solve_exact`, `flows` binds the RK4 kernel), so no call escapes the
span.  Spans are kept in memory with their parent's id; a layer's time is its
self time, the span's duration minus the time its child spans cover, so a
nested call such as is_compatible -> is_poisson -> jacobiator is counted once.
Hot `polyalg` methods are counted, not spanned.  Work the tracer does to
compute a ratio runs after the span closes and shows up only as tracing
overhead.  A traced name the package does not have makes `install` fail, so
a renamed or removed layer fails the traced run instead of reading 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, public functions traced as spans)
SPANNED = {
    "poisson": ("poisson", ["jacobiator", "is_poisson", "is_compatible",
                          "lie_derivative_bivector", "pushforward_bivector",
                          "pushforward_sign", "pushforward_vf", "hamiltonian_vf",
                          "directional_action", "bracket"]),
    "catalog": ("catalog", ["tensor", "hamiltonian", "lax", "flow", "symmetry",
                          "symmetry_group", "embedded_volterra_tensor",
                          "euler_field", "master_symmetry", "bn_volterra_flow"]),
    "reduction": ("reduction", ["verify_reduction", "reduced_bracket"]),
    "linsolve": ("_linsolve", ["solve_exact"]),
    "moser": ("moser", ["square_and_split", "identify_jacobi", "x_lax", "x_flow"]),
    "bogo": ("bogo", ["root_data", "sign_matrix", "edges", "b_system_rhs",
                    "x_system_rhs", "volterra_form", "transformed_x_system"]),
    "flows": ("flows", ["compile_field", "integrate", "monitors", "hamiltonian_values",
                      "lax_values", "charpoly_coefficients", "trajectory_csv"]),
}

# counter -> (polyalg class, methods whose calls it counts)
COUNTED = {
    "poly_new": ("Poly", ["__init__"]),
    "mul": ("Poly", ["__mul__"]),
    "add": ("Poly", ["__add__"]),
    "diff": ("Poly", ["diff"]),
    "subst_linear": ("Poly", ["subst_linear"]),
    "gauss_arith": ("GaussianRational",
                    ["__mul__", "__rmul__", "__truediv__", "__rtruediv__"]),
}


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"todavolterra.{module}"), name)
    except (ImportError, AttributeError):
        return None


def jacobiator_products(pi) -> tuple[int, int]:
    """(useful, visited) products pi^al * d_l pi^bc of the dense Jacobiator.

    The dense loop visits every l for every cyclic term of every triple
    i < j < k; a product is useful when both factors are nonzero.
    """
    m = pi.dim
    nonzero_row = defaultdict(set)
    support = {}
    for (i, j), p in pi.upper.items():
        if p.is_zero:
            continue
        nonzero_row[i].add(j)
        nonzero_row[j].add(i)
        support[(i, j)] = support[(j, i)] = {
            v for expo in p.terms for v, e in enumerate(expo) if e
        }
    useful = 0
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for a, bc in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    useful += len(nonzero_row[a] & support.get(bc, set()))
    return useful, 3 * m * (m * (m - 1) * (m - 2) // 6)


class Tracer:
    """Spans and counts of one pass; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._last_hamiltonian_terms = 0

    # ----------------------------------------------------------- patching

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> list[str]:
        """Wrap every traced function wherever it is bound; returns the bind sites.

        Raises LookupError, with nothing patched, if a traced name is missing.
        """
        hooks = {
            "poisson.jacobiator": self._after_jacobiator,
            "catalog.hamiltonian": self._after_hamiltonian,
            "flows.hamiltonian_values": self._after_hamiltonian_values,
            "kernels.rk4_integrate": self._after_rk4,
        }
        targets = [(f"{layer}.{fn}", module, fn)
                   for layer, (module, names) in SPANNED.items() for fn in names]
        targets.append(("kernels.rk4_integrate", "_kernels", "rk4_integrate"))
        missing = [label for label, module_name, fn in targets
                   if _lookup(module_name, fn) is None]
        polyalg = {cls: _lookup("polyalg", cls) for cls, _ in COUNTED.values()}
        missing += [f"polyalg.{cls}.{name}" for cls, names in COUNTED.values()
                    for name in names if polyalg[cls] is None or name not in vars(polyalg[cls])]
        if missing:
            raise LookupError(f"traced names not found in todavolterra: {missing}")
        package = [m for n, m in sys.modules.items() if n.startswith("todavolterra")]
        sites = []
        for label, module_name, fn in targets:
            original = _lookup(module_name, fn)
            wrapper = self._spanned(label, original, hooks.get(label))
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
                        sites.append(f"{module.__name__}.{attr}")
        for label, (cls_name, names) in COUNTED.items():
            cls = polyalg[cls_name]
            for name in names:
                self._patch(cls, name, self._counted(label, cls.__dict__[name]))
        return sites

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------ wrappers

    def _spanned(self, label, fn, hook):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), label, clock(), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                spans.append((frame[0], parent[0] if parent else None, label,
                              frame[2], end, frame[3]))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------------- hooks

    def _after_jacobiator(self, args, result) -> None:
        useful, visited = jacobiator_products(args[0])
        self.counts["jacobiator.useful"] += useful
        self.counts["jacobiator.visited"] += visited

    def _after_hamiltonian(self, args, result) -> None:
        self._last_hamiltonian_terms = len(result.terms)
        self.counts["hamiltonian.terms"] += len(result.terms)

    def _after_hamiltonian_values(self, args, result) -> None:
        # the dense [T, terms, dim] float64 array `eval_many` computes
        T, dim = args[2].shape
        self.counts["hamiltonian_values.bytes"] += T * self._last_hamiltonian_terms * dim * 8

    def _after_rk4(self, args, result) -> None:
        coefs, x0 = args[0], args[3]
        steps = result[1]
        self.counts["integrate.steps"] += steps
        # four field evaluations per step, each over a dense [nnz, dim] array
        self.counts["kernels.bytes"] += steps * 4 * len(coefs) * len(x0) * 8

    # ------------------------------------------------------------- summary

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, _, label, start, end, child in self.spans:
            out[label] += (end - start) - child
        return dict(out)

    def calls(self) -> Counter:
        return Counter(label for _, _, label, _, _, _ in self.spans)

"""RK4 kernel for compiled polynomial vector fields.

A compiled field is a CSR-style triple (coefs, expts, comp_ptr): component i
is the sum of coefs[t] * prod_v x_v**expts[t, v] over t in
[comp_ptr[i], comp_ptr[i+1]).

Each field runs as generated code: `compile_step` builds, once per field, one
straight-line Python function over Python floats that does the four stages
and the update of a step, with the step loop around it.  The loop appends
each state to a flat list; `rk4_integrate` runs it one chunk of steps at a
time, copies each chunk into the output array it preallocates and looks for
the first non-finite state there.  A monomial is
the product of its factors from left to right: the variables of its exponent
row in increasing order, each repeated by its exponent (a3^2 is a3 * a3), so
no power function is called.  A component adds its terms in CSR order
starting from 0.0.  The source holds only `repr(float)` coefficients and
integer positions.
"""

from __future__ import annotations

import numpy as np

# Terms added per generated statement.  CPython's compiler recurses once per
# `+` of an expression and fails near 3000 of them (Python 3.11), so a longer
# component sum is split into statements that continue it in the same order.
_TERMS_PER_LINE = 100


# Term evaluations per chunk of recorded steps, steps x (terms + dim).  Float
# `+` and `*` never raise, so a run that leaves float range goes on to the
# end of its chunk; on a 2-vCPU x86 VM a term costs 230-500 ns per step, so
# that wastes at most about 10 ms.
CHUNK_WORK = 20_000


def chunk_steps(n_terms: int, dim: int) -> int:
    """Steps per recorded chunk of a field with n_terms terms in dim variables."""
    return max(1, CHUNK_WORK // (n_terms + dim))


def rk4_integrate(coefs, expts, comp_ptr, x0, h, n_steps, step):
    """Fixed-step RK4 of the field (coefs, expts, comp_ptr); records every
    state, x0 included.

    `step` is that field's `compile_step`, built once per field, so a field
    integrated many times is compiled once; the run itself reads only `step`
    and x0.  Returns (states, n_completed): integration stops after the chunk
    in which the state leaves float range, with n_completed the number of
    steps before the first non-finite state.
    """
    dim = len(x0)
    out = np.empty((n_steps + 1, dim))
    out[0] = x0
    x, h = x0.tolist(), float(h)
    chunk = chunk_steps(len(coefs), dim)
    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        record: list[float] = []
        x = step(record, x, h, m)
        rows = out[start + 1 : start + 1 + m]
        rows[:] = np.fromiter(record, float, m * dim).reshape(m, dim)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            done = start + int(bad.argmax())
            return out[: done + 1], done
    return out, n_steps


def term_factors(expts):
    """Each term's factors, the variable positions its monomial multiplies
    from left to right: its variables in increasing order, each repeated by
    its exponent (a3^2 is [2, 2]; a constant term has none)."""
    factors = [[] for _ in range(len(expts))]
    # np.nonzero walks the rows in order, columns increasing
    rows, cols = np.nonzero(expts)
    for t, v, e in zip(rows.tolist(), cols.tolist(), expts[rows, cols].tolist()):
        factors[t] += [v] * e
    return factors


def _sum_lines(target, coefs, factors, lo, hi, name):
    """Statements that set `target` to one component: its terms added to 0.0
    in order, `_TERMS_PER_LINE` per statement."""
    terms = []
    for t in range(lo, hi):
        c = coefs[t]
        mono = " * ".join(f"{name}{v}" for v in factors[t])
        if not mono:
            terms.append(f" + {c!r}")
        elif c == 1.0:
            terms.append(f" + {mono}")
        elif c == -1.0:
            terms.append(f" - {mono}")
        else:
            terms.append(f" + {c!r} * ({mono})")
    lines = [f"        {target} = 0.0" + "".join(terms[:_TERMS_PER_LINE])]
    for s in range(_TERMS_PER_LINE, len(terms), _TERMS_PER_LINE):
        lines.append(f"        {target} = {target}" + "".join(terms[s : s + _TERMS_PER_LINE]))
    return lines


def compile_step(coefs, expts, comp_ptr):
    """Compile `run(record, x, h, n_steps) -> x` for one field: n_steps
    steps from the state x, each state appended to the list `record`, and
    the last state returned.

    Local names are x<i> (state), y<i> (stage point) and k1_<i>..k4_<i>
    (stage slopes), built from integer positions.  c * m is written + m or
    - m for c = 1.0 or -1.0, which IEEE arithmetic gives the same bits.
    """
    coefs = coefs.tolist()
    factors = term_factors(expts)
    comps = range(len(comp_ptr) - 1)
    state = "".join(f"x{i}, " for i in comps)

    def stage(k, name):
        return [
            line
            for i in comps
            for line in _sum_lines(f"k{k}_{i}", coefs, factors, comp_ptr[i], comp_ptr[i + 1], name)
        ]

    lines = [
        "def run(record, x, h, n_steps):",
        f"    ({state}) = x",
        "    hh = 0.5 * h",
        "    h6 = h / 6.0",
        "    append = record.extend",
        "    for _ in range(n_steps):",
        *stage(1, "x"),
        *[f"        y{i} = x{i} + hh * k1_{i}" for i in comps],
        *stage(2, "y"),
        *[f"        y{i} = x{i} + hh * k2_{i}" for i in comps],
        *stage(3, "y"),
        *[f"        y{i} = x{i} + h * k3_{i}" for i in comps],
        *stage(4, "y"),
        *[f"        x{i} = x{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
          for i in comps],
        f"        append(({state}))",
        f"    return ({state})",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<generated rk4 step>", "exec"), namespace)
    return namespace["run"]

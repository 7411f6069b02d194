"""RK4 kernel for compiled polynomial vector fields.

A compiled field is a CSR-style triple (coefs, expts, comp_ptr): component i
is the sum of coefs[t] * prod_v x_v**expts[t, v] over t in
[comp_ptr[i], comp_ptr[i+1]).

The kernel reads one factor table (`factor_table`): row t lists the
variables term t uses, in increasing order, each repeated by its exponent
(a3^2 is the two factors a3, a3), padded to a common width with the position
`dim` of a constant 1.0 slot.  A monomial is the product of its factors from
left to right, so no power function is called, and a component adds its
terms in CSR order starting from 0.0.

Each field runs as generated code: `compile_step` builds, once per field, one
straight-line Python function over Python floats that does the four stages
and the update of a step, with the step loop around it, and writes each
recorded state into the output array that `rk4_integrate` preallocates.  Its
source holds only `repr(float)` coefficients and integer positions.
`eval_field` evaluates one point from the same table in numpy gather form
(take, multiply.reduce, bincount), with the same operations in the same
order, so it gives the generated step's field values bit for bit.
"""

from __future__ import annotations

import numpy as np

# Terms added per generated statement.  CPython's compiler recurses once per
# `+` of an expression and fails near 3000 of them (Python 3.11), so a longer
# component sum is split into statements that continue it in the same order.
_TERMS_PER_LINE = 100


def factor_table(expts: np.ndarray, comp_ptr: np.ndarray):
    """The factor table (fidx, comp) of a compiled field.

    Row t of fidx holds the variables term t uses, in increasing order, each
    repeated by its exponent; unused slots hold dim, the position of a
    constant 1.0 appended to the state.  comp[t] is the component term t
    belongs to.
    """
    nnz, dim = expts.shape
    rows, cols = np.nonzero(expts)
    reps = expts[rows, cols]
    degree = np.bincount(rows, weights=reps, minlength=nnz).astype(np.intp)
    width = int(degree.max()) if nnz else 0
    rows, cols = np.repeat(rows, reps), np.repeat(cols, reps)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
    fidx = np.full((nnz, width), dim, dtype=np.intp)
    fidx[rows, slot] = cols
    comp = np.repeat(np.arange(len(comp_ptr) - 1), np.diff(comp_ptr))
    return fidx, comp


def eval_field(coefs, expts, comp_ptr, x):
    """Evaluate all components at one point x (shape [dim])."""
    fidx, comp = factor_table(expts, comp_ptr)
    mono = np.multiply.reduce(np.append(x, 1.0).take(fidx), axis=1)
    return np.bincount(comp, weights=coefs * mono, minlength=len(comp_ptr) - 1)


def compile_step(coefs, expts, comp_ptr):
    """The generated RK4 step of one compiled field (see `_generated_rk4`)."""
    fidx, _ = factor_table(expts, comp_ptr)
    return _generated_rk4(coefs, fidx, comp_ptr, len(comp_ptr) - 1)


def rk4_integrate(coefs, expts, comp_ptr, x0, h, n_steps, stride, step):
    """Fixed-step RK4 of the field (coefs, expts, comp_ptr); records every
    `stride`-th state (including x0).

    `step` is that field's `compile_step`, built once per field, so a field
    integrated many times is compiled once; the run itself reads only `step`
    and x0.  Returns (states, n_completed): integration stops early if the
    state leaves float range, with n_completed the number of finished steps.
    """
    out = np.empty((n_steps // stride + 1, len(x0)))
    out[0] = x0
    rec, done = step(out, x0.tolist(), float(h), n_steps, stride)
    return out[:rec], done


def _sum_lines(target, coefs, fidx, lo, hi, dim, name):
    """Statements that set `target` to one component: its terms added to 0.0
    in order, `_TERMS_PER_LINE` per statement."""
    terms = []
    for t in range(lo, hi):
        c = float(coefs[t])
        factors = [f"{name}{v}" for v in fidx[t] if v != dim]
        mono = " * ".join(factors)
        if not factors:
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


def _generated_rk4(coefs, fidx, comp_ptr, dim):
    """Compile `run(out, x, h, n_steps, stride) -> (rec, done)` for one field.

    Local names are x<i> (state), y<i> (stage point) and k1_<i>..k4_<i>
    (stage slopes), built from integer positions.  c * m is written + m or
    - m for c = 1.0 or -1.0, which IEEE arithmetic gives the same bits; a
    step is non-finite when sum(v - v) over the state is not 0.0.
    """
    comps = range(dim)
    state = "".join(f"x{i}, " for i in comps)

    def stage(k, name):
        return [
            line
            for i in comps
            for line in _sum_lines(f"k{k}_{i}", coefs, fidx, comp_ptr[i], comp_ptr[i + 1], dim, name)
        ]

    lines = [
        "def run(out, x, h, n_steps, stride):",
        f"    ({state}) = x",
        "    hh = 0.5 * h",
        "    h6 = h / 6.0",
        "    rec = 1",
        "    for step in range(n_steps):",
        *stage(1, "x"),
        *[f"        y{i} = x{i} + hh * k1_{i}" for i in comps],
        *stage(2, "y"),
        *[f"        y{i} = x{i} + hh * k2_{i}" for i in comps],
        *stage(3, "y"),
        *[f"        y{i} = x{i} + h * k3_{i}" for i in comps],
        *stage(4, "y"),
        *[f"        x{i} = x{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
          for i in comps],
        "        if sum((" + "".join(f"x{i} - x{i}, " for i in comps) + ")) != 0.0:",
        "            return rec, step",
        "        if (step + 1) % stride == 0:",
        f"            out[rec] = ({state})",
        "            rec += 1",
        "    return rec, n_steps",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<generated rk4 step>", "exec"), namespace)
    return namespace["run"]

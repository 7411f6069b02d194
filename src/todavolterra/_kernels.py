"""RK4 kernel for compiled polynomial vector fields.

A compiled field is a CSR-style triple (coefs, expts, comp_ptr): component i
is the sum of coefs[t] * prod_v x_v**expts[t, v] over t in
[comp_ptr[i], comp_ptr[i+1]).

The kernel evaluates it in gather form.  `factor_table` keeps, for each term,
only the variables it uses and their exponents, padded to a common width
with a factor x_0**0 == 1; every catalog flow has width <= 2.  A field
evaluation then gathers a [nnz, width] table of values, raises it to the
exponents, takes the product of each row and scatter-adds the terms into
their components with `np.bincount`, so it costs O(nnz * width) instead of
the O(nnz * dim) of the dense `prod(x**expts)`.  Terms are summed in the same
order as in the dense form, and a product of at most two factors other than
1 does not depend on where the ones sit, so for width <= 2 the values are
bit-identical to the dense form's.
"""

from __future__ import annotations

import warnings

import numpy as np


def factor_table(expts: np.ndarray, comp_ptr: np.ndarray):
    """Gather-form tables (idx, pows, comp) of a compiled field.

    Row t of idx / pows holds the variables term t uses, in increasing
    order, and their exponents (as floats, the type `np.power` computes
    in); unused slots hold variable 0 with exponent 0.  comp[t] is the
    component term t belongs to.
    """
    nnz = expts.shape[0]
    rows, cols = np.nonzero(expts)
    counts = np.bincount(rows, minlength=nnz)
    width = int(counts.max()) if nnz else 0
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((nnz, width), dtype=np.intp)
    pows = np.zeros((nnz, width))
    idx[rows, slot] = cols
    pows[rows, slot] = expts[rows, cols]
    comp = np.repeat(np.arange(len(comp_ptr) - 1), np.diff(comp_ptr))
    return idx, pows, comp


def _field(coefs, idx, pows, comp, n_comp, x):
    mono = np.multiply.reduce(np.power(x[idx], pows), axis=1)
    return np.bincount(comp, weights=coefs * mono, minlength=n_comp)


def eval_field(coefs, expts, comp_ptr, x):
    """Evaluate all components at one point x (shape [dim])."""
    idx, pows, comp = factor_table(expts, comp_ptr)
    return _field(coefs, idx, pows, comp, len(comp_ptr) - 1, x)


def rk4_integrate(coefs, expts, comp_ptr, x0, h, n_steps, stride):
    """Fixed-step RK4; records every `stride`-th state (including x0).

    Returns (states, n_completed): integration stops early if the state
    leaves float range, with n_completed the number of finished steps.
    """
    idx, pows, comp = factor_table(expts, comp_ptr)
    n_comp = len(comp_ptr) - 1

    def f(x):
        return _field(coefs, idx, pows, comp, n_comp, x)

    dim = len(x0)
    n_rec = n_steps // stride + 1
    out = np.empty((n_rec, dim))
    out[0] = x0
    x = x0.astype(float).copy()
    rec = 1
    # An overflow is caught by the finiteness test below, so numpy's warning
    # about it is dropped.  A warnings filter costs nothing until a warning
    # is raised; np.errstate(over="ignore") slowed each step by about 2%
    # (toda-a:8, 2-vCPU VM).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for step in range(n_steps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                return out[:rec], step
            if (step + 1) % stride == 0:
                out[rec] = x
                rec += 1
    return out[:rec], n_steps

"""RK4 kernel for compiled polynomial vector fields.

A compiled field is a triple (coefs, factors, comp_ptr): component i is the
sum of coefs[t] times the product of x_v over v in factors[t], for t in
[comp_ptr[i], comp_ptr[i+1]).  A term's factors are the variable positions
its monomial multiplies from left to right: its variables in increasing
order, each repeated by its exponent (a3^2 is [2, 2]; a constant has none).

Each field runs as generated code: `compile_step` builds, once per field, one
straight-line Python function over Python floats that does the four stages
and the update of a step, with the step loop around it.  The loop packs
each state's floats straight into its row of the output array that
`rk4_integrate` preallocates (`struct` `pack_into` of native doubles, the
same 8 bytes per float a numpy float64 holds), so no state becomes a Python
object beyond its floats.  `rk4_integrate` runs the loop one chunk of steps
at a time only to look for the first non-finite state after each chunk.
The source holds only `repr(float)` coefficients, integer positions and
the row size in bytes.

What a stage computes, and why the states are those of the plain form (each
monomial written out in full, each component sum started from 0.0):

* A monomial is the product of its factors from left to right (a3^2 is
  a3 * a3), so no power function is called.  Its value is therefore the
  value of its longest proper prefix times its last factor, bit for bit.
  A stage names each product that two or more terms or longer products
  start with once (`p3 = y0 * y1`) and builds on the name; every product
  is still the same multiplications in the same order.
* A component adds its terms in order, starting from its first term (a
  first term with coefficient -1.0 is a unary minus).  Starting from 0.0
  instead changes at most the sign of a zero: 0.0 + t is t unless t is
  -0.0, 0.0 - m is -m unless m is 0.0, and a sum does not depend on the
  sign of a zero addend unless it is zero itself.  So every slope, and the weighted
  sum of the four, equals the plain form's up to the sign of a zero, and
  it enters the state only as x + c * s with c > 0.  x + (+0.0) and
  x + (-0.0) differ only when x is -0.0, so the sign can reach a state only
  through a coordinate that is -0.0.  `run` removes those on entry with
  x_i = x_i + 0.0, which changes no other value (a product with a zero
  factor again differs at most in the sign of a zero), and from then on no
  coordinate is -0.0, since x + c * s is -0.0 only when both addends are.
  The first recorded row is x0 itself, -0.0 included.
"""

from __future__ import annotations

import struct

import numpy as np

# Terms added per generated statement.  CPython's compiler recurses once per
# `+` of an expression and fails near 3000 of them (Python 3.11), so a longer
# component sum is split into statements that continue it in the same order.
_TERMS_PER_LINE = 100


# Term evaluations per chunk of steps, steps x (terms + dim).  The chunk
# bounds only the size of the finiteness scan after it and the overshoot
# after an escape: float `+` and `*` never raise, so a run that leaves float
# range goes on to the end of its chunk.  On a 2-vCPU x86 VM a step costs
# 53-60 ns per term or variable (80-97 ns per term; 150-390 ns before shared
# products were named), so that wastes at most about 1.2 ms.
CHUNK_WORK = 20_000


def chunk_steps(n_terms: int, dim: int) -> int:
    """Steps per chunk of a field with n_terms terms in dim variables."""
    return max(1, CHUNK_WORK // (n_terms + dim))


def rk4_integrate(coefs, factors, comp_ptr, x0, h, n_steps, step):
    """Fixed-step RK4 of the field (coefs, factors, comp_ptr); records every
    state, x0 included.

    `step` is that field's `compile_step`, built once per field, so a field
    integrated many times is compiled once; the run itself reads only `step`
    and x0.  The step writes each state into its row of the preallocated
    states array through a byte view of it.  Returns (states, n_completed):
    integration stops after the chunk in which the state leaves float range,
    with n_completed the number of steps before the first non-finite state.
    """
    dim = len(x0)
    out = np.empty((n_steps + 1, dim))
    out[0] = x0
    buf, row = memoryview(out).cast("B"), out.strides[0]
    x, h = x0.tolist(), float(h)
    chunk = chunk_steps(len(coefs), dim)
    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        x = step(buf, row * (start + 1), x, h, m)
        bad = ~np.isfinite(out[start + 1 : start + 1 + m]).all(axis=1)
        if bad.any():
            done = start + int(bad.argmax())
            return out[: done + 1], done
    return out, n_steps


def _sum_lines(target, terms):
    """Statements that set `target` to the sum of `terms`, (sign, expression)
    pairs, added in order from the first term on, `_TERMS_PER_LINE` per
    statement; a first "-" term is a unary minus and no terms is 0.0."""
    if not terms:
        return [f"        {target} = 0.0"]
    sign, first = terms[0]
    parts = [f"-{first}" if sign == "-" else first] + [f" {s} {e}" for s, e in terms[1:]]
    lines = [f"        {target} = " + "".join(parts[:_TERMS_PER_LINE])]
    for s in range(_TERMS_PER_LINE, len(parts), _TERMS_PER_LINE):
        lines.append(f"        {target} = {target}" + "".join(parts[s : s + _TERMS_PER_LINE]))
    return lines


def _stage_source(coefs, factors, comp_ptr):
    """The source of one stage over the variables y<v>: the statements that
    name its shared products, then those that set k@_<i> for every
    component.

    A product of two or more factors that two or more terms or longer
    products start with is named p<j> = <prefix> * <last factor>, after its
    prefix; a product used once is written in place.  The text holds no
    other "y" or "@", so `compile_step` makes each of the four stages from
    it by replacing them."""
    uses: dict[tuple, int] = {}
    for fs in factors:
        for n in range(len(fs), 1, -1):
            key = tuple(fs[:n])
            uses[key] = uses.get(key, 0) + 1
            if uses[key] > 1:  # its prefixes were counted when it was first seen
                break
    named: dict[tuple, str] = {}
    lines = []

    def product(fs):
        if len(fs) == 1:
            return f"y{fs[0]}"
        key = tuple(fs)
        if key in named:
            return named[key]
        expr = f"{product(fs[:-1])} * y{fs[-1]}"
        if uses[key] == 1:
            return expr
        named[key] = f"p{len(named)}"
        lines.append(f"        {named[key]} = {expr}")
        return named[key]

    sums = []
    for i in range(len(comp_ptr) - 1):
        terms = []
        for t in range(comp_ptr[i], comp_ptr[i + 1]):
            c = coefs[t]
            if not factors[t]:
                terms.append(("+", repr(c)))
                continue
            mono = product(factors[t])
            if " " in mono:
                mono = f"({mono})"
            if c == 1.0 or c == -1.0:
                terms.append(("+" if c == 1.0 else "-", mono))
            else:
                terms.append(("+", f"{c!r} * {mono}"))
        sums += _sum_lines(f"k@_{i}", terms)
    return "\n".join(lines + sums)


def compile_step(coefs, factors, comp_ptr):
    """Compile `run(buf, first, x, h, n_steps) -> x` for one field: n_steps
    steps from the state x, the last state returned.  Step j packs its state
    as native doubles into the writable byte buffer `buf` at byte offset
    first + j * 8 * dim, so a C-contiguous float64 [rows, dim] array viewed
    as bytes gets one state per row from the row at first // (8 * dim) on;
    nothing else in `buf` is written.

    Local names are x<i> (state), y<i> (stage point), k1_<i>..k4_<i> (stage
    slopes) and p<j> (a stage's shared products), built from integer
    positions.  c * m is written + m or - m for c = 1.0 or -1.0, which IEEE
    arithmetic gives the same bits.
    """
    comps = range(len(comp_ptr) - 1)
    stage = _stage_source(coefs.tolist(), factors, comp_ptr)
    state = "".join(f"x{i}, " for i in comps)
    row = struct.Struct(f"{len(comps)}d")
    lines = [
        "def run(buf, first, x, h, n_steps):",
        f"    ({state}) = [v + 0.0 for v in x]",
        "    hh = 0.5 * h",
        "    h6 = h / 6.0",
        "    pack = pack_into",
        f"    for off in range(first, first + {row.size} * n_steps, {row.size}):",
        stage.replace("y", "x").replace("@", "1"),
        *[f"        y{i} = x{i} + hh * k1_{i}" for i in comps],
        stage.replace("@", "2"),
        *[f"        y{i} = x{i} + hh * k2_{i}" for i in comps],
        stage.replace("@", "3"),
        *[f"        y{i} = x{i} + h * k3_{i}" for i in comps],
        stage.replace("@", "4"),
        *[f"        x{i} = x{i} + h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
          for i in comps],
        f"        pack(buf, off, {state})",
        f"    return ({state})",
    ]
    namespace: dict = {"pack_into": row.pack_into}
    exec(compile("\n".join(lines), "<generated rk4 step>", "exec"), namespace)
    return namespace["run"]

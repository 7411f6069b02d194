"""The generated RK4 step against the plainer generator it replaced.

`old_compile_step` writes every monomial in full in every term, starts
every component sum from 0.0 and appends each state to a list, which
`list_recording` copies into the states array through `np.fromiter`;
`_kernels.compile_step` names shared monomial prefixes, starts each sum
from its first term, adds 0.0 to the state on entry and packs each state
straight into its row of the states array.  The `_kernels` module docstring
says why the recorded states are the same bits; these tests compare them
bit for bit (-0.0 is not 0.0 here), on the benchmark's fields, on wide
fields with long monomials, from points that hold +0.0 and -0.0, and on a
run that leaves float range.  The old generator reads its factors off
exponent rows taken from the polynomial (`test_flows.exponent_rows`);
`old_term_factors`, the dense form's readback of those rows, checks the
factor lists `compile_field` reads off the keys.  `TestDirectWrite` checks
that a step writes only its own rows and that a run allocates no Python
object per state.
"""

import functools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from todavolterra import _kernels, catalog, flows
from todavolterra.poisson import PolyVectorField

from conftest import read_poly, sid
from test_flows import _escape_point, exponent_rows

_TERMS_PER_LINE = 100


def old_sum_lines(target, coefs, factors, lo, hi, name):
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


def old_term_factors(expts):
    """The factor lists as the dense form read them back: the nonzero
    entries of the exponent matrix, rows in order, columns increasing, each
    variable repeated by its exponent."""
    factors = [[] for _ in range(len(expts))]
    rows, cols = np.nonzero(expts)
    for t, v, e in zip(rows.tolist(), cols.tolist(), expts[rows, cols].tolist()):
        factors[t] += [v] * e
    return factors


def old_compile_step(coefs, expts, comp_ptr):
    """The generator before shared prefixes: every monomial written out in
    every term of every stage, every sum started from 0.0, and the state
    taken as it comes.  Its factors are read off the exponent rows here, not
    off the compiled field."""
    coefs = coefs.tolist()
    factors = [[v for v, e in enumerate(row) for _ in range(e)] for row in expts.tolist()]
    comps = range(len(comp_ptr) - 1)
    state = "".join(f"x{i}, " for i in comps)

    def stage(k, name):
        return [
            line
            for i in comps
            for line in old_sum_lines(f"k{k}_{i}", coefs, factors, comp_ptr[i], comp_ptr[i + 1], name)
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
    exec(compile("\n".join(lines), "<old rk4 step>", "exec"), namespace)
    return namespace["run"]


def list_recording(old_run):
    """The old step, which appends each state to a list, as a step with the
    new signature: its list goes into the states array behind `buf` at row
    `first` through `np.fromiter`, the recording route the new step
    replaced."""
    def run(buf, first, x, h, n_steps):
        record: list[float] = []
        x = old_run(record, x, h, n_steps)
        flat = np.frombuffer(buf, float)
        flat[first // 8 : first // 8 + len(record)] = np.fromiter(record, float, len(record))
        return x
    return run


def assert_same_bits(cf, rows, x0, n_steps):
    """Both generators' runs through `rk4_integrate` record the same bits
    and complete the same number of steps; returns that number.  The old
    generator reads the field's exponent rows `rows`."""
    x0 = np.array(x0, dtype=float)
    old = list_recording(old_compile_step(cf.coefs, rows, cf.comp_ptr))
    got = _kernels.rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, 1e-3, n_steps, cf.step)
    want = _kernels.rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, 1e-3, n_steps, old)
    assert got[1] == want[1]
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    return got[1]


def _benchmark_point(system: str, seed: int) -> list[float]:
    """The benchmark's seeded `--x0` point, in variable order (toda points on
    the fixed set of psi; odd toda-a sizes hold b = 0.0 in the middle), from
    perfbench/workloads.py, read and executed in memory."""
    source = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    namespace: dict = {"__file__": str(source), "__name__": "perfbench_workloads"}
    exec(compile(source.read_text(), str(source), "exec"), namespace)
    point = namespace["initial_point"](system, seed)
    return point["a"] + point.get("b", [])


# the benchmark's fields, (system, t_end) of each `simulate` call
BENCHMARK_FIELDS = [("toda-a:3", 10.0), ("toda-a:8", 5.0), ("volterra-a:11", 10.0)]
# the widest generated steps: long monomials that share many prefixes
WIDE_FIELDS = [("toda-a:13", 10), ("toda-a:8", 8), ("toda-a:40", 6), ("toda-a:100", 4),
               ("volterra-a:30", 8), ("toda-a:5", 3), ("toda-b:4", 4)]


@functools.cache
def compiled(system: str, k: int):
    """Flow k of the system, compiled, and its exponent rows."""
    vf = catalog.flow(sid(system), k)
    return flows.compile_field(vf), exponent_rows(vf)


class TestAgainstOldGenerator:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("system, t_end", BENCHMARK_FIELDS)
    def test_benchmark_fields(self, system, t_end, seed):
        # the whole benchmark run of each `simulate` call
        n_steps = round(t_end / 1e-3)
        point = _benchmark_point(system, seed)
        assert assert_same_bits(*compiled(system, 2), point, n_steps) == n_steps

    @pytest.mark.parametrize("system, k", WIDE_FIELDS)
    def test_wide_fields(self, system, k):
        cf, rows = compiled(system, k)
        rng = random.Random(f"{system}/{k}")
        x0 = [rng.uniform(0.1, 0.6) * rng.choice([-1, 1]) for _ in range(cf.dim)]
        assert assert_same_bits(cf, rows, x0, 20) == 20

    @pytest.mark.parametrize("system, k", [(s, 2) for s, _ in BENCHMARK_FIELDS] + WIDE_FIELDS)
    def test_factors_match_the_dense_readback(self, system, k):
        # the factor lists read off the keys are the dense form's, and so is
        # the stage text built from them
        cf, rows = compiled(system, k)
        old = old_term_factors(rows)
        assert cf.factors == old
        coefs = cf.coefs.tolist()
        assert (_kernels._stage_source(coefs, cf.factors, cf.comp_ptr)
                == _kernels._stage_source(coefs, old, cf.comp_ptr))

    @pytest.mark.parametrize("system, x0", [
        ("toda-a:3", [0.3, -0.0, 0.0, -0.0, 0.4]),
        ("toda-a:3", [-0.0, 0.0, -0.0, 0.0, -0.0]),
        ("volterra-a:11", [0.5, -0.0, 0.2, 0.0, 0.3, -0.0, -0.0, 0.4, 0.0, 0.1]),
        ("toda-b:2", [-0.0, 0.3, 0.0, -0.0]),
    ])
    def test_signed_zeros(self, system, x0):
        assert assert_same_bits(*compiled(system, 2), x0, 50) == 50

    def test_signed_zero_reaches_a_sum_alone(self):
        # a1' = -a2 is one term: from a2 = +0.0 the new sum is -0.0 where the
        # old one was 0.0, and with a1 = -0.0 that sign reaches the state
        # unless the state is normalised on entry
        vs = ("a1", "a2", "a3")
        field = PolyVectorField(vs, [read_poly("-a2", vs), read_poly("a1*a3", vs),
                                     read_poly("-2*a3*a1", vs)])
        cf = flows.compile_field(field)
        for x0 in ([-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], [-0.0, 0.0, 0.5]):
            assert assert_same_bits(cf, exponent_rows(field), x0, 5) == 5

    def test_escape(self):
        # toda-a:6 from [-1, 1]: the state leaves float range after step 2670
        assert assert_same_bits(*compiled("toda-a:6", 2), _escape_point(), 3000) == 2670

    def test_shared_products_are_named(self):
        # toda-a:4 flow 3: a1 b1 starts a1 b1^2 and is a term of its own
        cf = flows.compile_field(catalog.flow(sid("toda-a:4"), 3))
        stage = _kernels._stage_source(cf.coefs.tolist(), cf.factors, cf.comp_ptr)
        assert "        p1 = y0 * y3" in stage.splitlines()
        assert "0.0 +" not in stage
        assert stage.count("y0 * y3") == 1


class TestDirectWrite:
    """The step packs each state into its own row of the states array."""

    @pytest.mark.parametrize("system", ["toda-a:3", "toda-a:32"])
    def test_a_step_writes_only_its_own_rows(self, system):
        cf, _ = compiled(system, 2)
        chunk = _kernels.chunk_steps(len(cf.coefs), cf.dim)
        n_steps = 2 * chunk + 5
        x0 = np.array(_benchmark_point(system, 1))
        want, done = _kernels.rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, 1e-3,
                                            n_steps, cf.step)
        assert done == n_steps
        sentinel = np.frombuffer(b"\xa5" * 8, float)[0]
        # (start, m): a middle chunk, a one-step chunk, the last chunk
        for start, m in [(chunk, chunk), (chunk + 7, 1), (2 * chunk, 5)]:
            out = np.full((n_steps + 1, cf.dim), sentinel)
            buf = memoryview(out).cast("B")
            x = cf.step(buf, out.strides[0] * (start + 1), want[start].tolist(), 1e-3, m)
            assert x == tuple(want[start + m].tolist())
            rows = np.arange(n_steps + 1)
            outside = (rows <= start) | (rows > start + m)
            assert out[outside].tobytes() == np.full_like(out[outside], sentinel).tobytes()
            assert out[start + 1 : start + 1 + m].tobytes() == want[start + 1 : start + 1 + m].tobytes()

    # toda-a:32 runs one chunk of 106 steps and part of a second: traced, its
    # generated step takes about 6.5 ms per step (12 us untraced)
    @pytest.mark.parametrize("system, n_steps", [
        ("toda-a:3", 10_000), ("toda-a:8", 5_000), ("volterra-a:11", 10_000), ("toda-a:32", 120)])
    def test_the_kernel_holds_no_state_objects(self, system, n_steps):
        # beyond the states array, a run allocates a bounded amount, whatever
        # its length: no list or tuple per state or per chunk (a chunk's list
        # of floats alone took 276-312 KB here)
        cf, _ = compiled(system, 2)
        x0 = np.array(_benchmark_point(system, 1))
        tracemalloc.start()
        try:
            states, done = _kernels.rk4_integrate(cf.coefs, cf.factors, cf.comp_ptr, x0, 1e-3,
                                                  n_steps, cf.step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert done == n_steps
        assert peak - states.nbytes <= 64 * 1024, peak - states.nbytes

"""Every function that `src/` defines runs under the CLI, is traced by the
benchmark, or is named in ALLOWED with its reason.

This is the rule that API only the tests call lives in the tests.  A fresh
interpreter, so that every `lru_cache` memo starts empty, runs the fixed
list CALLS through `cli.main` under `sys.setprofile` and reports each code
object of `src/` that it entered.  The functions `src/` defines are read by
compiling each module and walking its code objects, so a function is known
by its file, first line and qualified name, on any Python the package
supports.  The traced names are read from perfbench/tracer.py, as
tests/test_traced_names.py reads them: the tracer wraps or counts them, so
they stay whether or not a CLI call reaches them.
"""

import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from test_traced_names import load_tracer

SRC = Path(__file__).parents[1] / "src" / "todavolterra"

# every `verify` leaf, `reduce` for each map, `bogo` A-D, `moser` in both
# formats, `simulate` on every family in both formats (toda-c has no flow
# and is refused), an escape, a run over the memory budget and a rejected
# call: (argv, exit code)
CALLS = [
    *[(["verify", *leaf, "--format", fmt], 0) for fmt in ("text", "json") for leaf in [
        ["jacobi", "--system", "toda-a:3", "--bracket", "2"],
        ["compatible", "--system", "toda-a:3", "--brackets", "1,2"],
        ["deformation", "--system", "toda-a:3"],
        ["involution", "--system", "toda-a:3", "--map", "psi", "--bracket", "2"],
        ["ladder", "--system", "volterra-a:4"],
        *[["reduction", "--which", which, "--n", "2"]
          for which in ("psi", "phi", "phi-volterra", "phi-tilde")],
        ["all", "--max-rank", "3"],
    ]],
    *[(["reduce", "--system", system, "--map", name, "--bracket", k], 0)
      for system, name, k in [("toda-a:3", "psi", "2"), ("toda-a:5", "phi_toda", "3"),
                              ("volterra-a:5", "phi_volterra", "4"),
                              ("toda-a:5", "phi_tilde", "4")]],
    *[(["bogo", "--type", t, "--rank", "3", "--format", "json"], 0) for t in "ABCD"],
    *[(["moser", "--N", "9", "--format", fmt], 0) for fmt in ("text", "json")],
    *[(["simulate", "--system", system, "--t-end", "0.01", "--decimate", "5", "--format", fmt],
       2 if system == "toda-c:2" else 0)
      for fmt in ("csv", "json")
      for system in ("toda-a:3", "toda-b:2", "toda-c:2", "volterra-a:4", "volterra-b:2",
                     "volterra-c:2")],
    (["simulate", "--system", "toda-a:6", "--x0", "x0.json", "--format", "json"], 2),
    (["simulate", "--system", "toda-a:1000000000"], 2),
    (["verify", "jacobi", "--system", "toda-x:3", "--bracket", "1"], 2),
]

# the toda-a:6 point that leaves float range at t = 2.67 (tests/test_cli.py)
_rng = random.Random(0)
ESCAPE_POINT = [_rng.uniform(-1.0, 1.0) for _ in range(11)]

# (module file, qualified name or method name) -> why it need not run
ALLOWED = {
    **{(None, name): "printing and pickling, not a computation"
       for name in ("__repr__", "__str__", "__hash__", "__reduce__")},
    (None, "__setattr__"): "the immutability guard: it runs only when a caller errs",
    ("catalog.py", "_halved"): "runs at import, before the profile starts",
    ("polyalg.py", "Poly.terms"): "read by the tracer's hooks",
    # no command reaches these two; the tests write p - q and compare maps
    # by value at many sites, so they stay with the ring and the maps
    ("polyalg.py", "Poly.__sub__"): "the ring's difference beside + and unary -",
    ("poisson.py", "LinearMap.__eq__"): "value equality, as Poly and the tensors have",
}

CHILD = """
import contextlib, io, json, sys
calls = json.loads(sys.argv[1])
from todavolterra import cli
seen = {}
def hook(frame, event, arg):
    if event == "call":
        seen[id(frame.f_code)] = frame.f_code
codes, sink = [], io.StringIO()
sys.setprofile(hook)
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for argv in calls:
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen.values()})}))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """{(file name, first line, name): qualified name} of every function,
    method and nested function of `src/`; lambdas, comprehensions and class
    bodies are not functions here."""
    out = {}

    def walk(code, file, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                out[(file, const.co_firstlineno, const.co_name)] = qualname
                walk(const, file, qualname + ".<locals>.")
            else:
                walk(const, file, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name, "")
    return out


def traced_names() -> set[tuple[str, str]]:
    """(module file, qualified name) of every name perfbench/tracer.py spans
    or counts, and of the kernel it wraps.  tests/test_traced_names.py checks
    that each exists."""
    tracer = load_tracer()
    names = {(f"{module}.py", fn) for module, fns in tracer.SPANNED.values() for fn in fns}
    names |= {("polyalg.py", f"{cls}.{fn}") for cls, fns in tracer.COUNTED.values() for fn in fns}
    return names | {("_kernels.py", "rk4_integrate")}


def entered(tmp_path) -> set[tuple[str, int, str]]:
    """(file name, first line, name) of each `src/` function the CALLS enter."""
    (tmp_path / "x0.json").write_text(json.dumps({"a": ESCAPE_POINT[:5], "b": ESCAPE_POINT[5:]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps([argv for argv, _ in CALLS])],
                          capture_output=True, text=True, cwd=tmp_path, env=env, check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [code for _, code in CALLS]
    return {(Path(file).name, line, name) for file, line, name in report["entered"]
            if Path(file).resolve().parent == SRC.resolve()}


def test_every_src_function_is_reached_traced_or_allowed(tmp_path):
    reached, traced = entered(tmp_path), traced_names()
    unreached = sorted(
        f"{key[0]}:{qualname}" for key, qualname in defined_functions().items()
        if key not in reached and (key[0], qualname) not in traced
        and (key[0], qualname) not in ALLOWED and (None, key[2]) not in ALLOWED)
    assert not unreached, "defined in src/ but not reached:\n" + "\n".join(unreached)


def test_every_allowlist_entry_names_a_function():
    # a stale entry would excuse a function that no longer exists
    defined = defined_functions()
    qualnames, names = {(key[0], q) for key, q in defined.items()}, {key[2] for key in defined}
    assert [key for key in ALLOWED if key not in qualnames and key[1] not in names] == []

"""Every name perfbench/tracer.py traces still exists in the package, and
the tracer still reads what it expects from the calls it wraps.

The tracer refuses to install when a traced function is missing, so a
deleted or renamed layer fails here, in the ordinary suite, and not only in
a traced benchmark run.  Its hooks read positional arguments and results
(the kernel's coefs, x0 and step count, the Jacobiator's tensor, the
Hamiltonian's terms), so a changed signature fails the run test below.  The
tracer is read from perfbench/ and executed in memory; nothing is written
there.
"""

import types
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls():
    from todavolterra import catalog, poisson

    originals = (poisson.jacobiator, catalog.tensor)
    tracer = load_tracer().Tracer()
    try:
        sites = tracer.install()
    finally:
        tracer.uninstall()
    assert "todavolterra.poisson.jacobiator" in sites
    assert (poisson.jacobiator, catalog.tensor) == originals


def test_traced_run_counts_every_layer(capsys):
    from todavolterra.cli import main

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        codes = [
            main(["simulate", "--system", "toda-a:3", "--t-end", "0.05", "--h", "0.001",
                  "--format", "json"]),
            main(["verify", "jacobi", "--system", "toda-a:3", "--bracket", "1"]),
            main(["verify", "deformation", "--system", "toda-a:3"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    counts = tracer.counts
    assert counts["integrate.steps"] == 50
    assert counts["kernels.bytes"] > 0
    assert counts["jacobiator.visited"] > 0
    assert counts["hamiltonian.terms"] > 0
    # the simulate monitors enter the char-poly layer
    assert tracer.calls()["flows.charpoly_coefficients"] >= 1

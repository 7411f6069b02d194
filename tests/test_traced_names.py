"""Every name perfbench/tracer.py traces still exists in the package.

The tracer refuses to install when a traced function is missing, so a
deleted or renamed layer fails here, in the ordinary suite, and not only in
a traced benchmark run.  The tracer is read from perfbench/ and executed in
memory; nothing is written there.
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

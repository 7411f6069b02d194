"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec names the package's source directory, the CLI calls to run through
`todavolterra.cli.main` in order, and whether to trace.  The last line on
standard output is a JSON record of the pass: each call's exit code, time
and output, the pass's monotonic-clock window and CPU time, the peak
resident memory and, when traced, the per-layer spans and counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import todavolterra.cli as cli

    here = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(here + os.sep):
        print(f"todavolterra was imported from {cli.__file__}, not {here}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        sites = tracer.install()

    calls = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for op, argv in spec["calls"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception:  # a traceback is a failed call, not a failed pass
            rc = None
            print(traceback.format_exc(), file=sys.stderr)
        calls.append({"op": op, "rc": rc, "seconds": time.perf_counter() - t0,
                      "stdout": out.getvalue()})
    end, cpu_end = time.perf_counter(), time.process_time()

    record = {
        "wall_s": end - start,
        "window": [start, end],
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "calls": calls,
    }
    if tracer is not None:
        tracer.uninstall()
        cache_info = getattr(cli.catalog.tensor, "cache_info", None)
        info = cache_info() if cache_info else None
        record["trace"] = {
            "bind_sites": sites,
            "self_s": tracer.self_seconds(),
            "calls": tracer.calls(),
            "counts": dict(tracer.counts),
            "tensor_cache": info and {"hits": info.hits, "misses": info.misses},
            "spans": tracer.spans,
        }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

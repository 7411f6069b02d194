"""Samples the host's speed while a benchmark run measures.

Usage: python3 calibrator.py

The host this benchmark runs on is shared: its speed drifts by tens of
percent over seconds to minutes, and a second CPU drifts independently of
the first, so a reference measured before, after or beside a pass does not
track it.  This process runs on the same CPU as the passes, at nice 10 (about
a tenth of the CPU while a pass runs), and repeats one fixed unit of
pure-Python work.  The scheduler interleaves it with the pass every few
milliseconds, so the CPU time its units take in a pass's window measures the
host's speed during that pass.  run.py divides the pass's CPU time by it.

It prints "ready" once started.  On SIGTERM, or when its parent has gone, it
stops after the current unit and prints one JSON list of
[monotonic time, process CPU time] pairs, one at the end of each unit.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

NICE = 10
MAX_SECONDS = 600  # stops by itself even if nobody stops it

_LEFT = [((i, j), i - 2 * j + 1) for i in range(9) for j in range(9)]
_RIGHT = [((j, i), (i * j) % 5 + 1) for i in range(4) for j in range(4)]


def unit() -> int:
    """One fixed unit of work: a small sparse polynomial product and a Fraction sum."""
    product: dict[tuple[int, int], int] = {}
    for (a0, a1), ca in _LEFT:
        for (b0, b1), cb in _RIGHT:
            key = (a0 + b0, a1 + b1)
            product[key] = product.get(key, 0) + ca * cb
    total = Fraction(0)
    for i in range(1, 24):
        total += Fraction(i, i + 2)
    return len(product) + total.denominator


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICE)
    parent = os.getppid()
    marks: list[tuple[float, float]] = []
    print("ready", flush=True)
    deadline = time.perf_counter() + MAX_SECONDS
    while not stop and os.getppid() == parent:
        unit()
        marks.append((time.perf_counter(), time.process_time()))
        if marks[-1][0] > deadline:
            break
    sys.stdout.write(json.dumps(marks) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

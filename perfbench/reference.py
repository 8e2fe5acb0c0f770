"""Fixed stdlib tasks whose wall time reads the host's speed at that moment.

On a shared host the speed of one vCPU changes by up to 2x from one run to
the next and within seconds (see README.md, Host noise), and every wall time
the benchmark takes moves with it.  The bounded time metrics are therefore
given *at reference speed*: each measured time is scaled by REF_S over a
reference task's time measured beside it.  A slow spell slows a case and its
reference alike and cancels; a change to czeta moves the case, not the
reference.

A slow spell does not slow all code alike: interpreted float and Fraction
code slows about twice as much as big-integer arithmetic.  So there are two
tasks, and each workload, and the import, is scaled by the one that slows
like its own work.

They call no czeta code.  Import this module only after timing
``import czeta``: it imports ``fractions``, which czeta imports too.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# The wall time that times at reference speed are scaled to: about the time
# of either task on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine at the
# host's fast level, with Python 3.11.
REF_S = 0.010


def _interpreted() -> None:
    z = 0j
    for i in range(20_000):
        z = z * 0.999 + complex(i % 7, 1.0) * 1e-3
    acc = Fraction(0)
    for k in range(1, 1000):
        acc += Fraction(1, k * k) * Fraction(k, k + 3)


def _bigint() -> None:
    x, y, a = 3**20_000 + 1, 7**15_000 + 3, 0
    for _ in range(2):
        a ^= (x * y) % (y + 12_345)
        a ^= math.gcd(x + a, y)


TASKS = {"interpreted": _interpreted, "bigint": _bigint}
# `import czeta` slows like big-integer work (unmarshalling and C code), not
# like interpreted loops.
SETUP_TASK = "bigint"


def reference_s(task: str = "interpreted") -> float:
    """Wall time of one reference task, run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    TASKS[task]()
    wall = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return wall


def at_ref(seconds: float, ref: float) -> float:
    """A wall time measured beside a reference time of ``ref``, at reference speed."""
    return seconds * REF_S / ref

"""Machine-speed probe: scales measured times to one reference speed.

The host the benchmark was tuned on (2 vCPUs shared with other tenants)
changes speed by up to 1.6x, in both wall and CPU time, for seconds to
minutes at a time, and each vCPU does so on its own.  Every op of a run
moves with it, so two runs of the same code can differ by more than any
change worth measuring.  The benchmark therefore pins itself and the
processes it starts to one CPU, times a fixed kernel that does not touch
hollowkit before the first op and after every op, and reports each op's
time scaled by REFERENCE_S over the mean of the two probes around it.  The
factor does not depend on the program, so a change to it moves the scaled
time in the same proportion as the measured one; the host's swings move
both the op and its probes and cancel.  run.py prints the unscaled
metrics and the probe times too.
"""
from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

import numpy as np

# About the probe's median time on the tuning host (Python 3.11, numpy
# 2.4, over the runs in baseline.json), so scaled times read as seconds at
# that host's usual speed.
REFERENCE_S = 0.017
ROUNDS = 10

_A = np.random.default_rng(0).normal(size=(8, 8))


def _kernel():
    """The mix hollowkit's ops spend their time on: interpreted loops,
    small numpy calls and exact fractions."""
    s = 0.0
    f = Fraction(0)
    for i in range(200):
        v = _A[i % 8]
        s += float(v @ _A[(i * 3) % 8]) + float(np.abs(v).max())
        d = {j: j * 0.5 for j in range(20)}
        s += sum(d.values())
        if i % 10 == 0:
            f += Fraction(i, 7)
    return s, f


def pin():
    """Pin this process, and every process it starts later, to one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


def probe():
    """Seconds the kernel takes now, with the collector held off."""
    was = gc.isenabled()
    gc.disable()
    try:
        _kernel()  # warm the caches the op before has taken over
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if was:
            gc.enable()


def scale(before, after):
    """Factor from a time measured between two probes to the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)

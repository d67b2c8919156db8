"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host is a shared machine whose speed drifts: the same
code runs up to about twice as long for minutes at a time. ``run.py``
times this task between samples, on the CPUs the samples run on, and
scales the run's seconds by ``NOMINAL_S`` over the task's median time,
so a run reports seconds at one fixed host speed whatever the host's
speed was during the run.

The task does a little of what the workloads do: coordinate-descent
sweeps with small numpy vector operations, sort-and-cumsum split scans,
CSV parsing to floats and a plain Python loop. Its inputs are fixed, so
its work never changes; it uses no dmlkit code, so no change to the
program moves it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# About the task's median seconds on a 2-vCPU Xeon VM; scaled run
# seconds read as seconds on that host at that speed.
NOMINAL_S = 0.25

_RNG = np.random.default_rng(20240304)
_X = _RNG.standard_normal((400, 200))
_Y = _RNG.standard_normal(400)
_V = _RNG.standard_normal(20000)
_CSV = "\n".join(",".join(f"{v:.17g}" for v in row)
                 for row in _RNG.standard_normal((6000, 10)))


def _task() -> float:
    r, b = _Y.copy(), np.zeros(_X.shape[1])
    for _ in range(50):
        for j in range(_X.shape[1]):
            xj = _X[:, j]
            bj = b[j] + xj @ r / len(r)
            r -= xj * (bj - b[j])
            b[j] = bj
    for _ in range(60):
        order = np.argsort(_V, kind="stable")
        np.cumsum(_V[order])
    cells = sum(float(cell) for row in csv.reader(io.StringIO(_CSV))
                for cell in row)
    acc = 0
    for i in range(500000):
        acc += i * i
    return float(b.sum()) + cells + acc


def reference_seconds() -> float:
    """Wall seconds the fixed reference task takes now."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0

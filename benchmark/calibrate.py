"""A fixed reference task that measures how fast the host runs Python now.

On a shared host the CPU time of identical work drifts by a third or
more, within minutes and between hours, as other tenants load the cores
and caches the benchmark runs on.  The worker runs ``measure()`` before
each timed pass and after the last, and each import probe runs it after
its import.  The runner scales each pass by ``NOMINAL_S`` over the mean
of the task times just before and after it, and each import by
``NOMINAL_S`` over the task time in the same probe.  A time is so
reported as it would read on a host where this task takes ``NOMINAL_S``
CPU seconds.

The task does in equal parts what the package's layers do: formatting
records as JSON and CSV (``cli``, ``trials``), scalar math in Python
(``geometry``, ``design``) and small numpy arrays turned into tuples
(``soilmech``).  It uses only the standard library and numpy, so no
change to ``spiketrac`` changes its cost.
"""

from __future__ import annotations

import json
import math
from time import process_time

import numpy as np

# About the CPU seconds the task takes on a quiet 2-vCPU Intel Xeon virtual
# machine (Python 3.11, numpy 2.4).  Any fixed value works: it only sets the scale.
NOMINAL_S = 0.15


def _records() -> int:
    total = 0
    # Small chunks, so that the task never sets the worker's peak memory.
    for chunk in range(0, 5_500, 500):
        rows = [
            {"i": i, "angle": math.degrees(math.asin(0.5 + 0.5 * math.sin(i * 1e-3))),
             "root": math.sqrt(i)}
            for i in range(chunk, chunk + 500)
        ]
        text = json.dumps([{k: round(v, 6) for k, v in row.items()} for row in rows], indent=2)
        csv = "\n".join(f"{row['i']},{row['angle']:.6g},{row['root']:.6g}" for row in rows)
        rows.sort(key=lambda row: (-row["angle"], row["i"]))
        total += len(text) + len(csv) + rows[0]["i"]
    return total


def _scalar_math() -> float:
    total = 0.0
    for i in range(90_000):
        radius, hinge, depth = 0.8 + (i % 13) * 0.1, 0.05 + (i % 6) * 0.01, 0.2 + (i % 20) * 0.04
        if radius - hinge - depth <= 0:
            continue
        angle = math.asin((hinge + depth) / radius)
        total += math.tan(angle) * math.cos(angle + 0.3) / (1.0 + math.sqrt(depth))
    return total


def _small_arrays() -> int:
    total = 0
    for k in range(700):
        betas = 20.0 + 0.1 * np.arange(500 + k % 50)
        cot = 1.0 / np.tan(np.radians(betas))
        factor = np.where(betas > 35.0, np.tan(np.radians(betas - 35.0)), 0.0)
        forces = (0.5 * cot + 0.3 * cot**2) * factor
        curve = tuple(zip(betas.tolist(), forces.tolist()))
        total += int(np.argmax(forces)) + len(curve)
    return total


def measure() -> float:
    """CPU seconds one run of the task takes now."""
    start = process_time()
    _records()
    _scalar_math()
    _small_arrays()
    return process_time() - start

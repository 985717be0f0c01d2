"""A fixed reference workload that measures how fast the machine is right now.

On a shared host the same search can take twice as long from one minute to
the next.  ``chunk`` runs a few milliseconds of fixed work that does not touch
padesr: an integer loop, small-object and dict churn, numpy on a 1000-point
grid and on a 125000-point grid.  The harness runs one chunk before every
search run, so chunks sample the machine's speed as often as the runs do, and
scales candidates per second by how long the chunks took against
``REFERENCE_S``:

    evals_per_s = geometric mean of runs' candidates/s
                  * geometric mean of chunk times / REFERENCE_S

so it reads as candidates per second on a machine where one chunk takes
``REFERENCE_S``.  A change to padesr moves it as it moves the raw rate; a
slow phase of the host moves both the runs and the chunks and cancels.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Near the fastest chunk times seen on the 2-core machine bench/README.md
# describes (3-6 ms from one minute to the next); it only sets the scale.
REFERENCE_S = 0.004

_SMALL = np.linspace(0.1, 1.0, 1_000)
_LARGE = np.linspace(0.1, 1.0, 125_000)


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _work() -> float:
    total = 0
    for i in range(6_000):
        total += i * i % 7
    table = {}
    for i in range(1_500):
        node = _Node(i, (i, "x"), [i])
        table[(i, node.b)] = node
    total += sum(node.a for node in table.values())
    y = _SMALL
    for _ in range(60):
        y = np.sin(y) * _SMALL + np.exp(-y)
    z = np.sin(_LARGE) * _LARGE + _LARGE
    return total + float(y[0]) + float(z[0])


def chunk() -> float:
    """Seconds one chunk of the reference workload took."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def speed_factor(chunk_times: list[float]) -> float:
    """Geometric mean of ``chunk_times`` over ``REFERENCE_S``: above 1 on a slow phase."""
    if not chunk_times:
        return 1.0
    return math.exp(statistics.fmean(math.log(t) for t in chunk_times)) / REFERENCE_S

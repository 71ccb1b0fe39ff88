"""A fixed reference loop that measures how fast the host runs right now.

On a 2-vCPU Xeon guest that shares its host with other tenants, their
load changes the speed: the same loop, pinned to one CPU, takes from 1x
to 2x as long from one tenth of a second to the next, in stretches that
last from a fraction of a second to minutes, with CPU time equal to wall
time throughout.  No run length averages that away, so ``run.py`` times
this loop on the campaign's CPU around and between the stretches of a
campaign and reports each stretch scaled to a host on which one unit of
the loop takes :data:`REFERENCE_UNIT_S`.

One unit is a fixed amount of interpreter work on slotted objects and
dicts and a fixed amount of small-array numpy work, in about equal time;
it is code of the benchmark only, so a change to the program cannot make
it faster or slower.  Measured on a 2-vCPU Xeon guest, the logarithm of a
campaign's wall time rose with the logarithm of the interpreter half's
time at a slope of 0.63 on ``batched-lanes``, 0.79 on ``stress-long`` and
0.85 on ``fuzz-short``, and with the numpy half's at 1.05, 1.10 and 1.19,
so equal halves sit between them.  With the loop timed every 0.4 s of
campaign time, the spread (interquartile range over median) of the
medians of 8 consecutive repetitions over four minutes was 0.29 measured
and 0.020 scaled on ``fuzz-short``, and 0.15 and 0.030 on
``batched-lanes``; a loop four fifths numpy gave 0.052 and 0.033, and one
with a third part of dict and frozenset allocation tracked
``batched-lanes`` worse (0.046).

Usage, to see the host's speed now::

    python3 perfbench/calibrate.py
"""

import time

import numpy as np

#: Seconds one unit takes on the reference host (about the median on that guest).
REFERENCE_UNIT_S = 0.006
#: Units one measurement runs, about 50 ms on the reference host.
UNITS = 8


class _Node:
    __slots__ = ("name", "state", "nbrs")

    def __init__(self, name):
        self.name = name
        self.state = 0
        self.nbrs = ()


def _objects(rounds=60, size=64):
    """Interpreter work: attribute reads, generator ``max`` and dict counts."""
    nodes = [_Node(i) for i in range(size)]
    for i, node in enumerate(nodes):
        node.nbrs = (nodes[(i + 1) % size], nodes[(i + 7) % size], nodes[(i * 5) % size])
    seen = {}
    for r in range(rounds):
        for node in nodes:
            best = max(other.state for other in node.nbrs)
            if (best + node.name + r) % 3 == 0:
                node.state = best + 1
            key = (node.name, node.state & 15)
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _arrays(rounds=100):
    """Numpy work on a small ``(256, 36)`` int array: ufunc dispatch, masks, roll."""
    grid = (np.arange(256 * 36) % 5).reshape(256, 36)
    total = 0
    for _ in range(rounds):
        mask = (grid == 3) & (grid[:, ::-1] > 1)
        total += int(mask.sum())
        grid = np.roll(grid, 1, axis=1)
    return total


def unit_s(units=UNITS):
    """Mean seconds of one unit over ``units`` units, measured now."""
    start = time.perf_counter()
    for _ in range(units):
        _objects()
        _arrays()
    return (time.perf_counter() - start) / units


if __name__ == "__main__":
    samples = [unit_s() for _ in range(10)]
    print(" ".join(f"{value * 1000:.2f}" for value in samples), "ms per unit;",
          f"reference {REFERENCE_UNIT_S * 1000:.2f} ms")

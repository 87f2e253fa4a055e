"""A fixed reference task that tracks how fast the host runs right now.

On a shared host the speed of one core swings by up to 2x within
seconds and drifts by tens of percent over minutes, with the load other
tenants put on it.  A simulator cell cannot be told apart from such a
swing by its own time, so the simulator workloads run this task in the
same thread between every two cells and rescale each cell's host time
to the speed the host had around it (and each set-up probe runs it
right after setting up):

    scaled_s = cell_s * REFERENCE_S / mean(reference before, after)

Run in the same thread a few milliseconds either side of a cell, the
reference time correlates with the cell time at about 0.9.  Run once
per run (a calibration loop), or in another process, it does not track
the cell: timed on the ``serve-mixed`` worker's own core while the
worker was idle, it correlated with the worker's cells at only 0.3, so
``serve-mixed`` reports raw host time.

The task is pure Python: half dict, list and small-object churn like
the simulator's loop, half reads scattered over a buffer larger than
the cache, so it also feels contention for the cache and memory.  It
belongs to the benchmark, so no change to the simulator can speed it
up.
"""

from __future__ import annotations

import time

#: Seconds one ``reference()`` takes on the 2-core host the benchmark
#: was tuned on, at its usual speed.  Scaled times are host seconds at
#: that speed.
REFERENCE_S = 0.025

#: Loop iterations of the two halves of the reference task, which take
#: about the same time.
COMPUTE_STEPS = 20000
SCATTER_STEPS = 50000

#: The memory half reads bytes scattered over these 8 MiB.
_BUFFER = bytearray(range(256)) * (1 << 15)
_MASK = len(_BUFFER) - 1


class _Node:
    __slots__ = ("value", "key", "next")

    def __init__(self, value: int, key: int, nxt: "_Node | None") -> None:
        self.value = value
        self.key = key
        self.next = nxt


def _compute(steps: int) -> int:
    """Dict, list and small-object churn, as in the simulator's loop."""
    table: dict = {}
    window: list = []
    head = None
    acc = 0
    for step in range(steps):
        key = step & 255
        table[key] = table.get(key, 0) + step
        if key & 3:
            head = _Node(step, key, head)
        if head is not None:
            acc += head.value - head.key
        window.append(acc & 1023)
        if len(window) > 64:
            window.pop(0)
    return acc + sum(window)


def _scatter(steps: int) -> int:
    """Reads at pseudo-random offsets of a buffer that misses the cache."""
    buffer, mask = _BUFFER, _MASK
    index = acc = 0
    for _ in range(steps):
        index = (index * 1103515245 + 12345) & mask
        acc += buffer[index]
    return acc


def reference() -> float:
    """Run the reference task once; return the host seconds it took."""
    started = time.perf_counter()
    _compute(COMPUTE_STEPS)
    _scatter(SCATTER_STEPS)
    return time.perf_counter() - started


class ScaledClock:
    """Sums host seconds of timed sections, raw and rescaled to the
    reference speed measured just before and just after each one."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.scaled_s = 0.0
        self._before = reference()

    def add(self, host_s: float) -> None:
        """Count a section of ``host_s`` seconds that has just ended."""
        after = reference()
        self.host_s += host_s
        self.scaled_s += host_s * REFERENCE_S * 2 / (self._before + after)
        self._before = after

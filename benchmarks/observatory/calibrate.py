"""How slow the box is right now: a fixed unit of work, timed.

The sizing box shares its two cores with other tenants.  The same
repetition takes 0.7x to 1.5x its typical time depending on what the
neighbours do, in phases of a second to minutes; CPU time moves with wall
time (the core itself runs slower: a busy sibling thread, a shared cache),
so neither CPU time nor a minimum nor a longer run removes it.  A fixed
kernel timed right before and right after a repetition moves with it: over
20 s windows of one workload the median repetition time spread 15 % (range
46 %), the median of repetition time / kernel time 4 % (README, "Steadiness").

Host times are therefore reported as seconds on a box that runs the kernel
in exactly ``NOMINAL_S``.  The kernel and the constant are part of every
metric's definition: change neither.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on the sizing box at its typical speed.
NOMINAL_S = 0.008

_N = 250_000  # 3 arrays x 2 MB: past the private caches, into the shared one
_A = np.random.default_rng(1).random(_N)
_B = _A[::-1].copy()
_C = np.empty_like(_A)


def kernel() -> int:
    """Half interpreter work (arithmetic, a dict, a list), half numpy
    streaming over 6 MB: the two kinds of work the program does."""
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(40_000):
        total += (i * 7) % 13
        table[i & 255] = total
        if not i & 7:
            items.append(total)
    for _ in range(10):
        np.add(_A, _B, out=_C)
        np.multiply(_C, _A, out=_C)
    return total + len(items)


def slowness(samples: int = 3) -> float:
    """Median kernel time over ``NOMINAL_S``: 1.0 at the sizing box's
    typical speed, 1.3 when the same work takes 30 % longer."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_S

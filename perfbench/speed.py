"""Machine-speed reference for the gated time metrics.

On a shared virtual machine the interpreter's speed drifts: on the 2-vCPU
machine this benchmark was built on, a fixed pure-Python loop ran between
0.70x and 1.25x its median speed within five minutes, and runs of the same
benchmark code a few minutes apart differed by up to 40% in profiles/s.
That drift is wider than any regression bound the benchmark can use.

So the benchmark times a fixed reference kernel, its own pure-Python code
that no change to pref2d can alter, at most every ``REF_INTERVAL_S`` between
units of work, and reports its gated time metrics in reference seconds: wall
seconds multiplied by ``scale()``, the seconds a machine that runs the
kernel in exactly ``REF_NOMINAL_S`` would have needed. Over ten runs on that
machine this cut the interquartile spread of profiles/s from 17% to 5% on
sample-m7 and from 22% to 3% on mixed-small. The kernel tracks the machine
only where it runs on the same core in the same stretch of time as the
measured work; range-m7's search runs in pool workers, between whose batch
calls the kernel is sampled, so the correction is coarser there. The
wall-clock values are printed alongside.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

REF_NOMINAL_S = 1e-3
REF_DRAWS = 2000
REF_INTERVAL_S = 0.05
REF_MIN_SAMPLES = 20


def reference_kernel() -> int:
    """Fixed work in the style of the search's inner loop: seeded uniform
    draws in a disk, each tested against two annuli."""
    rng = random.Random(12345)
    hits = 0
    for _ in range(REF_DRAWS):
        theta = rng.random() * 2 * math.pi
        r = math.sqrt(rng.random())
        x, y = r * math.cos(theta), r * math.sin(theta)
        if 0.3 < math.hypot(x - 0.1, y) < 0.8 and math.hypot(x + 0.2, y - 0.1) > 0.25:
            hits += 1
    return hits


class SpeedMeter:
    """Samples the reference kernel's time across a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = -math.inf

    def _time_kernel(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def sample(self) -> None:
        """Time the kernel once, unless it ran less than REF_INTERVAL_S ago."""
        if perf_counter() - self._last >= REF_INTERVAL_S:
            self._time_kernel()

    def finish(self) -> None:
        while len(self.times) < REF_MIN_SAMPLES:
            self._time_kernel()

    def scale(self) -> float:
        """Reference seconds per wall second: the nominal kernel time over
        the kernel's mean time across the run."""
        return REF_NOMINAL_S / statistics.mean(self.times)

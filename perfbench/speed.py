"""Reference task that measures how fast the machine runs Python right now.

On a shared host the speed of the same pure-Python code drifts by a factor
of 1.4 to 2.5 over tens of seconds, and every kind of code slows together.
Run-level medians of raw seconds then differ from run to run by more than
any useful bound. So the benchmark times this fixed task between jobs and
reports each job time scaled to a machine on which the task takes
NOMINAL_S: reported = measured * NOMINAL_S / (task time near that job).
The task is the benchmark's own code and never changes between commits,
so a change to the program still moves the reported times in full. The
cyclic garbage collector is paused while the task runs: a collection it
triggered would scan the whole heap, and the task's time would then depend
on how much memory the program holds.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.01  # task time of the reference machine the reported seconds refer to
SAMPLE_EVERY_S = 0.12  # at most one task per this much elapsed time
WINDOW_S = 1.0  # tasks within this distance of a job set its scale


def reference_task() -> int:
    """Small-object churn, dict and string building, JSON, Fractions and big ints.

    The task builds a few megabytes of objects, like the program's jobs; a
    cache-resident task tracked the program's slowdowns less closely.
    """
    items = []
    acc = 0
    for i in range(12000):
        t = (i, i * 7 % 13, f"k{i}")
        items.append(t)
        acc += t[0] * t[1]
    table = {t[2]: t for t in items}
    text = json.dumps([[a, b] for a, b, _ in table.values()])
    q = sum((Fraction(i, i + 1) for i in range(1, 60)), Fraction(0))
    n = (3**900) * (7**700)
    return acc + len(text) + n % 97 + q.numerator % 7


class Speedometer:
    """Timestamped reference-task times, and the scale they give at any moment."""

    def __init__(self):
        self.times: list[float] = []  # when each task ran (perf_counter)
        self.samples: list[float] = []  # how long it took
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < SAMPLE_EVERY_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_task()
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.times.append((now + end) / 2)
        self.samples.append(end - now)
        self._last = end

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median task time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < 3:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.samples[i] for i in order[:3]]
        return NOMINAL_S / statistics.median(near)

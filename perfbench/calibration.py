"""Host-speed calibration, sampled while a measured command runs.

The shared 2-core host the benchmark was built on switches between a fast
and a 1.6-1.9x slower state, for stretches of a fraction of a second to
minutes (see NOTES.md), and a command's wall and CPU time move with it.
``Speedometer`` samples the host's speed during a command: every
``INTERVAL_S`` a SIGALRM handler in the measuring thread times a fixed
interpreted loop that never calls the package. The time of the command, less the time spent in the
handler, is rescaled to the reference speed by the mean of the sampled
speeds (the loop's reference time over its sampled time), so the figure
follows the program and not the host's state while it ran.

The module imports only ``math``, ``signal`` and ``time``, so a fresh
interpreter can sample its own start-up without loading anything the
start-up would load.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
# About the median time of one sample loop inside the benchmark's commands
# on the 2-core Intel Xeon VM the benchmark was built on (Python 3.11), so
# rescaled figures read close to the seconds measured there. Only their
# scale depends on it.
REFERENCE_S = 0.0021
# The same for the numpy part (``Speedometer(numpy_part=True)``).
NUMPY_REFERENCE_S = 0.00066

# The loop has two parts. One reads a 65,536-float list and writes a
# 16,384-key dict in a scattered order, beyond the first-level caches; the
# other sorts small objects by a key function, sums through dict.get and
# math calls and formats floats, a wider spread of interpreter code. A loop
# over a small list alone tracked the slow state less well than either:
# the program's own working set and code suffer more from it (NOTES.md).
_XS = [((i * 37) % 1009) / 1009.0 for i in range(65536)]
_STORE = dict.fromkeys(range(16384), 0.0)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self):
        return self.a * 0.5 + self.b


def _loop() -> float:
    acc = 0.0
    for j in range(2048):
        y = _XS[(j * 613) & 65535] * 1.0001 - 0.5
        if y > 0.0:
            acc += y * y
        else:
            acc -= y
        _STORE[(j * 31) & 16383] = y
    points = [_Point(i * 0.1, (i * 7) % 13) for i in range(300)]
    points.sort(key=_Point.value)
    sums = {}
    for i, p in enumerate(points):
        sums[i % 37] = sums.get(i % 37, 0.0) + p.value()
        acc += math.sqrt(abs(p.a - p.b)) if i % 3 else math.log1p(p.a)
    acc += sum(sums.values())
    return acc + len(",".join(f"{p.a:.3f}" for p in points[:50]))


def _numpy_loop():
    """120 dot products of 12-float vectors: the per-call cost of small
    numpy operations, which dominates the package's model predicts
    (exact_shapley calls one per coalition). With the pure-Python loop alone
    about a quarter of a host slowdown stayed in those commands' figures."""
    import numpy as np  # only where the measured program has loaded it

    weights = np.linspace(-1.0, 1.0, 12)
    rows = np.cos(np.arange(32 * 12, dtype=float)).reshape(32, 12)

    def loop() -> float:
        acc = 0.0
        for i in range(120):
            acc += float(rows[i % 32] * (i % 2) @ weights + 0.1)
        return acc

    return loop


class Speedometer:
    """Samples host speed from a timer signal while ``measure`` runs. The
    set-up probe samples with the pure-Python loop only, as it must not load
    numpy before its timer starts; the worker adds the numpy part."""

    def __init__(self, numpy_part: bool = False):
        self.speeds: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0
        self._busy = False
        self._parts = [(_loop, REFERENCE_S)]
        if numpy_part:
            self._parts.append((_numpy_loop(), NUMPY_REFERENCE_S))

    def _sample(self, *_):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        c0 = time.process_time()
        speed = 0.0
        for loop, reference in self._parts:
            w0 = time.perf_counter()
            loop()
            w = time.perf_counter() - w0
            speed += reference / w
            self.spent_wall += w
        self.speeds.append(speed / len(self._parts))
        self.spent_cpu += time.process_time() - c0
        self._busy = False

    def measure(self, fn, *args):
        """Run fn(*args). Returns (result, wall s, cpu s, rescaled wall s,
        rescaled cpu s); the rescaled times exclude the sampling."""
        self.speeds, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        w0, c0 = time.perf_counter(), time.process_time()
        spent_w0, spent_c0 = self.spent_wall, self.spent_cpu
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent_wall - spent_w0
        cpu -= self.spent_cpu - spent_c0
        self._sample()
        speed = sum(self.speeds) / len(self.speeds)
        return result, wall, cpu, wall * speed, cpu * speed

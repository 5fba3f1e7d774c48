"""Host speed probe for scaling the benchmark's timings.

The CPUs this benchmark shares run at a speed that drifts by up to 2x over
seconds to minutes, and interpreter-bound work drifts with them.  A fixed
set of kernels that do not use the program is timed between operations
once ``PROBE_INTERVAL_S`` have passed since the last probe.  Time measured
since then is multiplied by ``REFERENCE_S / probe``, the time it would have
taken on a host where the probe takes ``REFERENCE_S``; ``probe`` is the
mean of the probes before and after when one is taken at its end.  Changes
to the program move the operation times and leave the probe alone, so
scaled times move as raw times would on a steady host.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Probe time on the 2-core host the benchmark was calibrated on, in a quiet
# period.  It only sets the scale: every scaled time is a raw time times
# REFERENCE_S / probe.
REFERENCE_S = 0.0020
REPEATS = 3
# Host speed changes over seconds, so one probe covers at most this much
# measured time by default.
PROBE_INTERVAL_S = 0.5


def _interpreter() -> None:
    s = 0.0
    for i in range(40_000):
        s += (i % 7) * 0.5


def _objects() -> None:
    d = {}
    for i in range(4_000):
        x = (i * 2654435761) % 1_000_003
        d[x] = [math.exp(-x * 1e-6), math.log1p(x)]
    sorted(d, key=lambda k: d[k][1])


def _arrays() -> None:
    rng = np.random.default_rng(0)
    y = rng.standard_normal((50, 1000))
    z = rng.standard_normal((50, 1000))
    np.einsum("ij,ij->i", y, z)


def _text() -> None:
    rows = [{"a": i, "b": [i * 0.5, str(i)], "c": {"d": i % 7}}
            for i in range(500)]
    json.loads(json.dumps(rows))


def _simpson(f, a, b, fa, fm, fb, whole, tol):
    m, lm, rm = 0.5 * (a + b), 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol))


def _calls() -> None:
    def f(x):
        return math.exp(-x * x) * math.cos(3.0 * x) + math.log1p(x)
    fa, fm, fb = f(0.0), f(2.0), f(4.0)
    _simpson(f, 0.0, 4.0, fa, fm, fb, 4.0 / 6.0 * (fa + 4.0 * fm + fb),
             1e-11)


KERNELS = (_interpreter, _objects, _arrays, _text, _calls)


def probe() -> float:
    """Geometric mean over the kernels of the fastest of REPEATS runs."""
    log_sum = 0.0
    for kernel in KERNELS:
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        log_sum += math.log(best)
    return math.exp(log_sum / len(KERNELS))


class Clock:
    """Scaled time, probed again once `interval` seconds have passed.

    `lap` is called between operations; the probe it may take is not
    counted in any scaled time.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.probe_s = probe()
        self.mark = self.probed_at = time.perf_counter()
        self.scaled = 0.0

    def lap(self) -> float:
        """Add the time since the last lap, scaled, and return its scale.

        If a probe is due, it is taken now and the time is scaled by the
        mean of the probes before and after it; otherwise by the last one.
        """
        now = time.perf_counter()
        probe_s = self.probe_s
        if now - self.probed_at >= self.interval:
            self.probe_s = probe()
            probe_s = 0.5 * (probe_s + self.probe_s)
            self.probed_at = time.perf_counter()
        factor = REFERENCE_S / probe_s
        self.scaled += (now - self.mark) * factor
        self.mark = time.perf_counter()
        return factor

    def take(self) -> float:
        """Scaled seconds since the last `take`."""
        self.lap()
        scaled, self.scaled = self.scaled, 0.0
        return scaled

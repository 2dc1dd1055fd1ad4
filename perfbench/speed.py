"""Speed probe: how fast the machine runs Python code right now.

The benchmark was sized on a 2-CPU virtual machine whose cores are shared
with other tenants.  Their load comes in spells of seconds to minutes, during
which all code runs up to twice as slowly, and the spread of raw timings over
five runs reached 30 %.  Every timing is therefore divided by the slowdown that
was measured while it ran.  A fixed snippet that uses no qgeo code is timed
every ``INTERVAL_S`` seconds, from a SIGALRM handler inside the workload
process; ``REFERENCE_S`` over its time is the speed at that moment.
Normalized times are in reference-probe seconds: the time the work would
take at the speed at which one probe takes ``REFERENCE_S``.  So two commits
are compared as if both had run at that one speed.  Raw times are kept next
to them.

    python3 perfbench/speed.py

takes ``CALIBRATION_PROBES`` probes the way a workload process does, from
the SIGALRM handler while the process is busy, and prints their quartiles
as JSON.  ``REFERENCE_S`` is the first quartile of such a calibration (see
``reference_probe`` in baseline.json).
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
CALIBRATION_PROBES = 600
# First quartile of the 600 calibration probes recorded as reference_probe in
# baseline.json (Intel Xeon, 2 CPUs, Python 3.11.7, numpy 2.4.6), rounded to
# the nanosecond.  Only ratios to it matter.
REFERENCE_S = 0.001888473

_M = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)


def reference_work() -> float:
    """A fixed mix of small-object arithmetic and tiny numpy calls, like qgeo's."""
    acc = 0.0
    for k in range(400):
        a, b = complex(k, 1.0), complex(1.0, -k)
        p, q = a * b.conjugate() - b * a, a * b + b * a.conjugate()
        v = _M @ np.array([p, q])
        acc += abs(v[0]) / (1.0 + abs(p))
    return acc


def probe() -> float:
    """Seconds one run of the reference snippet takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Probes taken every INTERVAL_S seconds while started: (start time, duration).

    ``hook(duration)``, when set, is called after each probe; the tracer uses
    it to take the probe's time out of the span it interrupted.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.hook = None
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        duration = time.perf_counter() - t0
        self.times.append(t0)
        self.durations.append(duration)
        if self.hook is not None:
            self.hook(duration)


def speed(durations: list[float]) -> float:
    """Mean speed relative to the reference, over probes spread evenly in time.

    Work done in a wall interval is the integral of the speed, so the mean of
    REFERENCE_S / duration (not of the durations) converts a wall time into
    reference-probe time.
    """
    return statistics.fmean(REFERENCE_S / d for d in durations) if durations else 1.0


def calibrate() -> dict:
    """Quartiles of CALIBRATION_PROBES probes taken while the process is busy.

    Between probes the process runs the reference snippet itself: a probe in
    an idle process runs from cold caches and takes about twice as long as
    one inside a workload.
    """
    probes = SpeedProbe()
    probes.start()
    try:
        while len(probes.durations) < CALIBRATION_PROBES:
            reference_work()
    finally:
        probes.stop()
    durations = probes.durations[:CALIBRATION_PROBES]
    q1, median, q3 = statistics.quantiles(durations, n=4)
    return {
        "command": "python3 perfbench/speed.py",
        "probes": len(durations),
        "interval_s": INTERVAL_S,
        "min_s": min(durations),
        "q1_s": q1,
        "median_s": median,
        "q3_s": q3,
        "max_s": max(durations),
    }


if __name__ == "__main__":
    print(json.dumps(calibrate()))

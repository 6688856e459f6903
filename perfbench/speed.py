"""Host-speed normalisation for wall-clock timings.

Shared CPU hosts drift in speed by a third or more over tens of seconds
(co-tenant load, frequency changes), and the drift hits every numpy
kernel alike: a fixed reference loop and a rasterizer call slow down in
lockstep, so their ratio stays within a few percent while each alone
moves by 30%. The sampler below runs a short fixed numpy loop from a
SIGALRM handler every ``PERIOD_S`` seconds, in the measured thread, and
keeps (time, loop duration) pairs. A timing is then reported as

    (t1 - t0 - time spent in the sampler) * NOMINAL_S / median(loop)

over the loops sampled in and next to [t0, t1]: the time the interval
would have taken on a host that runs the reference loop in
``NOMINAL_S``. The raw seconds are kept alongside for the record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
NOMINAL_S = 0.004     # reference-loop time the metrics are scaled to
_MARGIN_S = 0.6       # samples this close to an interval also count

# a few MB, more than a core's private cache holds, so the loop streams
# from the shared cache / memory whatever the workload left behind
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((400, 400))
_B = np.empty_like(_A)
_C = np.empty_like(_A)
_IDX = _rng.integers(0, _A.size, 40000)


def _reference_loop() -> None:
    np.exp(_A, out=_B)
    np.multiply(_B, _A, out=_B)
    np.sin(_A, out=_C)
    np.add(_B, _C, out=_B)
    _B.ravel()[_IDX].sum()


class SpeedSampler:
    def __init__(self):
        self.at = []        # sample start times (perf_counter)
        self.took = []      # reference-loop durations
        self.paused = [0.0]  # cumulative time spent sampling, per sample
        self._on = False

    def _sample(self, *_):
        t = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        self.at.append(t)
        self.took.append(t1 - t)
        self.paused.append(self.paused[-1] + (time.perf_counter() - t))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._on = True

    def stop(self):
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._on = False

    def _paused_between(self, t0, t1) -> float:
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        return self.paused[j] - self.paused[i]

    def factor(self, t0, t1) -> float:
        """NOMINAL_S over the median reference loop around [t0, t1]."""
        i = bisect.bisect_left(self.at, t0 - _MARGIN_S)
        j = bisect.bisect_right(self.at, t1 + _MARGIN_S)
        window = self.took[i:j]
        if not window:   # no sample near: fall back to the closest ones
            k = min(bisect.bisect_left(self.at, t0), len(self.at) - 1)
            window = self.took[max(0, k - 1):k + 1]
        return NOMINAL_S / statistics.median(window)

    def raw(self, t0, t1) -> float:
        """Seconds in [t0, t1] minus the time the sampler took."""
        return t1 - t0 - self._paused_between(t0, t1)

    def seconds(self, t0, t1) -> float:
        """Host-speed-normalised seconds for the interval [t0, t1]."""
        return self.raw(t0, t1) * self.factor(t0, t1)

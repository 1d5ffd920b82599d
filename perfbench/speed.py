"""Machine-speed sampling, so that times can be reported at a reference speed.

On a shared host the speed of one Python thread is not steady.  On the
2-vCPU machine this benchmark was built on, a fixed loop alternated between
two speeds 40% apart, switching every 30-200 ms, in a mix that changed from
minute to minute.  Wall-clock throughput of the same work then varied by
15-50% from run to run, which hides any regression smaller than that.

A SIGALRM interval timer runs a fixed probe every PERIOD_S: rational
arithmetic on Fractions, the operations the library's character layer is
made of, with the garbage collector paused so that no collection runs
inside a probe.  It touches no library code.  Its duration
measures the machine's speed at that moment: factor = REF_PROBE_S /
duration.  Over 15-s windows this probe tracked the workloads' own speed to
2-3% (correlation 0.97-0.98), where a plain integer loop tracked it to 5-6%.
A timed interval is reported as (its wall time minus the probes that ran
inside it) times the speed factor around it, i.e. in seconds at the speed
at which the probe takes REF_PROBE_S.  The raw wall times go to the detail
output next to the scaled ones.  A traced run records each probe as a span
of its own, so that no layer's self time contains it.
"""

from __future__ import annotations

import gc
import signal
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
PROBE_ITERS = 200
# probe duration that defines the reference speed: about the probe's median
# on the machine the figures in README.md come from
REF_PROBE_S = 0.001


def _probe() -> Fraction:
    acc = Fraction(0)
    for i in range(1, PROBE_ITERS):
        acc = (acc + Fraction(i % 5, 7)) % 1
    return acc


class SpeedSampler:
    """Context manager; while active, records (start, end) of every probe."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._saved = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a late tick during a probe: skip, keep probes disjoint
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.start.append(t0)
        self.end.append(t1)
        self._busy = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _arrays(self):
        # each copy is one C call; a probe landing between the two copies
        # adds a pair that only one of them holds, so drop it
        p0 = np.array(self.start)
        p1 = np.array(self.end)
        n = min(len(p0), len(p1))
        p0, p1 = p0[:n], p1[:n]
        return p0, p1, REF_PROBE_S / (p1 - p0)

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end time of every probe, in time order."""
        p0, p1, _ = self._arrays()
        return p0, p1

    def probe_time(self) -> float:
        p0, p1, _ = self._arrays()
        return float((p1 - p0).sum())

    def mean_factor(self) -> float:
        return float(self._arrays()[2].mean())

    def scaled(self, t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw, scaled) durations of the intervals [t0, t1], probes excluded.

        A probe runs synchronously, so it lies wholly inside an interval or
        wholly outside it.  An interval is scaled by the mean factor of the
        probes inside it, or, if none ran inside, by the nearest probe's.
        """
        p0, p1, f = self._arrays()
        cum_d = np.concatenate(([0.0], np.cumsum(p1 - p0)))
        cum_f = np.concatenate(([0.0], np.cumsum(f)))
        lo = np.searchsorted(p0, t0, side="left")
        hi = np.searchsorted(p0, t1, side="left")
        raw = (t1 - t0) - (cum_d[hi] - cum_d[lo])
        inside = hi > lo
        factor = np.empty_like(raw)
        factor[inside] = (cum_f[hi] - cum_f[lo])[inside] / (hi - lo)[inside]
        before = np.clip(lo - 1, 0, len(p0) - 1)
        after = np.clip(lo, 0, len(p0) - 1)
        gap_before = np.where(lo > 0, t0 - p1[before], np.inf)
        gap_after = np.where(lo < len(p0), p0[after] - t1, np.inf)
        nearest = np.where(gap_before <= gap_after, before, after)
        factor[~inside] = f[nearest[~inside]]
        return raw, raw * factor

"""A reference loop that tracks the host's speed while a workload runs.

On a shared host the same work can take 1.8 times as long from one minute
to the next (see ``README.md``), and a run can fall wholly into a slow
phase, so no statistic of raw times over one run is steady.  ``HostClock``
runs a fixed reference loop five times a second, from a ``SIGALRM``
handler, and converts the wall time of any interval of the run into
*reference loops*: how many runs of the loop the host could have done in
that time.  The loop and the program slow down together, so a figure in
reference loops follows the program's own cost and not the phase of the
host.  Figures are reported in seconds at a fixed reference speed
(``REF_LOOP_S``).

The reference loop is made of the operations that dominate a decision in
``envswitch``: small matrix products and pairwise distances in numpy, a
banded min-plus recursion and a scalar recursive filter in plain Python.
It is fixed; it must not change between the commits being compared.
"""

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2            # one tick of the clock every 0.2 s of wall time
REPEATS = 3               # the fastest of 3 back-to-back loops is a tick's speed
# Seconds one reference loop takes on a quiet host: the fast-phase tick on
# the 2-vCPU Xeon where the benchmark was written.  Figures are reported as
# reference loops times this constant, that is as the seconds the work would
# take on that host while it is quiet.  Only ratios between commits matter,
# and a constant cancels out of them.
REF_LOOP_S = 1.5e-4

_rng = np.random.default_rng(20250916)
_QUERY = _rng.standard_normal((10, 24))
_PROTOS = [_rng.standard_normal((10, 24)) for _ in range(3)]
_EMBED = _rng.standard_normal((24, 8))


def _banded_distance(q, proto) -> float:
    p = proto @ _EMBED
    diff = q[:, None, :] - p[None, :, :]
    cost = (diff * diff).sum(axis=2).tolist()
    inf = float("inf")
    prev = [inf] * 10
    for i in range(10):
        row = [inf] * 10
        for j in range(max(0, i - 3), min(10, i + 4)):
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = min(prev[j], row[j - 1] if j else inf,
                           prev[j - 1] if j else inf)
            row[j] = cost[i][j] + best
        prev = row
    return prev[9]


def reference_loop() -> float:
    """One run of the fixed reference computation, about 0.15 ms."""
    q = _QUERY @ _EMBED
    out = min(_banded_distance(q, proto) for proto in _PROTOS)
    for column in _QUERY.T.tolist():
        mean, var = column[0], 1.0
        for x in column:
            var += 0.01
            gain = var / (var + 0.5)
            mean += gain * (x - mean)
            var *= 1.0 - gain
        out += mean
    return out


def loop_time() -> float:
    """Seconds the reference loop takes now: the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Ticks the reference loop while installed; converts intervals afterwards.

    Each tick records when it started and ended and how long the fastest of
    its loops took.  Intervals measured with ``time.perf_counter`` while the
    clock was installed can then be converted with ``reference_seconds``,
    which leaves out the time the ticks themselves took.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.loop_s = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.loop_s.append(loop_time())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _speed(self, k: int) -> float:
        """Loop time for the gap that ends at tick ``k`` (the mean of the
        ticks on both sides; the nearest one at either end of the run)."""
        n = len(self.loop_s)
        before, after = self.loop_s[max(0, min(n - 1, k - 1))], self.loop_s[min(k, n - 1)]
        return 0.5 * (before + after)

    def reference_seconds(self, a: float, b: float) -> float:
        """Seconds ``[a, b]`` would have taken at the reference speed.

        Each stretch between two ticks counts as its length over the loop
        time of the ticks around it, in reference loops, times
        ``REF_LOOP_S``; the ticks' own time is left out.
        """
        if not self.loop_s:
            raise RuntimeError("the host clock never ticked")
        total, cur = 0.0, a
        k = bisect.bisect_right(self.starts, a)
        while k < len(self.starts) and self.starts[k] < b:
            total += max(0.0, self.starts[k] - cur) / self._speed(k)
            cur = max(cur, self.ends[k])
            k += 1
        return REF_LOOP_S * (total + max(0.0, b - cur) / self._speed(k))

    def median_loop_ms(self) -> float:
        return 1e3 * float(np.median(self.loop_s)) if self.loop_s else 0.0

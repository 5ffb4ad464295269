"""The reference probe and the timeline of a timed phase.

The host may switch between CPU speeds every few seconds, which moves raw
wall times by 20-50 % between identical runs. Every timed segment is
therefore followed (at once, or after about 20 ms of work) by one run of a
fixed probe that does not call cellfade: 20x20 numpy mat-vecs mixed with
scalar Python arithmetic, small-object churn, a bisect, a caught exception
and a 241-point array op, about 1 ms of the kinds of work the simulator
does. A segment's raw time is scaled by

    P_REF / median(probe durations within HALF_WINDOW probes of it)

which gives *reference seconds*: seconds on a host where the probe takes
exactly P_REF. The probe code, its inputs and P_REF are frozen together;
changing any of them changes the unit of every time the benchmark reports.
"""

import bisect
import math
import time

import numpy as np

P_REF = 1.0e-3       # s; the probe's duration on the reference host
HALF_WINDOW = 5      # probes on each side in the rolling median
_ITERATIONS = 300

_rng = np.random.default_rng(20240517)
_A = _rng.standard_normal((20, 20)) / 20.0
_V0 = _rng.standard_normal(20)
_GRID = np.linspace(0.0, 1.0, 241)
_BREAKS = np.sort(_rng.random(64)).tolist()
del _rng


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _next(p, s):
    return _Point(p.y, p.x * 0.5 + s)


def probe():
    """Run the reference work once; return its raw duration, s."""
    t0 = time.perf_counter()
    v = _V0
    p = _Point(0.25, 0.5)
    acc = 0.0
    for i in range(_ITERATIONS):
        v = _A @ v
        s = float(v[i % 20])
        acc += math.sqrt(s * s + 1.0) * 0.5 + (i & 7) * 1e-3
        if i & 1:
            p = _next(p, s * 1e-3)
            acc += bisect.bisect_right(_BREAKS, p.x - math.floor(p.x)) * 1e-3
            try:
                if i % 32 == 1:
                    raise ValueError(i)
            except ValueError:
                acc -= 1e-3
        if i % 16 == 0:
            w = np.clip(_GRID * (1.0 + s * 1e-3), 0.1, 0.9)
            acc += float(np.abs(w - _GRID).max())
        acc -= math.floor(acc)
    return time.perf_counter() - t0


def scales(durations):
    """Reference-unit scale factor at each probe index."""
    d = np.asarray(durations, dtype=float)
    out = np.empty(len(d))
    for i in range(len(d)):
        out[i] = P_REF / np.median(d[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
    return out


class Timeline:
    """Raw work segments of a timed phase and the probes between them.

    mark() starts a segment; close() ends it and runs a probe once at least
    `probe_every` seconds of work have built up since the last one. Each
    segment is scaled by the probes around the first probe that follows it.
    Time spent in probes and between close() and the next mark() is not
    work and is not counted.
    """

    def __init__(self, probe_every=0.0):
        self.probe_every = probe_every
        self.start = []      # raw perf_counter at segment start
        self.raw = []        # raw duration, s
        self.is_op = []      # True for an operation, False for other work
        self.pass_no = []
        self.probe_at = []   # index of the probe that follows the segment
        self.probes = []
        self.current_pass = 0
        self._mark = time.perf_counter()
        self._unprobed = 0.0

    def warm_up(self, n=50):
        for _ in range(n):
            probe()

    def mark(self):
        self._mark = time.perf_counter()

    def close(self, op=True):
        t = time.perf_counter()
        dt = t - self._mark
        self.start.append(self._mark)
        self.raw.append(dt)
        self.is_op.append(op)
        self.pass_no.append(self.current_pass)
        self.probe_at.append(len(self.probes))
        self._unprobed += dt
        if self._unprobed >= self.probe_every:
            self.flush()
        self._mark = time.perf_counter()

    def flush(self):
        """Probe now, so every closed segment has a probe after it."""
        if self.probe_at and self.probe_at[-1] == len(self.probes):
            self.probes.append(probe())
        self._unprobed = 0.0

    def segment_scales(self):
        return scales(self.probes)[np.asarray(self.probe_at, dtype=int)]

    def normalized(self):
        """Reference-second duration of every segment."""
        return np.asarray(self.raw) * self.segment_scales()

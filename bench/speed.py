"""How fast this machine runs Python right now, sampled while queries run.

Other tenants of the machine slow every process on it by up to two times, in
phases that last seconds to minutes, and process CPU time grows with them.
So a timer signal runs a small fixed calibration unit every `INTERVAL_S`,
in the benchmark process itself, and records how long the unit took.  A
time measured while the unit took `d` is scaled by `REFERENCE_UNIT_S / d`:
times are reported at the speed the machine has when the unit takes
`REFERENCE_UNIT_S`.  The unit is a tiny model checker of its own, so it
does the same kind of work as the library without using any of its code: a
change to the library never changes the unit's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.01
WINDOW_S = 0.25  # samples this close to a short interval also describe it
# The unit's time on the 2-CPU Xeon machine the benchmark was written on,
# when it ran at its fastest; it sets the scale of every reported time.
REFERENCE_UNIT_S = 130e-6

_WORLDS = ("w0", "w1", "w2", "w3")
_VAL = {"w0": frozenset({"p"}), "w1": frozenset({"q"}), "w2": frozenset({"p", "q"}),
        "w3": frozenset()}
_SUCC = {"a": {"w0": ("w1", "w2"), "w1": ("w3",), "w2": ("w0", "w3")},
         "b": {"w0": ("w3",), "w3": ("w1", "w2")}}
_FORMULA = ("and", ("dia", "a", ("or", ("p", "q"), ("box", "b", ("p", "p")))),
            ("not", ("box", "a", ("and", ("p", "p"), ("dia", "b", ("not", ("p", "q")))))))
_NONE = ()


def _holds(f, w):
    # Allocates nothing, so a sample never sets off a garbage collection.
    op = f[0]
    if op == "p":
        return f[1] in _VAL[w]
    if op == "not":
        return not _holds(f[1], w)
    if op == "and":
        return _holds(f[1], w) and _holds(f[2], w)
    if op == "or":
        return _holds(f[1], w) or _holds(f[2], w)
    if op == "dia":
        for v in _SUCC[f[1]].get(w, _NONE):
            if _holds(f[2], v):
                return True
        return False
    for v in _SUCC[f[1]].get(w, _NONE):
        if not _holds(f[2], v):
            return False
    return True


def calibration_unit():
    hits = 0
    for _ in range(36):
        for w in _WORLDS:
            hits += _holds(_FORMULA, w)
    return hits


class SpeedProbe:
    """Samples the calibration unit's time on a timer while it is running."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        calibration_unit()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, start, end):
        """The interval's length without the probe's own work, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        near_lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        near_hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        near = self.durations[lo:hi] if hi - lo >= 5 else self.durations[near_lo:near_hi]
        if not near:
            raise RuntimeError("no speed samples near a timed interval")
        # The mean, not the median: an interval pays the time-average
        # slowdown, brief stalls included.
        return (end - start - own) * REFERENCE_UNIT_S * len(near) / sum(near)

    def median_unit_s(self):
        return statistics.median(self.durations)

"""Times in reference seconds: wall time corrected for the machine's speed.

On a shared machine the speed of one CPU changes by up to half for
minutes at a time, whatever the benchmark does.  Over five minutes of
back-to-back commands, the medians of 30 s windows spread (quartile
distance over median) by 0.13-0.32 in wall time, and by 0.03-0.12 once
each command's time was divided by the time of a fixed probe run next
to it.  So every timed interval is bracketed by probes:

    reference seconds = wall seconds * REFERENCE_S / mean(probe before, probe after)

that is, the time the interval would have taken on a machine that runs
the probe in REFERENCE_S.  The probe uses no graphpde code, so a change
to graphpde moves reference seconds exactly as it moves wall seconds.
It mixes the two kinds of work graphpde does: interpreted Python over
small numpy arrays (energy assembly, the solvers' loops) and dense
single-thread BLAS (eigen, Newton steps); normalising by either part
alone left some workloads twice as noisy as normalising by both.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the machine that recorded baseline.json (two
# cores of a shared x86_64 host, one BLAS thread, OpenBLAS 0.3.31), so
# reference seconds there are close to wall seconds.
REFERENCE_S = 0.0165

_X = np.linspace(0.0, 1.0, 100)
_A = np.random.default_rng(0).random((300, 300)) + 300.0 * np.eye(300)
_B = np.ones((300, 4))


def probe() -> float:
    """Wall time of a fixed piece of work, about REFERENCE_S long."""
    t0 = time.perf_counter()
    s, counts = 0.0, {}
    for i in range(1500):
        y = _X * _X - 0.5 * _X
        s += float(y @ _X)
        counts[i % 97] = counts.get(i % 97, 0) + sum(range(40))
    for _ in range(3):
        np.linalg.solve(_A, _B)
        _A @ _A
    return time.perf_counter() - t0


class Clock:
    """Times intervals in reference seconds.  The probe after one
    interval is also the probe before the next, so a closed loop pays
    one probe per command."""

    def __init__(self):
        probe()                 # first BLAS call pays lazy set-up
        self.last = probe()
        self.probes = [self.last]

    def fresh(self):
        """Probe again before an interval that does not follow the last one."""
        self.last = probe()
        self.probes.append(self.last)

    def scale(self, wall: float) -> float:
        """Reference seconds of an interval of `wall` seconds that ended just now."""
        after = probe()
        self.probes.append(after)
        ref = wall * REFERENCE_S * 2.0 / (self.last + after)
        self.last = after
        return ref

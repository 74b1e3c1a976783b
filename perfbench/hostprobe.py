"""Host-speed probe: corrects measured times for slow phases of a shared host.

On a virtual machine that shares cores with other tenants, the same
single-threaded work can run 1.75x slower for seconds to minutes at a time,
with no steal time to show it (CPU time rises with wall time). The probe
runs a short fixed computation from a SIGALRM handler every PERIOD_S of
wall time, in the benchmark's own thread, and records how long it took. A
measured interval is then corrected in two steps:

1. the probe time that fell inside it is subtracted;
2. the remainder is scaled by NOMINAL_S / local, where local is the mean
   probe duration inside the interval (for intervals shorter than the
   period, the two probes around it).

Corrected times estimate how long the work takes on a host where one probe
takes NOMINAL_S (a 2-vCPU Intel Xeon KVM guest with Python 3.11.7 and numpy
2.4.6 took 0.4-0.6 ms in its fast phases); only ratios between runs matter.
A fixed reference, rather than each run's own fastest probes, keeps runs
comparable when a whole run falls in a slow phase. The probe mimics the library's work (softmax rows, cumulative sums,
searchsorted and log terms on short arrays, and list building, in a Python
loop), so its slowdown tracks the workloads' slowdown.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025
NOMINAL_S = 0.6e-3
_ROW = np.array([0.3, -0.2, 0.5])
_U = np.linspace(0.05, 0.95, 7)


def _probe_work(iterations: int = 25) -> float:
    acc = 0.0
    path = []
    for i in range(iterations):
        e = np.exp(_ROW - _ROW.max())
        p = (e / e.sum() + 1e-8) / (1.0 + 3e-8)
        acc += float(np.searchsorted(np.cumsum(p), _U[i % 7], side="right"))
        acc += float((p * (np.log(p) - np.log(p[::-1]))).sum())
        path.append((i, acc))
        path = [(s, a) for s, a in path[-4:]]
    return acc


class HostProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        _probe_work()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def correct(self, begins, ends) -> np.ndarray:
        """Corrected durations of the intervals [begins[i], ends[i]]."""
        begins = np.asarray(begins, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        if durations.size < 2:
            return ends - begins
        cum = np.concatenate([[0.0], np.cumsum(durations)])
        i0 = np.searchsorted(starts, begins)
        i1 = np.searchsorted(starts, ends)
        inside = cum[i1] - cum[i0]
        count = i1 - i0
        before = durations[np.clip(i0 - 1, 0, durations.size - 1)]
        after = durations[np.clip(i0, 0, durations.size - 1)]
        local = np.where(count > 0, inside / np.maximum(count, 1),
                         0.5 * (before + after))
        return (ends - begins - inside) * NOMINAL_S / local

    def summary(self) -> dict:
        d = np.asarray(self.durations)
        if d.size == 0:
            return {"probes": 0}
        return {"probes": int(d.size), "p5_ms": float(np.percentile(d, 5)
                                                      * 1e3),
                "median_ms": float(np.median(d) * 1e3),
                "nominal_ms": NOMINAL_S * 1e3}

"""Host-speed probe: fixed work whose time tracks how fast the host runs now.

The host's speed drifts by tens of percent over seconds to minutes
(neighbours on shared cores).  A fixed 45 ms pure-Python loop, repeated
for five minutes on an otherwise idle 2-core VM, had 10-second medians
from 43 ms to 72 ms.  Timing this probe next to each measured call and
rescaling by ``REFERENCE_S / probe`` turns wall seconds into seconds at
one reference speed, which removes most of that drift.  Over four
minutes that included such swings, the per-sample quartile spread of
fig2a, fig7a and both oracle combs fell from 0.22-0.38 (wall) to
0.09-0.16 (rescaled).

The probe imitates the workloads' mix, one part each: a scalar RK4-like
recurrence (the model's scalar loops), 12-digit float formatting (the
CSV writer), a small complex vector update (oracle stepping) and a
large complex exponential block (the oracle's Fourier projection).  It
is the benchmark's own code, so no change to the package moves it.
"""

from __future__ import annotations

import math
import multiprocessing
import time

import numpy as np

# geometric mean of the parts' best-of-3 times on the reference host
# (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6), a typical phase
REFERENCE_S = 8.0e-3
_REPEATS = 3

_Z = np.exp(1j * np.linspace(0.0, 1.0, 4000))
_W = np.linspace(-1.0, 1.0, 4000)
_VALUES = np.linspace(0.1, 1.0, 15000).tolist()
_OMEGA = np.linspace(-1.0, 1.0, 8)[:, None]
_TIMES = np.linspace(0.0, 3.0, 31417)[None, :]


def _scalar_recurrence() -> None:
    y = 0.0
    for _ in range(75_000):
        k1 = 0.5 * y - 1e-3
        k2 = 0.5 * (y + 1e-4 * k1) - 1e-3
        y = y - 1e-4 * (k1 + k2)


def _format_floats() -> None:
    ",".join(f"{v:.12g}" for v in _VALUES)


def _small_vector() -> None:
    s = _Z.copy()
    for _ in range(300):
        s = s + 1e-4 * (-1j * _W * s + _Z)


def _projection_block() -> None:
    np.trapezoid(np.exp(1j * _OMEGA * _TIMES), axis=1)


_PARTS = (_scalar_recurrence, _format_floats, _small_vector, _projection_block)


def probe_seconds() -> float:
    """Geometric mean over the parts of each part's best of three runs."""
    logs = 0.0
    for part in _PARTS:
        best = math.inf
        for _ in range(_REPEATS):
            started = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - started)
        logs += math.log(best)
    return math.exp(logs / len(_PARTS))


class HostProbe:
    """Runs the probe on one process, or on several at once.

    A pooled scenario's wall time depends on every core it uses, so it
    is rescaled by the probe run on as many processes at the same time
    (the geometric mean of their times).  The helper processes are
    spawned once and sleep between probes.
    """

    def __init__(self, processes: int) -> None:
        self._helpers = (
            multiprocessing.get_context("spawn").Pool(processes - 1) if processes > 1 else None
        )

    def seconds(self, processes: int = 1) -> float:
        if processes == 1:
            return probe_seconds()
        pending = [self._helpers.apply_async(probe_seconds) for _ in range(processes - 1)]
        times = [probe_seconds()] + [p.get() for p in pending]
        return math.exp(sum(math.log(t) for t in times) / len(times))

    def close(self) -> None:
        if self._helpers is not None:
            self._helpers.close()
            self._helpers.join()


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds between two probes into reference seconds."""
    return REFERENCE_S / math.sqrt(before * after)

"""Case latencies corrected for the drift of a shared machine.

The machine this benchmark was written on runs the same code up to 1.8
times slower for tens of seconds at a time, as neighbours load the shared
cores; ten runs of one workload spread by up to 0.4 of their median.  So
an untraced run of a workload whose cases run in its own process times a
fixed probe (three passes of numpy and pure-Python work, 1-2 ms each,
independent of crownkit) after every case, and reports each latency at
the reference speed:

    reported = measured * REFERENCE_S / median(probe times near it)

The probe times near case i are those after cases i-2 .. i+2.  On that
machine this cut the run-to-run spread of case_p50_s on repn_sobolev and
spectral_orbital from 0.13-0.24 to 0.09-0.12 of its median.  Times of
child processes (set-up samples, cli_cold cases) are not corrected: the
child may run on another CPU than the probe, and correcting them raised
their spread from 0.06-0.15 to 0.15-0.23.  The measured latencies are
printed beside the reported ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the probe's time at the reference speed: between its medians in the
#: fast (about 1.0 ms) and slow (1.7-1.9 ms) states of a 2-vCPU VM,
#: Python 3.11, numpy 2.4
REFERENCE_S = 1.5e-3
#: probes on each side of a sample that set its speed
WINDOW = 2

_Z = np.linspace(0.0, 1.0, 2000) * (1.0 + 1.0j)


def _probe_once() -> float:
    t0 = time.perf_counter()
    for i in range(10):
        np.abs(np.exp(_Z * (1.0 + 0.01 * i))).sum()
        sum(j * 0.5 for j in range(1000))
    return time.perf_counter() - t0


def probe() -> float:
    """Wall time of the fixed probe: the least of three passes, so that
    the caches a case or child process left cold do not count."""
    return min(_probe_once() for _ in range(3))


def at_reference(times, probes) -> list[float]:
    """Each of `times` at the reference speed; probes[i] was taken right
    after the work timed by times[i]."""
    return [t * REFERENCE_S / statistics.median(
                probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(times)]

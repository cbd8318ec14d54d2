"""A fixed computation that times the machine rather than the library.

The benchmark host's speed drifts: on a shared 2-core x86-64 VM, one pass
of a workload took anywhere from 0.66 to 1.2 times its median over 10 s
stretches, with CPU time tracking wall time, so the whole core was slower,
not the process descheduled.  The run therefore interleaves this
reference with the library's calls, and reports throughput scaled by
``median reference time / NOMINAL_S``: the throughput the library would
show on a machine that runs the reference in ``NOMINAL_S``.  The
reference mixes what the library spends its time on (FFTs, a small
least-squares fit of the kind the envelope fitter runs, plain interpreter
work) and never calls the library, so a change to the library moves the scaled figure just as
it moves the wall-clock one.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import least_squares

# Reference time the scaled throughput is expressed at: a round figure
# near the median on the VM described above.
NOMINAL_S = 0.0085


class Reference:
    nominal_s = NOMINAL_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((8, 4096))
        self._grid = np.linspace(0.0, 1.0, 64)
        self._target = 1.3 * np.exp(-2.0 * self._grid) * np.cos(9.0 * self._grid + 0.4)
        self._target += 0.01 * rng.standard_normal(self._grid.size)

    def _residual(self, p):
        return p[0] * np.exp(-p[1] * self._grid) * np.cos(p[2] * self._grid + p[3]) - self._target

    def run(self) -> float:
        """Wall seconds of one reference computation."""
        t0 = time.perf_counter()
        for _ in range(2):
            np.fft.irfft(np.fft.rfft(self._block, axis=1), axis=1)
        # a small fixed fit: the envelope fitter's kind of work
        least_squares(self._residual, [0.5, 0.1, 5.0, 0.0], method="trf", max_nfev=200)
        total = 0
        for i in range(10000):
            total += (i * i) % 7
        return time.perf_counter() - t0

"""Host speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine a neighbour can slow every instruction of this
process by up to about 1.8x, for seconds to minutes at a time. Measured on
a 2-vCPU KVM guest: step times of the same run were bimodal at about 2.2
and 3.8 ms, CPU time rose with wall time (contention, not preemption), and
the slow share of a 20 s window varied from none to all of it. Medians of
raw times then move by 20-40% between runs of the same code.

A fixed kernel doing the program's kind of work (a few elementwise numpy
operations and a row reduction on a 32x32 array) is timed next to each
measurement, and the measured time is multiplied by ``REF_US`` over the
recent probe time. On a quiet machine where the probe takes ``REF_US`` the
scaled and raw times agree; under contention the raw times move and the
scaled ones stay within a few percent. The probe is benchmark code, so no
change to the package changes it.
"""

from __future__ import annotations

import time
from array import array

# Probe time on an uncontended 2.1 GHz Xeon (Sapphire Rapids) KVM guest,
# Python 3.11, numpy 2.4.
REF_US = 40.0
# Minimum gap between probes inside a run.
INTERVAL_S = 0.005


class Probe:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 32))
        self.col = self.a[:, :1].copy()
        self.sqrt, self.mean = np.sqrt, np.mean
        self.samples_us = array("d")

    def _kernel(self):
        a, col = self.a, self.col
        for _ in range(4):
            y = a * col + a
            self.sqrt(self.mean(y * y, axis=1))

    def measure(self) -> float:
        """Run the probe once; returns the seconds it took."""
        t0 = time.perf_counter()
        self._kernel()
        spent = time.perf_counter() - t0
        self.samples_us.append(spent * 1e6)
        return spent

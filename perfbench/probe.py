"""A fixed piece of work that measures how fast the machine runs right now.

On a shared machine the same epoch can take 60% longer for seconds to
minutes at a time, with no steal time visible to the guest, because other
tenants load the same physical cores.  Every pass the benchmark times sits
between two probe slots, and its time is reported at the probe's reference
speed:

    reported = wall * reference / mean(median probe time before, after)

The probe is 40 einsum calls on a (500, 4, 4) complex array followed by
400 small draws from a numpy Generator, each copied into a tuple, the way
a dataset is built.  Different work slows by different amounts: einsum
alone followed the quantum epochs and the 2000-row forward pass but not the
classical epochs, the draws alone the reverse, and an interpreter loop or
an einsum over a 4 MB array neither.  Measured over three minutes against
2x2 and 8x8 epochs, classical epochs and a 2000-row forward pass, the mix
brought the quartile spread over 12-second windows from 24-32% unscaled to
5-7%, and the draws alone brought that of the classical epochs to 2%; so
classical epochs are scaled by the draw part of the probe, everything else
by the whole probe.  It does not follow interpreter start-up, so `setup_s` stays about as
noisy as it is unscaled.  Its inputs are fixed, it calls nothing in the
package, and a change to the package cannot change its time.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# probe times (whole probe, draw part) on the 2-core reference machine in
# its fast state
REFERENCE_S = (0.017, 0.005)
WHOLE, DRAWS = 0, 1
# share of each timed pass spent probing right after it (at least one probe)
PROBE_SHARE = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20220715)
        self.x = rng.standard_normal((500, 4, 4)) + 0j
        self.g = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        self.times = []

    def once(self) -> tuple:
        """(whole probe time, draw part time)."""
        t0 = time.perf_counter()
        x = self.x
        for _ in range(40):
            x = np.einsum("ab,nbc->nac", self.g, x)
        t1 = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(7))
        rows = []
        for _ in range(400):
            rows.append((int(rng.integers(0, 2)), np.asarray(rng.integers(0, 256, size=4), dtype=np.int64)))
        t2 = time.perf_counter()
        return (t2 - t0, t2 - t1)

    def slot(self, budget_s: float = 0.0) -> tuple:
        """Median (whole, draw part) times, repeating the probe until
        `budget_s` is spent."""
        times = [self.once()]
        while sum(t[WHOLE] for t in times) < budget_s:
            times.append(self.once())
        self.times += times
        return tuple(statistics.median(t[k] for t in times) for k in (WHOLE, DRAWS))


def scale(wall: float, before: tuple, after: tuple, part: int = WHOLE) -> float:
    """Wall time expressed at the probe's reference speed."""
    return wall * REFERENCE_S[part] / ((before[part] + after[part]) / 2.0)

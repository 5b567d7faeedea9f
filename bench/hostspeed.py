"""Host-speed probe: a fixed kernel timed next to every measurement.

On a shared 2-vCPU Xeon cloud host, neighbours make all code run up to
1.7x slower for minutes at a time, which a run of some seconds cannot
average away: the median raw wall time of one workload spread by 13-31%
(quartile distance over median) across ten runs.  This probe does not use
ddrom; it mixes what the library's queries spend their time on
(interpreter loop, dense LU, sparse solve, small dense products) and slows
by about the same factor.  Each end-to-end time is scaled by
``REFERENCE_MS`` over the probe's time next to it, which gives the time
the same work takes on a quiet host; across ten runs those spread by 3-9%.
The raw wall times stay in the run's details and log.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg as sl
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: the probe's time in ms on an idle core of a 2.0 GHz Xeon; end-to-end
#: times are reported at that host speed
REFERENCE_MS = 3.0

_DENSE = np.random.default_rng(0).standard_normal((160, 160))
_SPARSE = sp.diags([-1.0, 4.0, -1.5], [-40, 0, 1], shape=(1500, 1500),
                   format="csc")
_RHS = np.ones(1500)


def probe_ms(repeats: int = 1) -> float:
    """Milliseconds of the probe kernel, the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(3000):
            s += i * i
        sl.lu_factor(_DENSE)
        spla.spsolve(_SPARSE, _RHS)
        x = np.ones(50)
        for _ in range(100):
            x = np.tanh(_DENSE[:50, :50] @ x)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def at_reference(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe`` ms, rescaled to
    the host speed at which it takes ``REFERENCE_MS``."""
    return seconds * REFERENCE_MS / probe

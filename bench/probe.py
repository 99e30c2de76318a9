"""Machine-speed probe.

On a shared machine the same Python code runs up to about twice as slow
for seconds to minutes at a time, so raw times from two runs differ more
than any change worth measuring.  The probe is a fixed piece of pure-Python
work shaped like the program's hot loops (exact-rational comparisons on
table lookups), and it shares no code with the program.  The worker runs it
every ``INTERVAL_S`` during its measured loop, also in the middle of jobs
(see ``worker.Speed``), and ``run.py`` runs it around every set-up.  Times
are reported in seconds of a machine on which the probe takes
``REFERENCE_S``; unscaled times are kept in the results file.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.005  # the probe's time on a quiet 2-core Intel Xeon, CPython 3.11
INTERVAL_S = 0.1     # time between two probes in a measured loop

_VALUES = [Fraction(k, 16) for k in range(17)]
_TABLE = [[(i * 7 + j * 3) % 17 for j in range(17)] for i in range(17)]


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    v, t = _VALUES, _TABLE
    start = time.perf_counter()
    hits = 0
    for _ in range(10):
        for i in range(17):
            row = t[i]
            for j in range(17):
                if max(v[row[j]], v[i]) < min(v[j], v[16]):
                    hits += 1
    elapsed = time.perf_counter() - start
    if hits != 880:
        raise RuntimeError(f"probe computed {hits}, expected 880")
    return elapsed

"""CPU-speed gauge that puts unit times on one scale across runs.

The benchmark's host is a two-vCPU share of a busy machine.  Its speed moves
between two states about 1.45x apart, sometimes within a second and
sometimes for tens of seconds, and everything slows together: a pure-Python
loop, a BLAS product and every workload's units.  ``gauge`` times a fixed
pure-Python loop; the benchmark gauges between units, and ``to_ref``
rescales a piece of work by the mean of the gauges just before and after it,
to the speed at which the loop takes ``GAUGE_REF_S``.  On the 2-vCPU Xeon
host, unit medians of ten runs of the same code spread (quartile distance
over median) 0.02-0.08 rescaled, against 0.12-0.3 raw.

The gauge runs no bihns code, so a change to the package moves the rescaled
times exactly as it moves the raw ones.  Work the package leaves running in
the background between units would slow the gauge as well and be partly
divided out; no bihns module starts any.  Only the standard library is
imported here, so ``setup_probe.py`` can gauge before ``bihns`` is imported.
"""

from statistics import fmean
from time import perf_counter

#: iterations of the gauge loop (about 10 ms at full speed)
GAUGE_LOOPS = 200_000
#: the gauge's time at full speed on the 2-vCPU Xeon host the benchmark was
#: tuned on; rescaled times read as seconds at that speed
GAUGE_REF_S = 0.0105


def gauge() -> float:
    """Seconds the fixed loop takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i
    return perf_counter() - t0


def to_ref(seconds: float, gauges) -> float:
    """``seconds`` of work done between ``gauges`` at the reference speed."""
    return seconds * GAUGE_REF_S / fmean(gauges)

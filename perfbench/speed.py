"""Host-speed probe: how fast this CPU runs Python right now.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 20% or more over tens of seconds (noisy neighbours; no steal time
shows in the guest).  Every timed op of an untraced run is bracketed by
:func:`probe` calls made in the process doing the work, and its time is
rescaled to what it would read at :data:`REFERENCE_MS`:

    normalised ms = measured ms * REFERENCE_MS / probe ms around the op

The probe is a fixed pure-Python loop owned by the benchmark, so a
change to the simulator moves the work's time but never the probe's.
Dict-heavy interpreter work tracked the simulator's drift better than an
object-heavy loop did (per-campaign spread on fuzz-churn 0.02-0.06
against 0.03-0.07 after normalising, 0.03-0.11 before).
"""

from __future__ import annotations

import statistics
import time

#: The probe's median on the reference host (2-vCPU Xeon KVM guest,
#: CPython 3), in ms: normalised times read as milliseconds there.
REFERENCE_MS = 3.7
#: Timed repeats of the loop per probe; the median is reported.
REPEATS = 3


def _loop() -> int:
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return len(table)


def probe() -> float:
    """The loop's median time over :data:`REPEATS` runs, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def normalise(ms: float, before: float, after: float) -> float:
    """``ms`` measured between probes reading ``before`` and ``after``,
    rescaled to the reference speed."""
    return ms * REFERENCE_MS * 2 / (before + after)

"""Host seconds scaled to a reference host speed.

Other processes on a shared host slow this one for seconds to minutes at
a time: on a 2-vCPU cloud VM the probe below took from 0.035 s to 0.12 s
within half a minute, and whole benchmark runs moved by a quarter from
one minute to the next.  The program and a fixed calibration loop slow
alike, so every timed pass is bracketed by two probes and its host
seconds are scaled by the probes' mean relative to the probe's
reference time (a suite pass probes after every unit and takes the
median of those factors).  On an uncontended host the two kinds of
seconds agree; the notes a run prints give both.
"""

from __future__ import annotations

import time

#: Seconds one probe takes on the reference host (a 2-vCPU cloud VM,
#: CPython 3.11, uncontended).
REFERENCE_PROBE_S = 0.034


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - started


class HostSpeed:
    """Probes around consecutive passes; neighbours share a probe."""

    def __init__(self) -> None:
        self._last = probe()

    def factor(self) -> float:
        """Call right after a pass: reference seconds per host second for
        the time since the previous call (or since construction)."""
        before, self._last = self._last, probe()
        return 2 * REFERENCE_PROBE_S / (before + self._last)

"""Host time in reference seconds: wall time rescaled by the host's momentary speed.

On a shared 2-core sandbox the same Python code runs up to a third faster or
slower from one 10 s stretch to the next (neighbouring tenants contend for
the cores and the shared cache), so two runs of identical work can differ by
that much.  A :class:`ReferenceClock` interleaves a fixed probe with the
measured work (from a ``SIGALRM`` timer, every ``interval_s``) and rescales
each stretch of wall time between two probes by how long those probes took
against :data:`NOMINAL_PROBE_S`.  The probe has two halves, like the
simulator's hot paths: interpreter-bound dict updates, and random reads over
a 64 MiB table, far larger than the L2 cache.  A slower host slows the probe
and the simulator alike, so the ratio cancels most of the drift; a slower
simulator leaves the probe alone and shows in full.  (On ``randread`` a probe
without the table tracked the drift worse than raw wall time did; the table
is what makes it follow the contention on the shared cache.)  Probe time is excluded.  The probe
touches no simulator state, so simulated results are unchanged.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from array import array

__all__ = ["NOMINAL_PROBE_S", "ReferenceClock"]

#: Probe sizes, and the probe's median duration on the reference host (2-core
#: x86 VM, CPython 3.11) while the benchmark runs: there, reference seconds
#: track wall seconds.
PROBE_DICT_UPDATES = 5_000
PROBE_TABLE_ENTRIES = 8_000_000
PROBE_TABLE_READS = 3_000
NOMINAL_PROBE_S = 0.0019


class ReferenceClock:
    """Context manager that probes host speed while measured code runs.

    Call :meth:`mark` at the start and end of each measured stretch, then
    :meth:`seconds` with the two marks.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        #: ``(start, end)`` perf-counter stamps of every probe, in order.
        self.probes: list[tuple[float, float]] = []
        self._table = array("q", range(PROBE_TABLE_ENTRIES))
        rng = random.Random(0)
        self._reads = array("q", (rng.randrange(PROBE_TABLE_ENTRIES)
                                  for _ in range(PROBE_TABLE_READS)))
        self._busy = False
        self._previous_handler = None

    def _probe_work(self) -> int:
        cache: dict[int, int] = {}
        total = 0
        for i in range(PROBE_DICT_UPDATES):
            cache[i & 255] = i
            total += cache.get((i * 7) & 255, 0)
        table = self._table
        for index in self._reads:
            total += table[index]
        return total

    def _probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._probe_work()
            self.probes.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def __enter__(self) -> "ReferenceClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> int:
        """Probe now; returns the probe's index, which bounds a measured stretch."""
        self._probe()
        return len(self.probes) - 1

    def seconds(self, first: int, last: int) -> tuple[float, float]:
        """``(reference seconds, wall seconds)`` between two marks, probes excluded.

        Each gap between consecutive probes is scaled by the nominal probe
        time over the mean duration of the two probes that bracket it.
        """
        reference = wall = 0.0
        for (start_a, end_a), (start_b, end_b) in zip(
            self.probes[first:last], self.probes[first + 1 : last + 1]
        ):
            gap = start_b - end_a
            speed = NOMINAL_PROBE_S / ((end_a - start_a + end_b - start_b) / 2)
            reference += gap * speed
            wall += gap
        return reference, wall

    @property
    def table_bytes(self) -> int:
        """Resident size of the probe table (held for the clock's lifetime)."""
        return self._table.itemsize * len(self._table)

    def median_probe_s(self) -> float:
        """Median probe duration so far (for recalibrating the nominal)."""
        return statistics.median(end - start for start, end in self.probes)

"""A fixed reference kernel that tells how fast the machine runs Python now.

On a shared host the same code runs up to about 2x slower for spells of
seconds to minutes, depending on what the neighbours do.  A median over a
run cannot remove a spell that lasts the whole run.  So while the benchmark
times the program, an interval timer interrupts it every PROBE_EVERY_S and
runs this kernel once, and each timed interval is scaled by how much slower
than its nominal time the kernel ran during and around that interval:

    scaled = (measured - kernel time inside) * NOMINAL_S / mean kernel time

The kernel is pure Python in the benchmark's own files and never calls the
package, so a change to the package cannot move it.  It does the same kind
of work as the miner (small-int dict and set lookups, list slicing, a sort)
and allocates no reference cycles; the cyclic collector is off while it
runs, so its time does not depend on the size of the package's heap.  A
kernel run can only start between two bytecodes of the program, so a long
call into C (a big sort) delays it but is never split by it.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

# The kernel's time on a 2-vCPU Intel Xeon VM (Python 3.11.7) in
# that machine's fast spells.  Scaled timings read as seconds on it then.
NOMINAL_S = 0.0100
PROBE_EVERY_S = 0.25  # interval timer period
HALO_S = 1.0  # kernel runs this close to a timed interval also count

_SEQUENCES = 1100
_ITEMS = 40


def _reference_db():
    r = random.Random(20191224)
    return [
        [sorted(r.sample(range(_ITEMS), r.randint(1, 3))) for _ in range(r.randint(2, 6))]
        for _ in range(_SEQUENCES)
    ]


def _kernel(db) -> list:
    """Support of every two-item sequential pattern, by projection."""
    counts = {}
    for seq in db:
        first = {}
        for pos, element in enumerate(seq):
            for item in element:
                first.setdefault(item, pos)
        seen = set()
        for a, pos in first.items():
            for element in seq[pos + 1:]:
                for b in element:
                    key = a * _ITEMS + b
                    if key not in seen:
                        seen.add(key)
                        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:50]


class SpeedProbe:
    """Kernel runs (start, end) along a run, taken from a SIGALRM interval
    timer while the probe is entered, and the scaling of a timed interval by
    the runs during it and within HALO_S of it."""

    def __init__(self):
        self.db = _reference_db()
        self.expected = _kernel(self.db)
        self.starts, self.ends = [], []
        self.wrong = 0
        self._previous = None

    def run_kernel(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        try:
            out = _kernel(self.db)
        finally:
            end = perf_counter()
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        if out != self.expected:
            self.wrong += 1

    def __enter__(self):
        self.run_kernel()
        self._previous = signal.signal(signal.SIGALRM, self.run_kernel)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.run_kernel()
        if self.wrong:
            raise RuntimeError("speed probe kernel gave a different result")

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's time without the kernel runs inside it, times
        NOMINAL_S over the mean kernel time during it and within HALO_S of
        it (at least the last run before and the first after).  The mean,
        not the median: the program's time is the sum of its slowdowns,
        short bursts included."""
        starts, ends = self.starts, self.ends
        inside = sum(ends[k] - starts[k] for k in range(
            bisect.bisect_left(starts, t0), bisect.bisect_right(ends, t1)))
        lo = min(bisect.bisect_left(ends, t0 - HALO_S),
                 max(0, bisect.bisect_right(ends, t0) - 1))
        hi = max(bisect.bisect_right(starts, t1 + HALO_S),
                 min(len(starts), bisect.bisect_left(starts, t1) + 1))
        times = [ends[k] - starts[k] for k in range(lo, hi)]
        return (t1 - t0 - inside) * NOMINAL_S / statistics.fmean(times)

    def kernel_times(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

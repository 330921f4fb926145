"""Stage times corrected for the machine's speed at the moment they ran.

On a shared host a virtual CPU runs a fixed loop up to ~2x slower while
other tenants are busy, in phases that can outlast a whole run (see
README.md). A wall-clock stage time then says as much about the neighbours
as about the program. `Speedometer` samples the CPU's speed throughout the
measured stages: a SIGALRM timer interrupts the process every
`PROBE_INTERVAL_S` and times a fixed reference loop on the same CPU. A stage
from `a` to `b` is then reported as

    work * (REFERENCE_S / probe) ** SENSITIVITY[stage]

where `work` is b - a less the probes that ran inside it, and `probe` is the
median time of the probes near [a, b]: the stage's time at the speed where
the reference loop takes `REFERENCE_S`. Stages do not all slow by the same
factor as the loop; SENSITIVITY holds each stage's measured exponent.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.01
# The reference loop only touches small ints, which CPython caches, so it
# allocates nothing: its speed is the same inside run_ablation's tracemalloc.
_SMALL_INTS = tuple(range(128)) * 24
# The reference loop's time on an undisturbed core of a 2-vCPU Intel Xeon
# (Sapphire Rapids, KVM) VM, Python 3.11. Reported times are seconds at the
# speed where the loop takes this long.
REFERENCE_S = 115e-6
# Probes within this distance of an interval count as "near" it.
NEAR_S = 0.05
# Work that starts this soon after a probe started counts as disturbed by it.
AFTER_PROBE_S = 0.001
# How strongly each stage's time follows the reference loop's: the slope of
# log(stage time) against log(probe time) over rounds that ran at different
# speeds. `python3 perfbench/calibrate.py` measures them. These are the means,
# rounded to 0.05, of four 150-second fits (each workload, and train twice) on
# the machine named above; single fits of a stage spread by up to 0.3.
# BLAS-heavy training slows least, the per-query Python of `nearest` most.
SENSITIVITY = {
    "setup": 1.0,
    "first_step": 1.05,
    "train": 0.6,
    "embed": 0.95,
    "eval": 1.1,
    "nearest": 1.25,
    "ablate": 0.8,
}


def _reference_loop() -> int:
    total = 0
    for i in _SMALL_INTS:
        total = ((total ^ i) + 1) & 127
    return total


class Speedometer:
    """Times the reference loop every PROBE_INTERVAL_S while it is running."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        # (stage, seconds without probes, median probe near it) per interval
        self.log: list[tuple[str, float, float]] = []
        self._previous = None
        self._busy = False

    def _probe(self, signum, frame) -> None:
        if self._busy:  # the timer fired again during a stalled probe
            return
        self._busy = True
        start = perf_counter()
        _reference_loop()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._busy = False

    def __enter__(self) -> "Speedometer":
        _reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probes(self) -> int:
        return len(self.starts)

    def median_probe(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def _probe_time(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def _speed(self, a: float, b: float) -> float:
        """Median reference-loop time of the probes near [a, b]."""
        lo = bisect.bisect_left(self.starts, a - NEAR_S)
        hi = bisect.bisect_right(self.starts, b + NEAR_S)
        if lo >= hi:  # no probe near: take the closest ones on either side
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo >= hi:
            return REFERENCE_S
        return statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def seconds(self, a: float, b: float, stage: str) -> float:
        """The interval [a, b] of perf_counter readings of `stage`, at the reference speed."""
        work, probe = b - a - self._probe_time(a, b), self._speed(a, b)
        self.log.append((stage, work, probe))
        return work * (REFERENCE_S / probe) ** SENSITIVITY[stage]

    def interrupted(self, a: float, b: float) -> bool:
        """Whether a probe ran inside [a, b] or just before it.

        A probe evicts some of the program's cache lines, so the work right
        after one runs slower too.
        """
        i = bisect.bisect_left(self.starts, a - AFTER_PROBE_S)
        return i < len(self.starts) and self.starts[i] <= b


class WallClock:
    """Plain wall time, for runs that do not correct for speed."""

    @staticmethod
    def seconds(a: float, b: float, stage: str) -> float:
        return b - a

    @staticmethod
    def interrupted(a: float, b: float) -> bool:
        return False

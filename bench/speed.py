"""A speed probe, to read command latencies apart from the speed of the
machine.

The benchmark was made on a shared two-core virtual machine whose speed
swings between two states, about 1.6 times apart, for seconds to minutes
at a time, as other tenants load the host.  A run may fall wholly in
either state, so raw latencies of two runs of the same code can differ by
half.  While the benchmark measures, a timer signal runs a fixed piece of
pure-Python work (``probe_work``) every ``PERIOD_S`` seconds; its duration
tells how fast the machine is at that moment.  A command's latency divided
by the probe's duration around it is its cost in probe times.  Over seven
minutes of light and dihedral ``pa`` commands on that machine, the median
latency of 5-s windows varied with a coefficient of 0.12 and its ratio to
this probe with one of 0.022 (README.md).

The probe never calls into ``pa``, so no change to ``pa`` can change it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.1
WINDOW = 5  # probes on each side of a probe that set its smoothed duration


def probe_work() -> int:
    """About 1 ms of interpreted work: building and using a small argparse
    parser, then integer arithmetic.  Of the probes tried, this pair
    tracked the speed of ``pa`` commands best."""
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        command = commands.add_parser(name)
        command.add_argument("value")
        command.add_argument("--json", action="store_true")
    parser.parse_args(["b", "3", "--json"])
    x = 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) % 2147483648
    return x


class SpeedProbe:
    """Runs ``probe_work`` on SIGALRM while it is active and keeps the
    start and duration of every probe in memory."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far

    def _tick(self, signum, frame) -> None:
        # a collection of the program's heap must not land in a probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        duration = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def smoothed(self) -> list[float]:
        """Each probe's duration as the median of it and WINDOW probes on
        each side, so that one probe hit by a stray interrupt does not set
        the speed of the commands around it."""
        d = self.durations
        return [statistics.median(d[max(0, k - WINDOW): k + WINDOW + 1]) for k in range(len(d))]

    def cost(self, start: float, end: float, smooth: list[float]) -> float:
        """The interval [start, end] in probe times: each part of it
        divided by the smoothed duration of the probe nearest that part.
        The probes that ran inside the interval are taken out."""
        if not smooth:
            raise RuntimeError("speed probe: no probe ran; the run was too short")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        # the parts between the probes that ran inside the interval; each
        # part is read at the speed of the probe that began it, the first
        # at that of the last probe before the interval
        edges = [start, *self.starts[lo:hi], end]
        owners = [max(lo - 1, 0), *range(lo, hi)]
        total = sum((b - a) / smooth[k] for a, b, k in zip(edges, edges[1:], owners))
        return total - sum(self.durations[k] / smooth[k] for k in range(lo, hi))

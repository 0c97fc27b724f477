"""Host-speed-normalized timing for a shared, noisy host.

The reference host is a two-core VM whose speed swings by up to 70% in
episodes of seconds to minutes, slowing CPU time and wall time alike.
No statistic over a 20 s run averages such an episode away.  So every
untraced interval is timed twice at once: by the wall clock, and by a
fixed probe that a timer signal runs every ``PERIOD_S`` while the
interval lasts.  The probe is interpreted Python of the same kind as
the simulator's hot path (dict lookups in a table larger than the L1,
method calls, ``min`` with a key, ``heapq``), so an episode slows it
about as much as it slows the simulator.  An interval's reference time
is its wall time minus the probes' own time, scaled by ``REF_PROBE_S``
over the harmonic mean of the probe times: the seconds the interval
would have taken on the quiet reference host.

Probes are timed in thread CPU time.  In the sweep they run in the
parent while the workers hold both cores, and CPU time leaves out the
moments a probe waits for a core, which wall time would count as a
slower host.

The probe only reads its own data, so the simulation it interrupts
computes exactly what it would have computed without it.  A timer
signal reaches only the process that set the timer; forked sweep
workers inherit the handler but no timer.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

#: Probe period: the probe takes ~1.6% of the host's time.
PERIOD_S = 0.025

#: The probe's duration on the quiet reference host (two-core VM,
#: Python 3.11).  It only sets the scale of reference times, so that
#: they read as seconds on that host.
REF_PROBE_S = 0.00037

_rng = random.Random(2006)
_TABLE = {_rng.randrange(1 << 30): (i, i & 7) for i in range(16384)}
_KEYS = _rng.sample(sorted(_TABLE), 150)


class _Node:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def dist(self, other: "_Node") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)


_NODES = [_Node(i % 8, i // 8) for i in range(64)]
_PILLARS = _NODES[:8]


def probe() -> None:
    """A fixed amount of work shaped like the simulator's hot path."""
    heap: list = []
    acc = 0
    for index, key in enumerate(_KEYS):
        a, b = _TABLE[key]
        src = _NODES[a & 63]
        best = min(_PILLARS, key=lambda node: node.dist(src))
        acc += best.x + b
        heapq.heappush(heap, (acc & 1023, index))
        if len(heap) > 16:
            heapq.heappop(heap)


def _timed_probe() -> float:
    start = time.thread_time()
    probe()
    return time.thread_time() - start


class HostClock:
    """Wall and reference time of intervals, while probing the host.

    Use as a context manager; :meth:`mark` starts an interval and
    :meth:`elapsed` / :meth:`speed` read it.
    """

    def __init__(self) -> None:
        self._probes: list[float] = []

    def _on_timer(self, signum, frame) -> None:
        self._probes.append(_timed_probe())

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self._probes)

    def elapsed(self, mark: tuple[float, int]) -> float:
        """Wall seconds since ``mark``, minus the probes run meanwhile."""
        start, first = mark
        return time.perf_counter() - start - sum(self._probes[first:])

    def speed(self, mark: tuple[float, int]) -> float:
        """Reference seconds per wall second since ``mark``.

        An interval shorter than one period gets one probe now.
        """
        probes = self._probes[mark[1]:] or [_timed_probe()]
        return REF_PROBE_S * sum(1.0 / p for p in probes) / len(probes)

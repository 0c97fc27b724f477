"""Simulation kernel: cycle-driven engine, statistics, and seeded RNG helpers.

The kernel is deliberately small.  The network simulator (:mod:`repro.noc`)
is cycle-driven — every clocked component is evaluated once per cycle in two
phases so that all components observe a consistent snapshot of the previous
cycle's state.  A lightweight event queue is layered on top for delayed
callbacks (e.g. memory responses arriving after a fixed latency).

Activity/wake contract
----------------------

The engine is *activity-tracked* by default: it keeps an active set and
only ticks components in it, and when the set is empty it fast-forwards
the clock straight to the next scheduled event.  A component opts in by
implementing two hooks on :class:`~repro.sim.engine.ClockedComponent`:

* ``is_idle()`` — ``True`` only when both phases would be pure no-ops
  (no buffered work, no per-cycle statistics) until new work arrives.
  Returning ``True`` at the end of a cycle retires the component from the
  active set; the default ``False`` keeps it always ticked.
* ``wake()`` — called by every entry point that hands an idle component
  new work: ``InputPort.accept`` wakes the owning router, a dTDMA
  transceiver enqueue wakes the pillar bus, ``NetworkInterface.inject``
  wakes the NIC, and raising a traffic generator's injection rate wakes
  the generator.  Forgetting a wake path is the one way to break the
  kernel — an idle component that mutates state without being woken
  simply stops being simulated.

A statistic over every cycle, such as a pillar bus's utilization, is
derived from the clock when read rather than counted per tick, so
skipped cycles leave nothing to replay.

Determinism guarantee: idle cycles are behaviour-free by definition, so
the activity-tracked and naive kernels produce bit-identical component
state, cycle counts, and statistics snapshots (differentially tested in
``tests/integration/test_kernel_differential.py``).  ``run_until``
predicates must be state-based, not cycle-based, because they are not
re-polled inside a fast-forwarded window.
"""

from repro.sim.engine import ClockedComponent, Engine, Event
from repro.sim.stats import Counter, Histogram, StatsRegistry
from repro.sim.rng import make_rng

__all__ = [
    "ClockedComponent",
    "Engine",
    "Event",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "make_rng",
]

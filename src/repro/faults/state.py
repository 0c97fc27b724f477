"""Live fault map: what is broken *right now*, plus degradation accounting.

One :class:`FaultState` per simulation holds the sets the tolerance
mechanisms consult on their hot paths (dead pillars for injection-time
pillar selection, dead links and jammed ports for fault-aware routing,
dead banks for NUCA remapping), owns the ``faults.*`` scoped counters,
and fans change notifications out to listeners (the network clears
router evaluate caches and wakes them; the latency model re-derives its
alive pillars).

A ``FaultState`` is only created when a non-empty fault schedule is
installed — zero-fault runs carry no state object at all, so their
statistics snapshots (and therefore the differential tests) are
bit-identical to fault-unaware runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.stats import StatsRegistry
from repro.sim.trace import FAULT, NULL_TRACER, Tracer
from repro.noc.routing import Coord, Port
from repro.faults.spec import FAULTS

# Listener signature: (kind, target, phase) with phase "inject" | "heal".
FaultListener = Callable[[str, tuple, str], None]


class FaultState:
    """Mutable fault sets + degradation counters for one simulation.

    ``live`` maps each fault kind to the set of its live targets, keyed
    as :meth:`FaultKind.key` says.  The same sets are also attributes
    named by the kind's ``live`` column, which is how the hot paths
    read them.
    """

    dead_pillars: set[tuple[int, int]]
    dead_links: set[tuple[Coord, Port]]
    jammed_ports: set[tuple[Coord, Port]]
    dead_banks: set[tuple[int, int]]

    def __init__(
        self,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.stats = stats or StatsRegistry("faults")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._track = self._tracer.track("faults")
        self.live: dict[str, set] = {}
        for kind in FAULTS.values():
            self.live[kind.name] = live = set()
            setattr(self, kind.live, live)
        # Consumers that cache derived data (the model-mode path memo,
        # the routers' evaluate caches) subscribe via add_listener.
        self._listeners: list[FaultListener] = []
        # Network hook: called once per lost in-network packet so
        # in-flight accounting drains instead of hanging.
        self.on_packet_lost: Optional[Callable] = None
        scope = self.stats.scope("faults")
        self._injected = scope.counter("injected")
        self._healed = scope.counter("healed")
        self._packets_lost = scope.counter("packets_lost")
        self._flits_dropped = scope.counter("flits_dropped")
        self._unreachable = scope.counter("unreachable")
        self._bank_remaps = scope.counter("bank_remapped")
        self._bank_lines_lost = scope.counter("bank_lines_lost")

    # -- subscriptions ----------------------------------------------------

    def add_listener(self, listener: FaultListener) -> None:
        self._listeners.append(listener)

    # -- fault mutations --------------------------------------------------

    def inject(self, kind: str, target: tuple, cycle: int = 0) -> None:
        """Mark ``target`` broken; a no-op when it already is."""
        key = FAULTS[kind].key(target)
        live = self.live[kind]
        if key not in live:
            live.add(key)
            self._injected.increment()
            self._announce(cycle, kind, target, "inject")

    def heal(self, kind: str, target: tuple, cycle: int = 0) -> None:
        """Mark ``target`` working again; a no-op when it already is."""
        key = FAULTS[kind].key(target)
        live = self.live[kind]
        if key in live:
            live.discard(key)
            self._healed.increment()
            self._announce(cycle, kind, target, "heal")

    def _announce(self, cycle: int, kind: str, target: tuple,
                  phase: str) -> None:
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(FAULT, cycle, self._track, kind, tuple(target), phase)
        for listener in self._listeners:
            listener(kind, target, phase)

    # -- hot-path queries -------------------------------------------------

    @property
    def mesh_faulty(self) -> bool:
        """True when routing must consult the fault map at all."""
        return bool(self.dead_links)

    # -- degradation accounting ------------------------------------------

    def flit_dropped(self, count: int = 1) -> None:
        self._flits_dropped.increment(count)

    def packet_lost(self, packet, in_network: bool = True) -> None:
        """Record the loss of ``packet`` exactly once.

        ``in_network`` distinguishes packets dropped after injection
        (the network's in-flight count must drain) from packets refused
        at the injection boundary (never counted in flight).
        """
        if packet.lost:
            return
        packet.lost = True
        self._packets_lost.increment()
        if in_network and self.on_packet_lost is not None:
            self.on_packet_lost(packet)

    def packet_unreachable(self, packet, in_network: bool = True) -> None:
        """An alive route to ``packet.dest`` no longer exists."""
        self._unreachable.increment()
        self.packet_lost(packet, in_network=in_network)

    def bank_remapped(self, count: int = 1) -> None:
        self._bank_remaps.increment(count)

    def bank_lines_lost(self, count: int = 1) -> None:
        self._bank_lines_lost.increment(count)

    # -- reporting --------------------------------------------------------

    @property
    def active(self) -> int:
        """Faults live right now, over every kind."""
        return sum(len(live) for live in self.live.values())

    def summary(self) -> dict:
        summary = {
            kind.live: sorted(kind.target(key) for key in self.live[name])
            for name, kind in FAULTS.items()
        }
        summary["packets_lost"] = self._packets_lost.value
        summary["unreachable"] = self._unreachable.value
        return summary

"""Live fault map: what is broken *right now*, plus degradation accounting.

One :class:`FaultState` per simulation holds the sets the tolerance
mechanisms consult on their hot paths (dead pillars for injection-time
pillar selection, dead links and jammed ports for fault-aware routing,
dead banks for NUCA remapping), owns the ``faults.*`` scoped counters,
and fans change notifications out to listeners (the network clears
router evaluate caches and wakes them; the cache layer re-derives
capacity).

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

# Listener signature: (kind, target, phase) with phase "inject" | "heal".
FaultListener = Callable[[str, tuple, str], None]


class FaultState:
    """Mutable fault sets + degradation counters for one simulation."""

    def __init__(
        self,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.stats = stats or StatsRegistry("faults")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._track = self._tracer.track("faults")
        self.dead_pillars: set[tuple[int, int]] = set()
        self.dead_links: set[tuple[Coord, Port]] = set()
        self.jammed_ports: set[tuple[Coord, Port]] = set()
        self.dead_banks: set[tuple[int, int]] = set()
        # Bumped on every inject/heal.  Consumers that cache derived
        # data (the model-mode path memo) subscribe via add_listener.
        self.epoch = 0
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

    def _mark(self, cycle: int, kind: str, target: tuple, phase: str) -> None:
        self.epoch += 1
        if phase == "inject":
            self._injected.increment()
        else:
            self._healed.increment()
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(FAULT, cycle, self._track, kind, tuple(target), phase)
        for listener in self._listeners:
            listener(kind, target, phase)

    # -- fault mutations --------------------------------------------------

    def fail_pillar(self, xy: tuple[int, int], cycle: int = 0) -> None:
        if xy not in self.dead_pillars:
            self.dead_pillars.add(xy)
            self._mark(cycle, "pillar", xy, "inject")

    def heal_pillar(self, xy: tuple[int, int], cycle: int = 0) -> None:
        if xy in self.dead_pillars:
            self.dead_pillars.discard(xy)
            self._mark(cycle, "pillar", xy, "heal")

    def fail_link(self, coord: Coord, port: Port, cycle: int = 0) -> None:
        key = (coord, port)
        if key not in self.dead_links:
            self.dead_links.add(key)
            self._mark(cycle, "link", (*coord, port.value), "inject")

    def heal_link(self, coord: Coord, port: Port, cycle: int = 0) -> None:
        key = (coord, port)
        if key in self.dead_links:
            self.dead_links.discard(key)
            self._mark(cycle, "link", (*coord, port.value), "heal")

    def jam_port(self, coord: Coord, port: Port, cycle: int = 0) -> None:
        key = (coord, port)
        if key not in self.jammed_ports:
            self.jammed_ports.add(key)
            self._mark(cycle, "router_port", (*coord, port.value), "inject")

    def heal_port(self, coord: Coord, port: Port, cycle: int = 0) -> None:
        key = (coord, port)
        if key in self.jammed_ports:
            self.jammed_ports.discard(key)
            self._mark(cycle, "router_port", (*coord, port.value), "heal")

    def fail_bank(self, bank: tuple[int, int], cycle: int = 0) -> None:
        if bank not in self.dead_banks:
            self.dead_banks.add(bank)
            self._mark(cycle, "bank", bank, "inject")

    def heal_bank(self, bank: tuple[int, int], cycle: int = 0) -> None:
        if bank in self.dead_banks:
            self.dead_banks.discard(bank)
            self._mark(cycle, "bank", bank, "heal")

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

    def summary(self) -> dict:
        return {
            "dead_pillars": sorted(self.dead_pillars),
            "dead_links": sorted(
                (*coord, port.value) for coord, port in self.dead_links
            ),
            "jammed_ports": sorted(
                (*coord, port.value) for coord, port in self.jammed_ports
            ),
            "dead_banks": sorted(self.dead_banks),
            "packets_lost": self._packets_lost.value,
            "unreachable": self._unreachable.value,
        }

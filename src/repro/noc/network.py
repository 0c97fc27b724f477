"""Network assembly: 3D mesh-plus-pillars fabric construction.

Builds the complete interconnect of the Network-in-Memory architecture:
one wormhole mesh per device layer, a NIC at every node, and a dTDMA bus
pillar at each configured pillar location bridging all layers.  A
single-layer configuration (no pillars) is the conventional 2D NUCA
network the paper compares against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.noc.fabric import FabricKind
from repro.noc.flit import IdScope
from repro.noc.link import LinkPipeline
from repro.noc.packet import FlitPool, Packet, MessageClass
from repro.noc.router import Router, connect
from repro.noc.routing import Coord, Port, best_pillar
from repro.noc.interface import NetworkInterface
from repro.faults.spec import FAULTS

if TYPE_CHECKING:
    from repro.faults.state import FaultState


@dataclass
class NetworkConfig:
    """Parameters of the interconnect fabric (paper Table 4 defaults)."""

    width: int = 16          # mesh columns (x) per layer
    height: int = 8          # mesh rows (y) per layer
    layers: int = 2          # device layers
    pillar_locations: tuple[tuple[int, int], ...] = ()
    num_vcs: int = 3         # virtual channels per physical channel
    vc_depth: int = 4        # flits per VC (one 4-flit message)
    # Mesh link traversal: one cycle in the router plus one on the wire.
    # At 70 nm a 64 KB bank tile is ~1.5 mm across, so the inter-router
    # wire is a full clock cycle — unlike the 10 um inter-layer vias,
    # whose traversal is folded into the dTDMA bus slot.  This asymmetry
    # is the physical basis of the 3D advantage.
    link_latency: int = 2
    packet_flits: int = 4    # flits per cache-line packet (64 B line)

    def validate(self) -> None:
        if self.width < 1 or self.height < 1 or self.layers < 1:
            raise ValueError("network dimensions must be positive")
        for name in ("num_vcs", "vc_depth", "link_latency"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.layers > 1 and not self.pillar_locations:
            raise ValueError("multi-layer networks require pillars")
        for x, y in self.pillar_locations:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"pillar ({x},{y}) outside the mesh")
        if len(set(self.pillar_locations)) != len(self.pillar_locations):
            raise ValueError("duplicate pillar locations")

    @property
    def vc_split(self) -> int:
        """First VC of the intra-layer class (0 disables partitioning).

        Multi-layer meshes partition the virtual channels into two
        classes to break the inter-layer credit cycle (mesh -> pillar TX
        -> bus -> pillar RX -> mesh on the other layer -> back): packets
        that still have to cross a pillar (``dest.z != here.z``) may only
        be allocated VCs ``[0, vc_split)``; packets already on their
        destination layer use ``[vc_split, num_vcs)``.  Post-crossing
        traffic then drains to ejection without ever waiting on a pillar,
        which makes the channel dependency graph acyclic (see DESIGN.md
        "Saturation and drain behaviour").  Single-layer meshes have no
        vertical hop, so the partition is disabled.
        """
        if self.layers > 1 and self.num_vcs >= 2:
            return self.num_vcs // 2
        return 0

    @property
    def nodes_per_layer(self) -> int:
        return self.width * self.height

    @property
    def total_nodes(self) -> int:
        return self.nodes_per_layer * self.layers


class Network:
    """The full interconnect: routers, links, NICs, and pillars.

    The network owns its :class:`~repro.sim.engine.Engine` unless one is
    passed in (so cache/CPU models can share the clock).
    """

    def __init__(
        self,
        config: NetworkConfig,
        engine: Optional[Engine] = None,
        stats: Optional[StatsRegistry] = None,
        fabric: "FabricKind | str" = FabricKind.OPTIMIZED,
        tracer: Optional[Tracer] = None,
    ):
        config.validate()
        self.config = config
        self.fabric = FabricKind.parse(fabric)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # A self-owned engine runs the activity-tracked kernel; pass an
        # ``Engine(activity_tracking=False)`` to run the naive one.
        # ``fabric`` selects between the allocation-free hot path
        # ("optimized") and the frozen naive implementation ("reference")
        # that the differential test compares it against; both produce
        # bit-identical results.
        self.engine = engine or Engine("network")
        self.stats = stats or StatsRegistry("network")
        # Per-network id scope: packet/flit id sequences restart at zero
        # for every Network, so back-to-back simulations in one process
        # produce identical traces.
        self.ids = IdScope()
        self.flit_pool: Optional[FlitPool] = (
            FlitPool() if self.fabric is FabricKind.OPTIMIZED else None
        )
        self.routers: dict[Coord, Router] = {}
        self.nics: dict[Coord, NetworkInterface] = {}
        self.pillars: dict[tuple[int, int], "PillarBus"] = {}
        self._in_flight = 0
        # Monotonic count of packets that finished (delivered or lost);
        # the liveness watchdog's primary progress signal.
        self._completed = 0
        # Live fault map; stays None unless a fault schedule is
        # installed, keeping every fault check a single is-None branch.
        self._faults: Optional["FaultState"] = None
        # In-flight age accounting (the survivorship-bias companion to the
        # delivered-only latency histogram): packets in injection order
        # plus a running sum of their creation cycles.  The ring is
        # trimmed opportunistically as its head completes, so it stays
        # near the in-flight population, not the run total.
        self._age_ring: deque[Packet] = deque()
        self._inflight_created_sum = 0
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        if self.fabric is FabricKind.REFERENCE:
            self._build_reference()
        else:
            self._build_optimized()

    def _build_optimized(self) -> None:
        cfg = self.config
        for coord in self.coords():
            router = Router(
                coord, cfg.num_vcs, cfg.vc_depth, stats=self.stats,
                tracer=self.tracer,
            )
            router.vc_split = cfg.vc_split
            self.routers[coord] = router
            self.engine.register(router)

        # Mesh links within each layer.  Multi-cycle links share one
        # calendar-ring pipeline for the whole network.
        pipeline = None
        if cfg.link_latency >= 2:
            pipeline = LinkPipeline(self.engine, cfg.link_latency)
            self.engine.register(pipeline)
        self._link_pipeline = pipeline
        for coord, router in self.routers.items():
            east = Coord(coord.x + 1, coord.y, coord.z)
            if east in self.routers:
                connect(self.engine, router, Port.EAST,
                        self.routers[east], Port.WEST, cfg.link_latency,
                        pipeline=pipeline)
                connect(self.engine, self.routers[east], Port.WEST,
                        router, Port.EAST, cfg.link_latency,
                        pipeline=pipeline)
            north = Coord(coord.x, coord.y + 1, coord.z)
            if north in self.routers:
                connect(self.engine, router, Port.NORTH,
                        self.routers[north], Port.SOUTH, cfg.link_latency,
                        pipeline=pipeline)
                connect(self.engine, self.routers[north], Port.SOUTH,
                        router, Port.NORTH, cfg.link_latency,
                        pipeline=pipeline)

        # NICs at every node.
        for coord, router in self.routers.items():
            nic = NetworkInterface(
                self.engine, router, on_packet=self._on_packet,
                stats=self.stats, pool=self.flit_pool,
                tracer=self.tracer,
            )
            self.nics[coord] = nic
            self.engine.register(nic)

        self._build_pillars(event_scheduling=False)

    def _build_reference(self) -> None:
        from repro.noc.reference import (  # local import: oracle only
            ReferenceNetworkInterface,
            ReferenceRouter,
            reference_connect,
        )

        cfg = self.config
        for coord in self.coords():
            router = ReferenceRouter(
                coord, cfg.num_vcs, cfg.vc_depth, stats=self.stats
            )
            router.vc_split = cfg.vc_split
            self.routers[coord] = router
            self.engine.register(router)

        self._link_pipeline = None
        for coord, router in self.routers.items():
            east = Coord(coord.x + 1, coord.y, coord.z)
            if east in self.routers:
                reference_connect(self.engine, router, Port.EAST,
                                  self.routers[east], Port.WEST,
                                  cfg.link_latency)
                reference_connect(self.engine, self.routers[east], Port.WEST,
                                  router, Port.EAST, cfg.link_latency)
            north = Coord(coord.x, coord.y + 1, coord.z)
            if north in self.routers:
                reference_connect(self.engine, router, Port.NORTH,
                                  self.routers[north], Port.SOUTH,
                                  cfg.link_latency)
                reference_connect(self.engine, self.routers[north], Port.SOUTH,
                                  router, Port.NORTH, cfg.link_latency)

        for coord, router in self.routers.items():
            nic = ReferenceNetworkInterface(
                self.engine, router, on_packet=self._on_packet,
                stats=self.stats,
            )
            self.nics[coord] = nic
            self.engine.register(nic)

        self._build_pillars(event_scheduling=True)

    def _build_pillars(self, event_scheduling: bool) -> None:
        cfg = self.config
        if cfg.layers > 1:
            from repro.dtdma.bus import PillarBus  # local import: avoid cycle

            for xy in cfg.pillar_locations:
                pillar_routers = {
                    z: self.routers[Coord(xy[0], xy[1], z)]
                    for z in range(cfg.layers)
                }
                bus = PillarBus(
                    self.engine, xy, pillar_routers, stats=self.stats,
                    event_scheduling=event_scheduling,
                    tracer=self.tracer,
                )
                self.pillars[xy] = bus
                self.engine.register(bus)

    def coords(self) -> Iterator[Coord]:
        cfg = self.config
        for z in range(cfg.layers):
            for y in range(cfg.height):
                for x in range(cfg.width):
                    yield Coord(x, y, z)

    # -- fault tolerance ----------------------------------------------------

    def attach_fault_state(self, state: "FaultState") -> None:
        """Wire a live fault map through the fabric.

        Routers consult it for fault-aware routing and jam checks,
        :meth:`send` for pillar selection, and its lost-packet hook
        drains this network's in-flight accounting.  Only called when a
        non-empty fault schedule is installed — fault-free runs never
        carry the state, so they stay bit-identical to the pre-fault
        fabric.
        """
        if self.fabric is FabricKind.REFERENCE:
            raise ValueError(
                "fault injection requires the optimized fabric; the frozen "
                "reference is the zero-fault differential oracle"
            )
        self._faults = state
        state.on_packet_lost = self._on_packet_lost
        state.add_listener(self._on_fault_change)
        for router in self.routers.values():
            router._faults = state

    def _on_fault_change(self, kind: str, target: tuple, phase: str) -> None:
        # A router port failed or healed under the routers' feet: their
        # blocked-evaluate caches may encode decisions (jammed port,
        # dead link) that no longer hold, so drop them and re-arm.
        if FAULTS[kind].port:
            for router in self.routers.values():
                router._eval_cached = False
                router.wake()

    def _on_packet_lost(self, packet: Packet) -> None:
        self._in_flight -= 1
        self._completed += 1
        self._retire_age(packet)

    # -- traffic -------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        self._in_flight -= 1
        self._completed += 1
        self._retire_age(packet)

    def _retire_age(self, packet: Packet) -> None:
        self._inflight_created_sum -= packet.created_cycle
        ring = self._age_ring
        while ring and (ring[0].ejected_cycle is not None or ring[0].lost):
            ring.popleft()

    def send(
        self,
        src: Coord,
        dest: Coord,
        size_flits: Optional[int] = None,
        message_class: MessageClass = MessageClass.SYNTHETIC,
        payload: object = None,
    ) -> Packet:
        """Create and inject a packet from ``src`` to ``dest``.

        With faults installed, inter-layer packets route via the best
        *surviving* pillar; if none survives the packet is refused at
        the boundary — returned with ``lost=True``, counted under
        ``faults.unreachable``, and never injected — so callers observe
        accounted loss instead of a hang.
        """
        if src == dest:
            raise ValueError("source and destination must differ")
        if src not in self.nics or dest not in self.routers:
            raise ValueError(f"unknown endpoint {src} or {dest}")
        faults = self._faults
        pillar_xy = None
        if src.z != dest.z:
            pillars = list(self.config.pillar_locations)
            if faults is not None and faults.dead_pillars:
                pillars = [
                    pillar for pillar in pillars
                    if pillar not in faults.dead_pillars
                ]
                if not pillars:
                    packet = Packet(
                        src,
                        dest,
                        size_flits or self.config.packet_flits,
                        message_class,
                        None,
                        payload,
                        ids=self.ids,
                    )
                    faults.packet_unreachable(packet, in_network=False)
                    return packet
            pillar_xy = best_pillar(src, dest, pillars)
        packet = Packet(
            src,
            dest,
            size_flits or self.config.packet_flits,
            message_class,
            pillar_xy,
            payload,
            ids=self.ids,
        )
        self._in_flight += 1
        self.nics[src].inject(packet)
        self._age_ring.append(packet)
        self._inflight_created_sum += packet.created_cycle
        return packet

    @property
    def in_flight(self) -> int:
        """Packets injected but not yet fully ejected."""
        return self._in_flight

    @property
    def completed_packets(self) -> int:
        """Packets that finished — delivered or dropped by a fault."""
        return self._completed

    def quiesce(self, max_cycles: int = 1_000_000) -> int:
        """Run the clock until every in-flight packet is delivered.

        Returns the cycles that took.  Raises
        :class:`~repro.sim.engine.SimulationStallError` if the backlog
        is not empty after ``max_cycles``: a saturated mesh always
        drains (see DESIGN.md "Saturation and drain behaviour"), so a
        drain that never ends is a flow-control bug.
        """
        return self.engine.run_until(
            lambda: self._in_flight == 0, max_cycles=max_cycles
        )

    # -- reporting -------------------------------------------------------------

    def mean_packet_latency(self) -> float:
        """Mean end-to-end packet latency (all NICs share one histogram)."""
        hist = self.stats.scope("nic").histogram("packet_latency")
        return hist.mean

    def delivered_fraction(self) -> float:
        """Delivered share of all packets ever injected (1.0 when empty).

        The complement of the latency histogram's survivorship bias: at
        saturation the histogram covers only the few packets that made
        it out, while this ratio exposes the stuck majority.
        """
        total = self._completed + self._in_flight
        if total == 0:
            return 1.0
        delivered = self.stats.scope("nic").counter("packets_received").value
        return delivered / total

    def in_flight_ages(self) -> dict:
        """Age summary of packets injected but not yet delivered.

        Returns ``{"count", "mean_age", "max_age"}`` in cycles as of the
        engine's current cycle.  Together with
        :meth:`delivered_fraction` this is the unbiased view of a
        congested run: delivered-only latency falls at saturation while
        these ages grow without bound.
        """
        now = self.engine.cycle
        ring = self._age_ring
        while ring and (ring[0].ejected_cycle is not None or ring[0].lost):
            ring.popleft()
        count = self._in_flight
        if count == 0 or not ring:
            return {"count": count, "mean_age": 0.0, "max_age": 0}
        mean = (now * count - self._inflight_created_sum) / count
        return {
            "count": count,
            "mean_age": mean,
            "max_age": now - ring[0].created_cycle,
        }

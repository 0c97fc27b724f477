"""Cycle-accurate packet pricing over the real NoC/dTDMA fabric.

``mode="cycle"`` replaces the analytic latency model with the flit-level
simulator: every packet of a transaction's walk
(:mod:`repro.core.pricing`) is a real packet injected into the fabric,
and a critical-path leg runs the engine until delivery.  Transactions
are priced one at a time — the exact per-leg latencies include every
router, VC, credit and bus-arbitration effect at the offered background
load (injected invalidation/migration packets keep flying while later
legs are measured).

This mode is orders of magnitude slower than the model and exists to
(a) validate the model's calibration and (b) let tests and microbenchmarks
measure ground truth on small configurations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.network import Network, NetworkConfig
from repro.noc.packet import MessageClass, Packet
from repro.noc.routing import Coord, route_hop_count
from repro.params import MEMORY_LATENCY, REQUEST_FLITS, TAG_LATENCY

if TYPE_CHECKING:
    from repro.core.system import NetworkInMemory


class CycleMedium:
    """Prices packets by flying them through the fabric.

    Implements :class:`repro.core.pricing.Medium`; ``cycle`` is ignored
    because the fabric engine keeps its own clock.
    """

    def __init__(self, system: "NetworkInMemory"):
        # RunStats reads the run's traffic totals off the system's
        # LatencyModel in both modes; in this one the fabric feeds them.
        self.totals = system.model
        chip = system.setup.chip
        width, height = chip.mesh_dims
        network_config = NetworkConfig(
            width=width,
            height=height,
            layers=chip.num_layers,
            pillar_locations=tuple(system.topology.pillar_xys),
        )
        # One transaction leg in flight at a time leaves most of the
        # fabric quiescent, which is exactly where the network's own
        # activity-tracked engine fast-forwards idle windows.
        self.network = Network(network_config, tracer=system.tracer)

    def _inject(self, src: Coord, dest: Coord, flits: int,
                cls: MessageClass) -> Packet:
        """Send one packet and count its traffic the way the model does."""
        packet = self.network.send(
            src, dest, size_flits=flits, message_class=cls
        )
        if not packet.lost:  # a refused packet never entered the fabric
            hops = route_hop_count(src, dest, packet.pillar_xy)
            if packet.pillar_xy is not None:
                hops -= 1  # the bus crossing is a bus flit, not a mesh hop
                self.totals.bus_flits_total += flits
            self.totals.flit_hops_total += hops * flits
        return packet

    def _arrival(self, packet: Packet) -> float:
        """Run the fabric until ``packet`` arrives; its latency.

        Under fault injection a leg can be lost (dead-pillar blackhole or
        unreachable destination).  The requester does not wait forever: a
        lost leg is priced as one off-chip-memory-sized penalty — the
        detection/retry cost — so degraded runs complete with degraded
        latency instead of hanging.
        """
        self.network.engine.run_until(
            lambda: packet.ejected_cycle is not None or packet.lost,
            max_cycles=1_000_000,
        )
        if packet.lost:
            return float(MEMORY_LATENCY)
        return float(packet.latency)

    def leg(self, src, dest, flits, cycle, cls) -> float:
        if src == dest:
            return 0.0
        return self._arrival(self._inject(src, dest, flits, cls))

    def send(self, src, dest, flits, cycle, cls) -> None:
        if src != dest:
            self._inject(src, dest, flits, cls)

    def multicast(self, src, targets, answer, cycle) -> float:
        """The answer's query is timed; the others fly in the background."""
        flits = REQUEST_FLITS
        for target in targets:
            if target != answer:
                self.send(src, target, flits, cycle, MessageClass.REQUEST)
        return self.leg(src, answer, flits, cycle, MessageClass.REQUEST)

    def query_round(self, src, targets, cycle) -> float:
        """Every query is in flight before the first is awaited."""
        flits = REQUEST_FLITS
        queries = [
            (target, self._inject(src, target, flits, MessageClass.REQUEST))
            for target in targets
            if target != src
        ]
        worst = float(TAG_LATENCY)
        for target, packet in queries:
            out = self._arrival(packet)
            back = self.leg(target, src, flits, cycle, MessageClass.REQUEST)
            worst = max(worst, out + TAG_LATENCY + back)
        return worst

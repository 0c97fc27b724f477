"""The communication pillar: a dTDMA bus spanning all device layers.

One :class:`PillarBus` connects the ``VERTICAL`` ports of the routers at a
fixed (x, y) location on every layer.  Each cycle the arbiter grants the
bus to at most one (layer, virtual-channel) client whose head flit can be
delivered; the flit crosses to its destination layer in a single hop (the
tens-of-microns inter-wafer distance makes vertical propagation sub-cycle,
so transfer takes one bus cycle regardless of how many layers are crossed).

Wormhole integrity across the bus is preserved by bus-level virtual-channel
allocation: a transmitting layer acquires the destination layer's input VC
at the head flit and holds it until the tail flit, so flits of different
packets never interleave within a receiving VC.
"""

from __future__ import annotations

import functools
from typing import Optional, TYPE_CHECKING

from repro.sim.engine import ClockedComponent, Engine
from repro.sim.stats import StatsRegistry
from repro.sim.trace import BUS_GRANT, NULL_TRACER, Tracer
from repro.noc.flit import Flit
from repro.noc.link import CreditPipeline
from repro.noc.router import Router, InputPort
from repro.noc.routing import Port
from repro.dtdma.arbiter import DynamicTDMAArbiter
from repro.dtdma.transceiver import Transceiver

if TYPE_CHECKING:
    from repro.faults.state import FaultState

# A bus client is one (layer, vc) transmit queue.
Client = tuple[int, int]


class PillarBus(ClockedComponent):
    """dTDMA bus pillar connecting pillar routers across layers.

    Parameters
    ----------
    engine:
        Simulation engine.
    xy:
        In-plane coordinates of the pillar (same on every layer).
    routers:
        The pillar routers, one per layer, indexed by layer number.
    event_scheduling:
        ``True`` recreates the naive fabric's wiring (heap events and
        closures for rx delivery and credit returns) for the frozen
        reference network; ``False`` (default) uses the allocation-free
        direct-deposit/post paths, which are timing-equivalent.
    """

    def __init__(
        self,
        engine: Engine,
        xy: tuple[int, int],
        routers: dict[int, Router],
        stats: Optional[StatsRegistry] = None,
        event_scheduling: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.event_scheduling = event_scheduling
        self.xy = xy
        self.layers = sorted(routers)
        self.stats = stats or StatsRegistry(f"pillar{xy}")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # One name for the pillar's trace track and its statistics scope
        # (pillar.<x>.<y>.bus.*, pillar.<x>.<y>.arbiter.*), as each router
        # has its own scope.
        name = f"pillar.{xy[0]}.{xy[1]}"
        self._track = self._tracer.track(name)
        if len(self.layers) < 2:
            raise ValueError("a pillar must span at least two layers")
        num_vcs = routers[self.layers[0]].num_vcs
        vc_depth = routers[self.layers[0]].vc_depth
        self.num_vcs = num_vcs

        self.transceivers: dict[int, Transceiver] = {}
        self._rx_ports: dict[int, InputPort] = {}
        self._rx_credits: dict[int, list[int]] = {}
        # Bus-level VC allocation: (dest_layer, vc) -> owning (src_layer, vc)
        self._vc_owner: dict[Client, Optional[Client]] = {}

        for layer, router in routers.items():
            transceiver = Transceiver(layer, num_vcs, vc_depth)
            transceiver.wake = self.wake
            self.transceivers[layer] = transceiver

            # Router VERTICAL output feeds the transceiver's TX queue.
            output_port = router.add_output_port(
                Port.VERTICAL,
                downstream_depth=vc_depth,
                deliver=transceiver.accept,
            )
            if event_scheduling:
                transceiver.credit_return = (
                    lambda vc, op=output_port: engine.schedule(
                        1, lambda: op.return_credit(vc)
                    )
                )
            else:
                transceiver.credit_return = CreditPipeline(
                    engine, output_port.return_credit
                )

            # Bus receive side is the router's VERTICAL input port.
            rx_port = router.add_input_port(Port.VERTICAL)
            self._rx_ports[layer] = rx_port
            self._rx_credits[layer] = [vc_depth] * num_vcs
            if event_scheduling:
                rx_port.credit_return = (
                    lambda vc, lay=layer: engine.schedule(
                        1, lambda: self._return_rx_credit(lay, vc)
                    )
                )
            else:
                rx_port.credit_return = CreditPipeline(
                    engine, functools.partial(self._return_rx_credit, layer)
                )
            for vc in range(num_vcs):
                self._vc_owner[(layer, vc)] = None

        clients: list[Client] = [
            (layer, vc) for layer in self.layers for vc in range(num_vcs)
        ]
        scope = self.stats.scope(name)
        self.arbiter = DynamicTDMAArbiter(
            clients, stats=scope, tracer=self._tracer, track=self._track
        )
        self._granted: Optional[Client] = None
        # Pillar/TSV fault state: a failing bus first *drains* — only
        # packets already mid-transfer keep their slots, preserving
        # wormhole integrity — then dies: queued/arriving traffic is
        # dropped with loss accounting and the arbiter frame shrinks to
        # zero (slot reclamation).
        self._dead = False
        self._draining = False
        self._fault_state: Optional["FaultState"] = None
        bus = scope.scope("bus")
        self._busy = bus.counter("busy_cycles")
        self._transfers = bus.counter("flit_transfers")
        # Utilization divides by the cycles since construction, read off
        # the clock, so it covers the cycles the activity-tracked kernel
        # skips without any per-cycle work.
        self._built = engine.cycle

    # -- activity tracking ---------------------------------------------------

    def is_idle(self) -> bool:
        """Idle iff no transceiver holds a flit (nothing to arbitrate)."""
        return all(t.occupancy == 0 for t in self.transceivers.values())

    # -- credit bookkeeping -----------------------------------------------

    def _return_rx_credit(self, layer: int, vc: int) -> None:
        self._rx_credits[layer][vc] += 1

    # -- pillar faults ------------------------------------------------------

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def draining(self) -> bool:
        return self._draining

    def fail(self, cycle: int, state: "FaultState") -> None:
        """Begin pillar death: drain in-progress packets, then go dark."""
        if self._dead or self._draining:
            return
        self._fault_state = state
        self._draining = True
        self.wake()
        if all(owner is None for owner in self._vc_owner.values()):
            self._complete_death(cycle)

    def heal(self, cycle: int) -> None:
        """Transient-fault recovery: the bus resumes with a fresh frame."""
        if self._draining:
            # Heal raced the drain; the bus never fully died.
            self._draining = False
            self.wake()
            return
        if not self._dead:
            return
        self._dead = False
        for transceiver in self.transceivers.values():
            transceiver.dead = False
            transceiver.on_drop = None
        for layer in self.layers:
            for vc in range(self.num_vcs):
                self.arbiter.add_client((layer, vc))
        self.wake()

    def _drop_flit(self, flit: Flit) -> None:
        state = self._fault_state
        state.flit_dropped()
        if flit.is_tail:
            state.packet_lost(flit.packet)

    def _blackhole(self, transceiver: Transceiver, flit: Flit, vc: int) -> None:
        # The router upstream consumed a credit to send this flit;
        # return it so the mesh keeps draining toward the dead pillar
        # instead of backpressuring into a secondary deadlock.
        transceiver.credit_return(vc)
        self._drop_flit(flit)

    def _complete_death(self, cycle: int) -> None:
        """Purge queued traffic, reclaim every slot, start blackholing."""
        for transceiver in self.transceivers.values():
            for vc in range(self.num_vcs):
                queue = transceiver.queues[vc]
                while queue:
                    # pop() returns the tx credit to the router's
                    # VERTICAL output port, freeing its buffers.
                    self._drop_flit(transceiver.pop(vc))
            transceiver.dead = True
            transceiver.on_drop = functools.partial(
                self._blackhole, transceiver
            )
        for client in list(self.arbiter.clients):
            self.arbiter.remove_client(client)
        self._granted = None
        self._draining = False
        self._dead = True

    # -- per-cycle operation -----------------------------------------------

    def _deliverable(self, client: Client) -> bool:
        """Can this (layer, vc) transmit its head flit right now?"""
        layer, vc = client
        flit = self.transceivers[layer].head(vc)
        if flit is None:
            return False
        dest_layer = flit.packet.dest.z
        if dest_layer == layer:
            raise RuntimeError(
                f"flit at pillar {self.xy} layer {layer} targets its own layer"
            )
        if dest_layer not in self._rx_ports:
            raise RuntimeError(
                f"pillar {self.xy} does not reach layer {dest_layer}"
            )
        owner = self._vc_owner[(dest_layer, vc)]
        if flit.is_head:
            if owner is not None and owner != client:
                return False
        else:
            if owner != client:
                return False
        return self._rx_credits[dest_layer][vc] > 0

    def evaluate(self, cycle: int) -> None:
        active = {
            client
            for client in self.arbiter.clients
            if self._deliverable(client)
        }
        if self._draining:
            # Drain mode: only clients mid-packet (holding a bus-level
            # VC) keep transmitting; no new packet may start.
            active &= {
                owner
                for owner in self._vc_owner.values()
                if owner is not None
            }
        self._granted = self.arbiter.grant(active, cycle)

    def advance(self, cycle: int) -> None:
        if self._granted is None:
            if self._draining and all(
                owner is None for owner in self._vc_owner.values()
            ):
                self._complete_death(cycle)
            return
        layer, vc = self._granted
        flit = self.transceivers[layer].pop(vc)
        dest_layer = flit.packet.dest.z
        tracer = self._tracer
        if tracer.enabled and flit.is_head:
            tracer.emit(
                BUS_GRANT,
                cycle,
                self._track,
                flit.packet.packet_id,
                layer,
                dest_layer,
                vc,
            )
        self._rx_credits[dest_layer][vc] -= 1
        if flit.is_head:
            self._vc_owner[(dest_layer, vc)] = (layer, vc)
        if flit.is_tail:
            self._vc_owner[(dest_layer, vc)] = None
        rx_port = self._rx_ports[dest_layer]
        if self.event_scheduling:
            self.engine.schedule(1, lambda f=flit, v=vc: rx_port.accept(f, v))
        else:
            # Direct deposit during advance: the receiving router first
            # arbitrates over the flit next cycle either way, and the rx
            # credit bound rules out buffer overflow.
            rx_port.accept(flit, vc)
        self._busy.increment()
        self._transfers.increment()
        self._granted = None
        if self._draining and all(
            owner is None for owner in self._vc_owner.values()
        ):
            self._complete_death(cycle)

    # -- reporting ----------------------------------------------------------

    @property
    def transfers(self) -> int:
        """Flits carried so far (liveness-watchdog progress signal)."""
        return self._transfers.value

    @property
    def utilization(self) -> float:
        """Fraction of the cycles since construction the bus carried a flit."""
        total = self.engine.cycle - self._built
        return self._busy.value / total if total else 0.0

"""Network interface controller (NIC): packet injection and ejection.

Every node (cache bank, CPU, or tag-array logic block) talks to its router
through a NIC.  Injection segments packets into flits and feeds them into
the router's ``LOCAL`` input port under normal VC/credit rules; ejection
reassembles flits arriving on the ``LOCAL`` output port and fires a
completion callback with the whole packet.

Hot-path wiring: the injection "link" is one cycle, so the NIC deposits
directly into the router's LOCAL input buffer during its own ``advance``
(timing-equivalent to the event the naive NIC schedules — the router first
arbitrates over the flit in the following cycle either way), credits ride
the engine's post queue via :class:`~repro.noc.link.CreditPipeline`, and
ejected flits are recycled through the network's
:class:`~repro.noc.packet.FlitPool`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.engine import ClockedComponent, Engine
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, PACKET_EJECT, PACKET_INJECT, Tracer
from repro.noc.flit import Flit
from repro.noc.link import CreditPipeline
from repro.noc.packet import FlitPool, Packet
from repro.noc.router import Router, OutputPort
from repro.noc.routing import Port


class NetworkInterface(ClockedComponent):
    """Injection/ejection endpoint attached to one router.

    Parameters
    ----------
    engine:
        Simulation engine (for link delays and credit returns).
    router:
        The router this NIC is the local client of.
    on_packet:
        Callback invoked with each fully ejected :class:`Packet`.
    pool:
        Optional :class:`FlitPool`; injected flits are drawn from it and
        ejected flits returned to it.
    """

    def __init__(
        self,
        engine: Engine,
        router: Router,
        on_packet: Optional[Callable[[Packet], None]] = None,
        stats: Optional[StatsRegistry] = None,
        pool: Optional[FlitPool] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.router = router
        self.on_packet = on_packet
        self.stats = stats or StatsRegistry(f"nic{router.coord}")
        self._pool = pool
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Inject/eject events share the router's track: one timeline per
        # node shows the packet's whole residence there.
        coord = router.coord
        self._track = self._tracer.track(
            f"router.{coord.x}.{coord.y}.{coord.z}"
        )
        self._inject_queue: deque[Packet] = deque()
        self._current_flits: deque[Flit] = deque()
        self._current_vc: Optional[int] = None
        self._ejected_packets: list[Packet] = []
        scope = self.stats.scope("nic")
        self._latency_hist = scope.histogram("packet_latency")
        self._injected = scope.counter("packets_injected")
        self._received = scope.counter("packets_received")

        # Injection path: NIC output -> router LOCAL input, a one-cycle
        # hop deposited directly (see module docstring).
        local_input = router.add_input_port(Port.LOCAL)
        self._output = OutputPort(
            Port.LOCAL, router.num_vcs, router.vc_depth, local_input.accept
        )
        local_input.credit_return = CreditPipeline(
            engine, self._output.return_credit
        )

        # Ejection path: router LOCAL output -> NIC sink (always accepts).
        router.add_output_port(
            Port.LOCAL, downstream_depth=1_000_000, deliver=self._eject
        )

    # -- injection --------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Queue a packet for transmission; latency clock starts now."""
        packet.created_cycle = self.engine.cycle
        self._inject_queue.append(packet)
        self.wake()

    @property
    def pending_injections(self) -> int:
        return len(self._inject_queue) + len(self._current_flits)

    def is_idle(self) -> bool:
        """Idle iff nothing is queued or mid-segmentation for injection.

        Ejection needs no activity: the router delivers into :meth:`_eject`
        directly, so a NIC that is only receiving can stay retired.
        """
        return not self._current_flits and not self._inject_queue

    def evaluate(self, cycle: int) -> None:
        pass

    def advance(self, cycle: int) -> None:
        if not self._current_flits:
            if not self._inject_queue:
                return
            vc = self._output.free_vc()
            if vc is None:
                return
            packet = self._inject_queue.popleft()
            packet.injected_cycle = cycle
            self._current_flits = deque(packet.make_flits(self._pool))
            self._current_vc = vc
            self._injected.increment()
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(
                    PACKET_INJECT,
                    cycle,
                    self._track,
                    packet.packet_id,
                    tuple(packet.src),
                    tuple(packet.dest),
                    packet.size_flits,
                    packet.message_class.value,
                )
        if self._output.credits[self._current_vc] > 0:
            flit = self._current_flits.popleft()
            flit.injected_cycle = cycle
            self._output.send(flit, self._current_vc)
            if not self._current_flits:
                self._current_vc = None

    # -- ejection ---------------------------------------------------------

    def _eject(self, flit: Flit, vc: int) -> None:
        if flit.is_tail:
            packet = flit.packet
            packet.ejected_cycle = self.engine.cycle
            self._received.increment()
            if packet.latency is not None:
                self._latency_hist.add(packet.latency)
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(
                    PACKET_EJECT,
                    packet.ejected_cycle,
                    self._track,
                    packet.packet_id,
                    packet.latency,
                )
            self._ejected_packets.append(packet)
            if self.on_packet is not None:
                self.on_packet(packet)
        if self._pool is not None:
            self._pool.release(flit)

    def drain_ejected(self) -> list[Packet]:
        """Return and clear the list of completed packets."""
        packets, self._ejected_packets = self._ejected_packets, []
        return packets

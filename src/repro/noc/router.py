"""Single-stage wormhole router with virtual channels and credit flow control.

The router follows the paper's design point: a speculative single-stage
pipeline (route computation, virtual-channel allocation and switch
allocation resolved in the same cycle a flit is forwarded), three virtual
channels per physical channel, each one message (4 flits) deep.

Flow control is credit-based.  Each output port tracks, per downstream
virtual channel, (a) whether the VC is currently allocated to an in-flight
packet and (b) how many free buffer slots remain.  A head flit must win a
free downstream VC; body/tail flits inherit it; the tail flit releases it.

The two-phase engine contract: ``evaluate`` performs all arbitration against
the state committed last cycle, ``advance`` moves the granted flits.

Hot path
--------

``evaluate``/``advance`` run once per router per loaded cycle, so they are
written allocation-free: routes are memoized per ``(dest, pillar_xy)`` in a
route table, the rotated arbitration orders are precomputed (invalidated
when a port is added), granted-output tracking is an int bitmask, and the
grant list is a flat reused buffer.  The behaviour is bit-identical to the
frozen naive implementation in :mod:`repro.noc.reference`, which
``tests/integration/test_noc_differential.py`` asserts end to end.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.engine import ClockedComponent, Engine
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, PACKET_HOP, Tracer
from repro.noc.flit import Flit
from repro.noc.link import CreditPipeline, LinkPipeline
from repro.noc.routing import (
    Coord,
    PORT_INDEX,
    Port,
    dimension_order_route,
    fault_aware_route,
)

if TYPE_CHECKING:
    from repro.faults.state import FaultState
    from repro.noc.packet import Packet


class InputVC:
    """One virtual-channel FIFO of an input port, plus its routing state."""

    __slots__ = ("buffer", "depth", "route_port", "out_vc", "out_port")

    def __init__(self, depth: int):
        self.buffer: deque[Flit] = deque()
        self.depth = depth
        # Allocated output port / downstream VC for the packet currently
        # occupying this VC; cleared when its tail flit departs.  out_port
        # caches the resolved OutputPort object for route_port so body
        # flits skip the dict lookup.
        self.route_port: Optional[Port] = None
        self.out_vc: Optional[int] = None
        self.out_port: Optional["OutputPort"] = None

    @property
    def head(self) -> Optional[Flit]:
        return self.buffer[0] if self.buffer else None

    @property
    def occupancy(self) -> int:
        return len(self.buffer)


class InputPort:
    """Buffered input side of a physical channel.

    ``credit_return`` is wired to the upstream output port so that consuming
    a flit frees a buffer slot there after the credit round-trip delay.
    """

    def __init__(self, num_vcs: int, depth: int):
        self.vcs = [InputVC(depth) for __ in range(num_vcs)]
        self.depth = depth
        self.credit_return: Optional[Callable[[int], None]] = None
        # The router this port belongs to: an arriving flit bumps its
        # buffered-flit count and wakes it (activity-tracked kernel).
        self.owner: Optional["Router"] = None

    def accept(self, flit: Flit, vc: int) -> None:
        """Deposit a flit into virtual channel ``vc`` (called by the link)."""
        buffer = self.vcs[vc].buffer
        if len(buffer) >= self.depth:
            raise RuntimeError(
                f"input VC overflow (vc={vc}): credit protocol violated"
            )
        buffer.append(flit)
        owner = self.owner
        if owner is not None:
            owner._buffered += 1
            owner._eval_cached = False
            owner.wake()


class OutputPort:
    """Credit-tracking output side of a physical channel.

    ``deliver`` is the link transfer function: called with ``(flit, vc)``
    during ``advance``, it must hand the flit to the downstream input port
    after the link latency.  ``vc_busy`` is the output-VC allocation table.
    """

    def __init__(
        self,
        port: Port,
        num_vcs: int,
        downstream_depth: int,
        deliver: Callable[[Flit, int], None],
    ):
        self.port = port
        self.num_vcs = num_vcs
        self.vc_busy = [False] * num_vcs
        self.credits = [downstream_depth] * num_vcs
        self.deliver = deliver
        # Bit identifying this port in the router's granted-output mask.
        self.out_bit = 1 << PORT_INDEX[port]
        # The router transmitting through this port; a returning credit
        # changes what its next evaluate can grant, so it must drop the
        # blocked-evaluate cache.
        self.owner: Optional["Router"] = None

    def free_vc(
        self, preferred: int = 0, lo: int = 0, hi: Optional[int] = None
    ) -> Optional[int]:
        """A downstream VC in ``[lo, hi)`` that is unallocated and has
        buffer space.  The window defaults to every VC; routers narrow it
        to one VC class for the multi-layer deadlock partition."""
        vc_busy = self.vc_busy
        credits = self.credits
        if hi is None:
            hi = self.num_vcs
        span = hi - lo
        vc = lo + preferred % span
        for __ in range(span):
            if not vc_busy[vc] and credits[vc] > 0:
                return vc
            vc += 1
            if vc == hi:
                vc = lo
        return None

    def return_credit(self, vc: int) -> None:
        self.credits[vc] += 1
        owner = self.owner
        if owner is not None:
            owner._eval_cached = False

    def send(self, flit: Flit, vc: int) -> None:
        """Consume a credit and push the flit onto the link."""
        if self.credits[vc] <= 0:
            raise RuntimeError(f"credit underflow on {self.port} vc={vc}")
        self.credits[vc] -= 1
        if flit.is_head:
            self.vc_busy[vc] = True
        if flit.is_tail:
            self.vc_busy[vc] = False
        self.deliver(flit, vc)


class _DropLabel:
    """Port-name stand-in for the drop sink (``.port.name == "DROP"``)."""

    name = "DROP"


class _DropPort:
    """Pseudo output port that swallows flits of unreachable packets.

    Quacks enough like :class:`OutputPort` for the evaluate/advance hot
    path: ``out_bit`` 0 (never conflicts with a real grant and is never
    jam-checked), bottomless credits so every flit of a doomed packet is
    granted as it reaches the head of line, and a ``send`` that discards
    the flit with drop accounting.  Credits still return upstream via the
    normal grant path, so the mesh drains instead of backpressuring.
    """

    __slots__ = ("port", "num_vcs", "vc_busy", "credits", "out_bit", "_faults")

    def __init__(self, num_vcs: int, faults: "FaultState"):
        self.port = _DropLabel
        self.num_vcs = num_vcs
        self.vc_busy = [False] * num_vcs
        self.credits = [1 << 30] * num_vcs
        self.out_bit = 0
        self._faults = faults

    def send(self, flit: Flit, vc: int) -> None:
        self._faults.flit_dropped()


class Router(ClockedComponent):
    """A mesh router at one node of the 3D chip.

    Pillar routers are ordinary routers whose port set includes
    ``Port.VERTICAL``; the hybridization with the dTDMA bus is entirely in
    what that port's :class:`OutputPort` delivers into (the bus transceiver)
    and what feeds its :class:`InputPort` (bus receptions).
    """

    def __init__(
        self,
        coord: Coord,
        num_vcs: int = 3,
        vc_depth: int = 4,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.coord = coord
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.stats = stats or StatsRegistry(f"router{coord}")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._track = self._tracer.track(
            f"router.{coord.x}.{coord.y}.{coord.z}"
        )
        self.input_ports: dict[Port, InputPort] = {}
        self.output_ports: dict[Port, OutputPort] = {}
        # Grants decided in evaluate(), committed in advance(): a flat
        # reused list of (input_port, vc, vc_index, output_port, out_vc)
        # records, five slots per grant.
        self._grants: list[Any] = []
        self._rr_offset = 0
        # Memoized dimension_order_route results, and the precomputed
        # arbitration rotations (one tuple of (port, InputPort, enumerated
        # VCs) per round-robin offset; rebuilt when a port is added).
        self._route_table: dict[
            tuple[Coord, Optional[tuple[int, int]]], Port
        ] = {}
        self._orders: Optional[list[tuple]] = None
        # Blocked-evaluate cache: True when the previous evaluate granted
        # nothing and no flit arrival / credit return / port change has
        # happened since.  Arbitration inputs are then bit-identical, and
        # with an empty grant mask the round-robin rotation cannot affect
        # any VC's outcome, so the whole scan can be skipped and only the
        # cached blocked-counter increment replayed.
        self._eval_cached = False
        self._cached_blocked = False
        # Running count of input-buffered flits, maintained by
        # InputPort.accept / advance so is_idle() is O(1).
        self._buffered = 0
        # VC class partition for multi-layer deadlock avoidance (set by
        # Network from NetworkConfig.vc_split): packets still headed for
        # a vertical hop may only win VCs [0, vc_split); packets on their
        # destination layer use [vc_split, num_vcs).  0 disables the
        # partition (single-layer meshes).
        self.vc_split = 0
        # Live fault map, set by Network.attach_fault_state when a fault
        # schedule is installed; None keeps the fault checks to a single
        # is-None branch on the hot path.
        self._faults: Optional["FaultState"] = None
        self._drop: Optional[_DropPort] = None
        scope = self.stats.scope(f"router{coord}")
        self._forwarded = scope.counter("flits_forwarded")
        self._blocked = scope.counter("cycles_blocked")

    # -- wiring ----------------------------------------------------------

    def add_input_port(self, port: Port) -> InputPort:
        input_port = InputPort(self.num_vcs, self.vc_depth)
        input_port.owner = self
        self.input_ports[port] = input_port
        self._orders = None
        self._eval_cached = False
        return input_port

    def add_output_port(
        self,
        port: Port,
        downstream_depth: int,
        deliver: Callable[[Flit, int], None],
    ) -> OutputPort:
        output_port = OutputPort(port, self.num_vcs, downstream_depth, deliver)
        output_port.owner = self
        self.output_ports[port] = output_port
        self._eval_cached = False
        return output_port

    @property
    def ports(self) -> set[Port]:
        return set(self.input_ports) | set(self.output_ports)

    def buffered_flits(self) -> int:
        """Total flits resident in this router's input buffers."""
        return sum(
            vc.occupancy
            for input_port in self.input_ports.values()
            for vc in input_port.vcs
        )

    @property
    def forwarded_flits(self) -> int:
        """Flits forwarded so far (liveness-watchdog progress signal)."""
        return self._forwarded.value

    def _drop_sink(self, faults: "FaultState") -> _DropPort:
        drop = self._drop
        if drop is None:
            drop = self._drop = _DropPort(self.num_vcs, faults)
        return drop

    def is_idle(self) -> bool:
        """Idle iff no input VC holds a flit and no grant is pending."""
        return self._buffered == 0 and not self._grants

    # -- routing ---------------------------------------------------------

    def _route(self, packet: "Packet") -> Port:
        """Route ``packet``, memoized per (dest, pillar) in the route table."""
        key = (packet.dest, packet.pillar_xy)
        port = self._route_table.get(key)
        if port is None:
            port = dimension_order_route(
                self.coord, packet.dest, packet.pillar_xy
            )
            self._route_table[key] = port
        return port

    def _build_orders(self) -> Optional[list[tuple]]:
        entries = [
            (input_port, tuple(enumerate(input_port.vcs)))
            for input_port in self.input_ports.values()
        ]
        if not entries:
            return None
        self._orders = [
            tuple(entries[offset:] + entries[:offset])
            for offset in range(len(entries))
        ]
        return self._orders

    # -- per-cycle operation ----------------------------------------------

    def evaluate(self, cycle: int) -> None:
        if self._eval_cached:
            # Bit-identical replay of the previous zero-grant evaluate.
            if self._cached_blocked:
                self._blocked.increment()
            return
        grants = self._grants
        del grants[:]
        orders = self._orders
        if orders is None:
            orders = self._build_orders()
            if orders is None:
                return
        # Rotate arbitration priority so no input port starves.  Derived
        # from the cycle number (not a tick count) so the rotation is
        # identical whether or not idle cycles were skipped.
        offset = (cycle + 1) % len(orders)
        self._rr_offset = offset
        granted_mask = 0
        any_blocked = False
        output_ports = self.output_ports
        route_table = self._route_table
        faults = self._faults
        vc_split = self.vc_split
        coord_z = self.coord.z
        for input_port, vcs in orders[offset]:
            for vc_index, vc in vcs:
                buffer = vc.buffer
                if not buffer:
                    continue
                head = buffer[0]
                out_port = vc.out_port
                if out_port is None:
                    if head.is_head and vc.route_port is None:
                        packet = head.packet
                        if faults is not None and faults.mesh_faulty:
                            # Fault-aware path: consult the live fault
                            # map, never memoized (links heal).
                            route_port = fault_aware_route(
                                self.coord,
                                packet.dest,
                                packet.pillar_xy,
                                faults.dead_links,
                            )
                            if route_port is None:
                                # Unreachable: swallow the packet flit by
                                # flit through the drop sink instead of
                                # wedging this VC forever.
                                faults.packet_unreachable(packet)
                                vc.route_port = Port.LOCAL
                                out_port = self._drop_sink(faults)
                                vc.out_port = out_port
                            else:
                                vc.route_port = route_port
                        else:
                            key = (packet.dest, packet.pillar_xy)
                            route_port = route_table.get(key)
                            if route_port is None:
                                route_port = dimension_order_route(
                                    self.coord, packet.dest, packet.pillar_xy
                                )
                                route_table[key] = route_port
                            vc.route_port = route_port
                    if out_port is None:
                        out_port = output_ports.get(vc.route_port)
                        if out_port is None:
                            raise RuntimeError(
                                f"router {self.coord}: no output port "
                                f"{vc.route_port} for {head.packet}"
                            )
                        vc.out_port = out_port
                if (
                    faults is not None
                    and faults.jammed_ports
                    and out_port.out_bit
                    and (self.coord, out_port.port) in faults.jammed_ports
                ):
                    any_blocked = True
                    continue
                if granted_mask & out_port.out_bit:
                    any_blocked = True
                    continue
                out_vc = vc.out_vc
                if out_vc is None and head.is_head:
                    # Inlined OutputPort.free_vc(preferred=vc_index): this
                    # runs every cycle a head flit waits for a downstream
                    # VC, which under load is most VCs most cycles.  The
                    # scan window is the packet's VC class: cross-layer
                    # packets that still need a vertical hop take
                    # [0, vc_split), everything else [vc_split, num_vcs)
                    # — the partition that keeps the pillar round trip
                    # deadlock-free (see NetworkConfig.vc_split).
                    vc_busy = out_port.vc_busy
                    credits = out_port.credits
                    num_vcs = out_port.num_vcs
                    if vc_split:
                        if head.packet.dest.z != coord_z:
                            lo, hi = 0, vc_split
                        else:
                            lo, hi = vc_split, num_vcs
                    else:
                        lo, hi = 0, num_vcs
                    span = hi - lo
                    candidate = lo + vc_index % span
                    for __ in range(span):
                        if not vc_busy[candidate] and credits[candidate] > 0:
                            out_vc = vc.out_vc = candidate
                            break
                        candidate += 1
                        if candidate == hi:
                            candidate = lo
                    else:
                        any_blocked = True
                        continue
                if out_port.credits[out_vc] <= 0:
                    any_blocked = True
                    continue
                grants.append(input_port)
                grants.append(vc)
                grants.append(vc_index)
                grants.append(out_port)
                grants.append(out_vc)
                granted_mask |= out_port.out_bit
                break  # one flit per input port per cycle
        if any_blocked:
            self._blocked.increment()
        if not grants:
            self._eval_cached = True
            self._cached_blocked = any_blocked

    def advance(self, cycle: int) -> None:
        grants = self._grants
        if not grants:
            return
        # Probe guard hoisted out of the loop: the disabled path costs one
        # attribute load + branch per advance, zero per grant.
        tracer = self._tracer
        traced = tracer.enabled
        for i in range(0, len(grants), 5):
            vc = grants[i + 1]
            flit = vc.buffer.popleft()
            if traced and flit.is_head:
                tracer.emit(
                    PACKET_HOP,
                    cycle,
                    self._track,
                    flit.packet.packet_id,
                    grants[i + 3].port.name,
                    grants[i + 4],
                )
            if flit.is_tail:
                vc.route_port = None
                vc.out_vc = None
                vc.out_port = None
            grants[i + 3].send(flit, grants[i + 4])
            credit_return = grants[i].credit_return
            if credit_return is not None:
                credit_return(grants[i + 2])
        count = len(grants) // 5
        self._buffered -= count
        self._forwarded.increment(count)
        del grants[:]


def connect(
    engine: Engine,
    upstream: Router,
    up_port: Port,
    downstream: Router,
    down_port: Port,
    link_latency: int = 1,
    pipeline: Optional[LinkPipeline] = None,
) -> None:
    """Wire ``upstream``'s ``up_port`` output to ``downstream``'s input.

    Creates the output port on the upstream router and the input port on the
    downstream one, with a link of ``link_latency`` cycles and a one-cycle
    credit return path.

    One-cycle links deposit directly into the downstream buffer during the
    sender's ``advance`` — timing-equivalent to the event the naive fabric
    schedules, because the downstream router next arbitrates in the
    following cycle either way and the credit invariant rules out overflow.
    Longer links ride ``pipeline`` (a network-shared :class:`LinkPipeline`;
    a private one is created and registered when none is given).
    """
    input_port = downstream.add_input_port(down_port)

    if link_latency <= 1:
        deliver = input_port.accept
    else:
        if pipeline is None:
            pipeline = LinkPipeline(engine, link_latency)
            engine.register(pipeline)
        else:
            pipeline.reserve(link_latency)

        def deliver(
            flit: Flit,
            vc: int,
            _send=pipeline.send,
            _sink=input_port.accept,
            _latency=link_latency,
        ) -> None:
            _send(_sink, flit, vc, _latency)

    output_port = upstream.add_output_port(
        up_port, downstream_depth=downstream.vc_depth, deliver=deliver
    )
    input_port.credit_return = CreditPipeline(engine, output_port.return_credit)

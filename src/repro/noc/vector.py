"""``FabricKind.VECTOR``: the whole 3D mesh as structure-of-arrays state.

Instead of ticking ~256 router/NIC/pillar Python objects per cycle, one
:class:`VectorFabric` component holds every input buffer, credit counter,
VC-allocation record, and link stage as flat numpy arrays indexed by a
``(router, port, vc)`` layout, and advances the entire mesh in a handful
of bulk array operations per cycle (the batch-simulation approach of
"Bufferless NOC Simulation of Large Multicore System on GPU Hardware").

Per-cycle cost scales with *occupancy*, not mesh size: an incremental
occupied-lane set (maintained on deposit, pruned lazily) feeds the mesh
step only the live (router, port, vc) indices, and at or below
:data:`SPARSE_THRESHOLD` occupied lanes the whole step drops to a
scalar per-flit path with identical outcomes.  A fully quiescent
fabric reports idle, so the engine's active-set machinery fast-forwards
vector cycles exactly as it does for the object fabrics.

Semantics match the object fabrics cycle-for-cycle on uncontended
traffic (identical zero-load latencies, identical credit round-trip
timing).  Under contention the arbitration *rotation* differs: the
object router rotates its input-port scan over the per-router insertion
order of whatever ports exist, while the vector fabric rotates a global
priority over the fixed ``PORT_INDEX`` space and resolves all routers at
once in two winner-selection passes (one winner per output port, then
one per input port).  Both are fair round-robin schemes, so results are
distribution-level equivalent rather than bit-identical — the
differential suite checks delivered counts and latency distributions
within tolerance instead of exact stats snapshots.

The dTDMA boundary stays event-driven: each pillar is a small Python
bridge (:class:`_VectorPillar`) fed through index queues, reusing the
exact :class:`~repro.dtdma.arbiter.DynamicTDMAArbiter` so bus grant
order is bit-identical to the object fabrics given the same offered
sequence.  At most ``pillars × 1`` flit crosses this boundary per cycle,
so the Python cost is negligible.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TYPE_CHECKING

import numpy as np

from repro.sim.engine import ClockedComponent, Engine
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.dtdma.arbiter import DynamicTDMAArbiter
from repro.noc.routing import (
    OPPOSITE_PORT,
    PORT_INDEX,
    Port,
    compute_route_table,
)

if TYPE_CHECKING:
    from repro.noc.network import Network, NetworkConfig
    from repro.noc.packet import Packet

_LOCAL = PORT_INDEX[Port.LOCAL]
_VERTICAL = PORT_INDEX[Port.VERTICAL]
_NUM_PORTS = len(PORT_INDEX)
# The object NIC models ejection as a bottomless output port
# (downstream_depth=1_000_000, credits never returned); mirror it exactly
# so ejection is never the backpressure point in either fabric.
_EJECT_CREDITS = 1_000_000
_PRIO_MAX = 1 << 30
#: Occupancy (occupied input VCs, or active NICs) at or below which the
#: mesh and NIC phases take the scalar per-flit path instead of batched
#: numpy arbitration.  Both paths produce identical results; 24 is the
#: measured crossover at BENCH_noc.json's sparse operating point.
SPARSE_THRESHOLD = 24


class _VectorPillar:
    """One dTDMA pillar bridged through index queues.

    TX side: the mesh step pushes ``(packet_index, flit_seq)`` pairs into
    per-(layer, vc) deques when a flit leaves a pillar router's VERTICAL
    output.  RX side: the granted flit is deposited straight into the
    destination router's VERTICAL input buffer (arbitrated next cycle),
    with the RX credit returned through the fabric's one-cycle staging
    lists — the same visibility timing as the object bus's
    CreditPipeline.
    """

    def __init__(
        self,
        fabric: "VectorFabric",
        xy: tuple[int, int],
        routers: list[int],
        num_vcs: int,
        vc_depth: int,
        active_vcs: int = 0,
    ):
        self.fabric = fabric
        self.xy = xy
        self.routers = routers  # flat router index per layer z
        self.num_vcs = num_vcs
        # Under the VC-class partition only class-A VCs [0, vc_split)
        # ever reach a VERTICAL output, so the bus need not scan (or
        # register arbiter clients for) the intra-layer class.  The
        # object bus keeps all clients but they are never deliverable —
        # the grant rotation over the active set is identical.
        self.active_vcs = active_vcs or num_vcs
        self.txq: list[list[deque]] = [
            [deque() for _ in range(num_vcs)] for _ in routers
        ]
        self.rx_credits = [[vc_depth] * num_vcs for _ in routers]
        # Bus-level VC ownership, held head flit through tail exactly as
        # on the object bus: key (dest_layer, vc) -> owning (src_layer, vc).
        self.vc_owner: dict[tuple[int, int], tuple[int, int] | None] = {
            (z, vc): None
            for z in range(len(routers))
            for vc in range(num_vcs)
        }
        clients = [
            (z, vc)
            for z in range(len(routers))
            for vc in range(self.active_vcs)
        ]
        # Same arbiter class as the object bus (identical rotation), but
        # with a private registry: the vector fabric does not report the
        # shared per-cycle "bus.*" counters (documented divergence).
        self.arbiter = DynamicTDMAArbiter(
            clients, stats=StatsRegistry(f"vector-pillar{xy}")
        )
        self.occupancy = 0
        self.transfers = 0

    def tx_push(self, z: int, vc: int, pkt: int, seq: int) -> None:
        self.txq[z][vc].append((pkt, seq))
        self.occupancy += 1
        self.fabric._pillar_occ += 1

    def step(self, cycle: int, rx_out: list) -> None:
        """One bus slot: offer deliverable heads, grant one, deliver it."""
        fabric = self.fabric
        active = set()
        for z, queues in enumerate(self.txq):
            for vc in range(self.active_vcs):
                queue = queues[vc]
                if not queue:
                    continue
                pkt, seq = queue[0]
                dest_z = int(fabric._pkt_dest_z[pkt])
                me = (z, vc)
                owner = self.vc_owner[(dest_z, vc)]
                if seq == 0:
                    if owner is not None and owner != me:
                        continue
                elif owner != me:
                    continue
                if self.rx_credits[dest_z][vc] <= 0:
                    continue
                active.add(me)
        granted = self.arbiter.grant(active, cycle)
        if granted is None:
            return
        z, vc = granted
        pkt, seq = self.txq[z][vc].popleft()
        self.occupancy -= 1
        fabric._pillar_occ -= 1
        # TX credit back to the source router's VERTICAL output port,
        # visible next cycle (the object transceiver's CreditPipeline).
        out = (self.routers[z] * _NUM_PORTS + _VERTICAL) * self.num_vcs + vc
        fabric._stage_out_scalar.append(out)
        dest_z = int(fabric._pkt_dest_z[pkt])
        self.rx_credits[dest_z][vc] -= 1
        if seq == 0:
            self.vc_owner[(dest_z, vc)] = (z, vc)
        if seq == int(fabric._pkt_last[pkt]):
            self.vc_owner[(dest_z, vc)] = None
        self.transfers += 1
        fabric.bus_transfers += 1
        flat_in = (
            self.routers[dest_z] * _NUM_PORTS + _VERTICAL
        ) * self.num_vcs + vc
        rx_out.append((flat_in, pkt, seq))


class VectorFabric(ClockedComponent):
    """One batched component advancing every router/link/NIC per cycle.

    All state lives in flat numpy arrays; ``advance`` runs six bulk
    phases in an order that reproduces the object fabrics' two-phase
    timing (see DESIGN.md "Vector fabric" for the cycle-by-cycle
    correspondence):

    1. apply credits staged last cycle (the CreditPipeline delay),
    2. pillar bus slots (which see TX queues as of end of last cycle),
    3. mesh arbitration + commit over every occupied input VC at once,
    4. link-stage delivery of flits sent ``link_latency - 1`` cycles ago,
    5. NIC injection (VC acquisition then one flit per node), and
    6. pillar RX deposits (arbitrated next cycle).
    """

    def __init__(
        self,
        network: "Network",
        config: "NetworkConfig",
        engine: Engine,
        stats: StatsRegistry,
    ):
        self.network = network
        self.config = config
        self.engine = engine
        self.stats = stats
        self._on_packet: Callable[["Packet"], None] = network._on_packet

        width, height, layers = config.width, config.height, config.layers
        self._n2d = width * height
        num_routers = self._R = self._n2d * layers
        ports = self._P = _NUM_PORTS
        vcs = self._V = config.num_vcs
        depth = self._D = config.vc_depth
        self._PV = ports * vcs
        self._width = width

        self._route2d = compute_route_table(width, height).astype(np.int64)

        # --- input buffers: per-(router, port, vc) ring buffers ---------
        size = num_routers * ports * vcs
        self._buf_pkt = np.full(size * depth, -1, np.int64)
        self._buf_seq = np.zeros(size * depth, np.int64)
        self._buf_head = np.zeros(size, np.int64)
        self._buf_cnt = np.zeros(size, np.int64)
        # Incremental occupied set: every flat index with buf_cnt > 0 is
        # in ``_occ`` (sorted) or staged in ``_occ_new``/``_occ_new_scalar``
        # (appended on deposit, merged and pruned by _compact_occupied at
        # the top of each mesh step).  ``_in_occ[i]`` means "i is already
        # somewhere in the set", so deposits append each index at most
        # once.  This keeps the per-cycle mesh cost proportional to the
        # live traffic instead of the mesh size (see DESIGN.md
        # "Occupancy-adaptive vector advance").
        self._occ = np.empty(0, np.int64)
        self._occ_new: list = []          # staged index arrays
        self._occ_new_scalar: list = []   # staged scalar indexes
        self._in_occ = np.zeros(size, bool)
        # Dense mode: above ~1/8 mesh occupancy the incremental
        # bookkeeping (membership gathers on every deposit, sorted-merge
        # compaction) costs more than the full contiguous rescan it
        # avoids.  While the flag is set deposits skip membership
        # maintenance entirely and _compact_occupied rescans; membership
        # is rebuilt once on the dense->sparse transition.
        self._occ_dense = False
        # Switch/VC allocation held by the in-transit packet (the object
        # InputVC's route_port / out_vc), -1 when unallocated.  int64 so
        # the per-cycle gathers need no widening conversion.
        self._in_route = np.full(size, -1, np.int64)
        self._in_outvc = np.full(size, -1, np.int64)
        # Whether the packet at the front of each VC still needs its
        # vertical hop (set with the route, read by the VC-class
        # partition of NetworkConfig.vc_split).
        self._in_cross = np.zeros(size, bool)
        self._vc_split = config.vc_split
        # Derived per-buffer state maintained alongside the route so the
        # eligibility pass is pure gathers: the flat output (router, port)
        # and the VC-pick table key (class/preferred already folded in).
        self._in_outrp = np.zeros(size, np.int64)
        self._in_key = np.zeros(size, np.int64)

        # --- output ports: downstream credits + VC-busy ----------------
        self._out_credits = np.zeros(size, np.int64)
        self._out_busy = np.zeros(size, bool)

        # --- topology ---------------------------------------------------
        self._link_dest = np.full((num_routers, ports), -1, np.int64)
        self._opposite = np.zeros(ports, np.int64)
        for port, opp in OPPOSITE_PORT.items():
            self._opposite[PORT_INDEX[port]] = PORT_INDEX[opp]
        idx = np.arange(num_routers)
        x = idx % width
        y = (idx // width) % height
        east, west = x + 1 < width, x > 0
        north, south = y + 1 < height, y > 0
        self._link_dest[east, PORT_INDEX[Port.EAST]] = idx[east] + 1
        self._link_dest[west, PORT_INDEX[Port.WEST]] = idx[west] - 1
        self._link_dest[north, PORT_INDEX[Port.NORTH]] = idx[north] + width
        self._link_dest[south, PORT_INDEX[Port.SOUTH]] = idx[south] - width
        credits_3d = self._out_credits.reshape(num_routers, ports, vcs)
        for port_index in (
            PORT_INDEX[Port.EAST],
            PORT_INDEX[Port.WEST],
            PORT_INDEX[Port.NORTH],
            PORT_INDEX[Port.SOUTH],
        ):
            has = self._link_dest[:, port_index] >= 0
            credits_3d[has, port_index, :] = depth
        credits_3d[:, _LOCAL, :] = _EJECT_CREDITS

        # --- pillars ----------------------------------------------------
        self._pillars: list[_VectorPillar] = []
        self._pillar_at: dict[int, tuple[_VectorPillar, int]] = {}
        if layers > 1:
            for px, py in config.pillar_locations:
                routers = [
                    z * self._n2d + py * width + px for z in range(layers)
                ]
                pillar = _VectorPillar(
                    (self), (px, py), routers, vcs, depth,
                    active_vcs=self._vc_split,
                )
                self._pillars.append(pillar)
                for z, router in enumerate(routers):
                    self._pillar_at[router] = (pillar, z)
                    credits_3d[router, _VERTICAL, :] = depth

        # --- NICs -------------------------------------------------------
        self._nic_credits = np.full(num_routers * vcs, depth, np.int64)
        self._nic_credits_2d = self._nic_credits.reshape(num_routers, vcs)
        self._nic_busy = np.zeros((num_routers, vcs), bool)
        self._nic_busy_flat = self._nic_busy.reshape(-1)
        self._inj_pkt = np.full(num_routers, -1, np.int64)
        self._inj_seq = np.zeros(num_routers, np.int64)
        self._inj_vc = np.zeros(num_routers, np.int64)
        self._inj_queues: list[deque] = [deque() for _ in range(num_routers)]
        self._queue_len = np.zeros(num_routers, np.int64)
        self._inj_pending = 0
        # Active-NIC set, same lazy scheme as the occupied set: a router
        # enters on inject and leaves (at compaction) once its queue is
        # empty and no injection is mid-flight.
        self._nic_act = np.empty(0, np.int64)
        self._nic_act_new: list[int] = []
        self._nic_in_act = np.zeros(num_routers, bool)
        self._nic_dense = False

        # --- link stage: one batch per cycle in flight ------------------
        self._stage_depth = max(0, config.link_latency - 1)
        self._link_stage: deque = deque([None] * self._stage_depth)
        self._links_in_flight = 0

        # --- credit staging (applied at the top of the next advance) ----
        self._stage_out: list = []   # flat (router, port, vc) output idx
        self._stage_out_scalar: list = []  # same, scalar ints (pillar TX)
        self._stage_nic: list = []   # flat (router, vc) NIC credit idx
        self._stage_rx: list = []    # (pillar, layer, vc) triples

        # --- packet side table ------------------------------------------
        # Pure SoA: destination, pillar, length, and lifecycle cycles per
        # packet index.  ``Network.send`` packets additionally carry a
        # Python ``Packet`` in ``_pkt_obj`` (callers hold a reference to
        # it); the batched injection path registers rows only, so the
        # saturation benchmark never touches a per-packet object.
        capacity = 1024
        self._pkt_dest_xy = np.zeros(capacity, np.int64)
        self._pkt_dest_z = np.zeros(capacity, np.int64)
        self._pkt_pillar_xy = np.full(capacity, -1, np.int64)
        self._pkt_last = np.zeros(capacity, np.int64)
        self._pkt_created = np.zeros(capacity, np.int64)
        self._pkt_done = np.zeros(capacity, bool)
        self._pkt_n = 0
        self._pkt_obj: dict[int, "Packet"] = {}
        self._pillar_flat = np.array(
            [py * width + px for px, py in config.pillar_locations],
            np.int64,
        )
        # In-flight age accounting: packet indexes are issued in creation
        # order, so the oldest live packet is found by advancing a cursor
        # over the done flags (amortized O(1) per packet).
        self._done_count = 0
        self._oldest_alive = 0
        self._inflight_created_sum = 0

        self._total_buffered = 0
        self._pillar_occ = 0
        self.flits_forwarded = 0
        self.bus_transfers = 0
        scope = stats.scope("nic")
        self._injected = scope.counter("packets_injected")
        self._received = scope.counter("packets_received")
        self._latency_hist = scope.histogram("packet_latency")
        # Per-mesh-cycle occupancy observability (drives the scalar/
        # batched threshold choice): candidate lanes after compaction and
        # lanes actually advanced.  Means are exact; bucket widths only
        # bound the distribution resolution on big meshes.
        vec_scope = stats.scope("noc.vector")
        self._occ_hist = vec_scope.histogram(
            "occupied_vcs", bucket_width=8.0
        )
        self._lanes_hist = vec_scope.histogram("active_lanes")
        # Occupancy trace probe: NULL_TRACER by default (guard-on-bool,
        # zero cost); attach_tracer installs a live one.
        self._tracer: Tracer = NULL_TRACER
        self._trace_track = 0
        self._scratch = np.full(num_routers * ports, _PRIO_MAX, np.int64)
        # Constant decompositions of the flat (router, port, vc) index,
        # gathered instead of recomputed on the hot path, plus one
        # priority table per arbitration rotation: row ``off`` holds
        # ((in_port + off) % ports) * vcs + in_vc for every buffer.
        idx = np.arange(size, dtype=np.int64)
        self._router_of = idx // self._PV
        self._in_port_of = (idx // vcs) % ports
        self._in_vc_of = idx % vcs
        self._in_rp_of = idx // vcs
        self._rp_base = self._router_of * ports
        self._prio_table = np.stack(
            [
                ((self._in_port_of + off) % ports) * vcs + self._in_vc_of
                for off in range(ports)
            ]
        )
        # Output-VC allocation as one table lookup.  A fresh head's chosen
        # VC depends only on (its class, its input VC, which output VCs
        # are free), so precompute the rotating first-free scan — the
        # object free_vc(preferred, lo, hi) — for every combination:
        # row key ((class * vcs + preferred) << vcs) | free_bitmask,
        # value the chosen VC or -1 when the class window has none free.
        # Doubles as the eligibility check (pick >= 0).
        split = self._vc_split
        pick = np.full((2, vcs, 1 << vcs), -1, np.int64)
        for cls in range(2):
            if split:
                lo, hi = (0, split) if cls else (split, vcs)
            else:
                lo, hi = 0, vcs
            span = hi - lo
            for pref in range(vcs):
                for mask in range(1 << vcs):
                    vc = lo + pref % span
                    for _ in range(span):
                        if mask >> vc & 1:
                            pick[cls, pref, mask] = vc
                            break
                        vc += 1
                        if vc == hi:
                            vc = lo
        self._vc_pick = pick.reshape(-1)
        self._vc_bits = 1 << np.arange(vcs, dtype=np.int64)
        self._vc_iota = np.arange(vcs, dtype=np.int64)
        # key = keybase[flat] + cross * cross_term + bits[out_rp]
        self._keybase = self._in_vc_of << vcs
        self._cross_term = vcs << vcs
        # Fresh-head routing looks up layer/xy by flat index.
        self._layer_of = self._router_of // self._n2d
        self._xy_of = self._router_of % self._n2d
        # Credit-return plumbing per input buffer is topology, so bake it:
        # kind 0 = mesh (return to the upstream router's output port),
        # 1 = NIC (return to the local injection interface), 2 = pillar
        # RX (return through the bus's staged rx_credits).
        self._ret_kind = np.zeros(size, np.int64)
        self._ret_kind[self._in_port_of == _LOCAL] = 1
        self._ret_kind[self._in_port_of == _VERTICAL] = 2
        self._ret_idx = np.zeros(size, np.int64)
        for flat in range(size):
            router = int(self._router_of[flat])
            port = int(self._in_port_of[flat])
            in_vc = int(self._in_vc_of[flat])
            if port == _LOCAL:
                self._ret_idx[flat] = router * vcs + in_vc
            elif port != _VERTICAL:
                up = int(self._link_dest[router, port])
                if up >= 0:
                    self._ret_idx[flat] = (
                        up * ports + int(self._opposite[port])
                    ) * vcs + in_vc
        # Downstream deposit base per (router, port): add the output VC
        # to get the neighbour's flat input-buffer index.
        self._dest_in_base = np.zeros(num_routers * ports, np.int64)
        for rp in range(num_routers * ports):
            router, port = rp // ports, rp % ports
            down = int(self._link_dest[router, port])
            if down >= 0:
                self._dest_in_base[rp] = (
                    down * ports + int(self._opposite[port])
                ) * vcs

    def attach_tracer(self, tracer: Tracer) -> None:
        """Install the aggregate occupancy trace probe.

        ``Network`` refuses enabled tracers for the vector fabric (there
        are no per-router probe points), so this is the one trace hook
        the batched fabric offers: one ``vector_occupancy`` event per
        mesh cycle, guarded on ``tracer.enabled`` like every probe site.
        """
        self._tracer = tracer
        self._trace_track = tracer.track("noc.vector")

    # -- component protocol --------------------------------------------------

    def is_idle(self) -> bool:
        return (
            self._total_buffered == 0
            and self._links_in_flight == 0
            and self._pillar_occ == 0
            and self._inj_pending == 0
            and not self._stage_out
            and not self._stage_out_scalar
            and not self._stage_nic
            and not self._stage_rx
        )

    def evaluate(self, cycle: int) -> None:
        pass

    def advance(self, cycle: int) -> None:
        self._apply_staged_credits()
        rx_deposits: list = []
        if self._pillar_occ:
            for pillar in self._pillars:
                if pillar.occupancy:
                    pillar.step(cycle, rx_deposits)
        batch = self._mesh_step(cycle) if self._total_buffered else None
        if self._stage_depth:
            due = self._link_stage.popleft()
            self._link_stage.append(batch)
            if batch is not None:
                self._links_in_flight += len(batch[0])
            if due is not None:
                self._links_in_flight -= len(due[0])
                self._deposit(*due)
        if self._inj_pending:
            self._nic_step(cycle)
        for flat_in, pkt, seq in rx_deposits:
            self._deposit_one(flat_in, pkt, seq)

    # -- injection boundary ---------------------------------------------------

    def inject(self, packet: "Packet") -> None:
        cycle = self.engine.cycle
        packet.created_cycle = cycle
        pkt_index = self._pkt_n
        self._ensure_packet_capacity(pkt_index + 1)
        dest = packet.dest
        self._pkt_dest_xy[pkt_index] = dest.y * self._width + dest.x
        self._pkt_dest_z[pkt_index] = dest.z
        if packet.pillar_xy is not None:
            px, py = packet.pillar_xy
            self._pkt_pillar_xy[pkt_index] = py * self._width + px
        else:
            self._pkt_pillar_xy[pkt_index] = -1
        self._pkt_last[pkt_index] = packet.size_flits - 1
        self._pkt_created[pkt_index] = cycle
        self._pkt_done[pkt_index] = False
        self._pkt_n = pkt_index + 1
        self._pkt_obj[pkt_index] = packet
        self._inflight_created_sum += cycle
        src = packet.src
        router = src.z * self._n2d + src.y * self._width + src.x
        self._inj_queues[router].append(pkt_index)
        self._queue_len[router] += 1
        self._inj_pending += 1
        if not self._nic_dense and not self._nic_in_act[router]:
            self._nic_in_act[router] = True
            self._nic_act_new.append(router)
        self.wake()

    def inject_batch(self, src, dest, size_flits: int) -> int:
        """Register a batch of object-free packets, one row per index.

        ``src``/``dest`` are flat router indexes (the ``coords()``
        order); callers guarantee ``src != dest`` elementwise and that no
        packet callbacks need a ``Packet`` object.  Destinations,
        pillars, and timestamps are filled with array ops; the only
        per-packet Python work left is one deque append at the source
        NIC.
        """
        cycle = self.engine.cycle
        count = int(src.size)
        if count == 0:
            return 0
        start = self._pkt_n
        self._ensure_packet_capacity(start + count)
        stop = start + count
        n2d = self._n2d
        dest_xy = dest % n2d
        dest_z = dest // n2d
        self._pkt_dest_xy[start:stop] = dest_xy
        self._pkt_dest_z[start:stop] = dest_z
        cross = (src // n2d) != dest_z
        # Packet rows are written exactly once and the side tables are
        # allocated (and grown) filled with -1, so only the cross-layer
        # rows need a pillar assignment.
        if cross.any():
            choice = self.network._pillar_choice[
                src[cross] % n2d, dest_xy[cross]
            ]
            self._pkt_pillar_xy[start:stop][cross] = self._pillar_flat[choice]
        self._pkt_last[start:stop] = size_flits - 1
        self._pkt_created[start:stop] = cycle
        self._pkt_n = stop
        self._inflight_created_sum += cycle * count
        queues = self._inj_queues
        pid = start
        for router in src.tolist():
            queues[router].append(pid)
            pid += 1
        np.add.at(self._queue_len, src, 1)
        self._inj_pending += count
        if not self._nic_dense:
            fresh = np.unique(src)
            fresh = fresh[~self._nic_in_act[fresh]]
            if fresh.size:
                self._nic_in_act[fresh] = True
                self._nic_act_new.extend(fresh.tolist())
        self.wake()
        return count

    def _ensure_packet_capacity(self, needed: int) -> None:
        capacity = len(self._pkt_dest_xy)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in (
            "_pkt_dest_xy", "_pkt_dest_z", "_pkt_pillar_xy",
            "_pkt_last", "_pkt_created",
        ):
            old = getattr(self, name)
            new = np.full(capacity, -1, np.int64)
            new[: len(old)] = old
            setattr(self, name, new)
        done = np.zeros(capacity, bool)
        done[: len(self._pkt_done)] = self._pkt_done
        self._pkt_done = done

    # -- per-cycle phases -----------------------------------------------------

    def _apply_staged_credits(self) -> None:
        if self._stage_out:
            for indexes in self._stage_out:
                np.add.at(self._out_credits, indexes, 1)
            self._stage_out.clear()
        if self._stage_out_scalar:
            np.add.at(self._out_credits, self._stage_out_scalar, 1)
            self._stage_out_scalar.clear()
        if self._stage_nic:
            for indexes in self._stage_nic:
                np.add.at(self._nic_credits, indexes, 1)
            self._stage_nic.clear()
        if self._stage_rx:
            for pillar, layer, vc in self._stage_rx:
                pillar.rx_credits[layer][vc] += 1
            self._stage_rx.clear()

    def _compact_occupied(self):
        """Fold staged deposits into the sorted occupied set, drop drained.

        Returns exactly ``np.flatnonzero(self._buf_cnt)``: the staged
        appends cover every deposit since the last call, and an index
        leaves the set only here, once its buffer count is zero.  Keeping
        the set sorted makes the candidate order — and therefore
        arbitration, staging, and ejection order — identical to the full
        scan it replaces.
        """
        if self._occ_dense:
            occ = np.flatnonzero(self._buf_cnt)
            if occ.size * 8 < self._in_occ.size:
                # Leaving dense mode: deposits skipped membership while
                # it was set, so rebuild it before incremental staging
                # resumes.
                self._in_occ[:] = False
                self._in_occ[occ] = True
                self._occ_dense = False
            self._occ = occ
            return occ
        occ = self._occ
        new, new_scalar = self._occ_new, self._occ_new_scalar
        staged = len(new_scalar)
        for arr in new:
            staged += len(arr)
        # Above ~1/8 mesh occupancy a full contiguous rescan beats the
        # fancy-index merge (sort + insert reallocates O(occupied) every
        # cycle); the incremental path is for the sparse regime it
        # exists to serve.  Entering dense mode also turns off the
        # per-deposit membership bookkeeping until occupancy falls back.
        if (occ.size + staged) * 8 >= self._in_occ.size:
            new.clear()
            new_scalar.clear()
            occ = np.flatnonzero(self._buf_cnt)
            self._occ_dense = True
            self._occ = occ
            return occ
        if staged:
            if new_scalar:
                new.append(np.array(new_scalar, np.int64))
                new_scalar.clear()
            add = new[0] if len(new) == 1 else np.concatenate(new)
            new.clear()
            add.sort()
            occ = np.insert(occ, np.searchsorted(occ, add), add)
        if occ.size:
            live = self._buf_cnt[occ] > 0
            if not live.all():
                self._in_occ[occ[~live]] = False
                occ = occ[live]
        self._occ = occ
        return occ

    def occupied_lanes(self):
        """The exact occupied (router, port, vc) index set, sorted."""
        return self._compact_occupied()

    def _mesh_step(self, cycle: int):
        cand = self._compact_occupied()
        self._occ_hist.add(cand.size)
        if cand.size <= SPARSE_THRESHOLD:
            return self._mesh_step_sparse(cycle, cand)
        return self._mesh_step_batched(cycle, cand)

    def _mesh_step_batched(self, cycle: int, cand):
        """Bulk numpy mesh step for occupancies above the threshold."""
        ports, vcs, depth = self._P, self._V, self._D
        route = self._in_route[cand]

        # Route computation for fresh heads (the object router memoizes
        # per destination; here it is one table gather).  Only the flits
        # that arrived since last cycle are unrouted.
        unrouted = route < 0
        if unrouted.any():
            fresh = cand[unrouted]
            pkt_n = self._buf_pkt[fresh * depth + self._buf_head[fresh]]
            same = self._layer_of[fresh] == self._pkt_dest_z[pkt_n]
            target = np.where(
                same, self._pkt_dest_xy[pkt_n], self._pkt_pillar_xy[pkt_n]
            )
            port_pick = self._route2d[self._xy_of[fresh], target]
            port_pick = np.where(
                ~same & (port_pick == _LOCAL), _VERTICAL, port_pick
            )
            self._in_route[fresh] = port_pick
            cross = ~same
            self._in_cross[fresh] = cross
            self._in_outrp[fresh] = self._rp_base[fresh] + port_pick
            self._in_key[fresh] = (
                self._keybase[fresh] + cross * self._cross_term
            )
            route[unrouted] = port_pick

        # Eligibility before any flit gathers: a buffer front is a head
        # iff its VC holds no output-VC allocation, so occupancy, route,
        # and the credit/busy arrays decide everything.  At saturation
        # this drops thousands of blocked VCs before the expensive part.
        # Fresh heads get their output VC straight from the precomputed
        # first-free table (class-windowed, rotated by input VC); the
        # lookup result doubles as the eligibility bit (pick >= 0).
        out_vc = self._in_outvc[cand]
        has_vc = out_vc >= 0
        out_rp = self._in_outrp[cand]
        # Free-VC bitmasks: gather per candidate output port when sparse
        # (occupancy-proportional), build the full-mesh mask with cheap
        # contiguous ops when the mesh is loaded — the (cand, vcs) fancy
        # gather overtakes the flat build past ~1/8 occupancy (the same
        # crossover as dense mode, measured on 4k-lane meshes).
        if cand.size * 8 >= self._in_occ.size:
            free = (~self._out_busy) & (self._out_credits > 0)
            bits = (free.view(np.uint8).reshape(-1, vcs) @ self._vc_bits)[
                out_rp
            ]
        else:
            vc_cols = out_rp[:, None] * vcs + self._vc_iota
            free = (~self._out_busy[vc_cols]) & (
                self._out_credits[vc_cols] > 0
            )
            bits = free.view(np.uint8) @ self._vc_bits
        pick = self._vc_pick[self._in_key[cand] + bits]
        # out_vc is -1 on fresh heads; the wrapped gather lands on a live
        # counter whose value is discarded by the ``where`` mask.
        eligible = np.where(
            has_vc,
            self._out_credits[out_rp * vcs + out_vc] > 0,
            pick >= 0,
        )
        sel = np.flatnonzero(eligible)
        if sel.size == 0:
            self._lanes_hist.add(0)
            if self._tracer.enabled:
                self._tracer.vector_occupancy(
                    cycle, self._trace_track, cand.size, 0
                )
            return None

        # Arbitration carries flat buffer indices only; per-flit state is
        # regathered for the (small) winner set afterwards.  Priority:
        # the port order rotates with the cycle, VCs keep fixed ascending
        # priority within a port — mirroring the object router's rotated
        # input-port scan (whose rotation runs over per-router port
        # insertion order instead; see DESIGN.md for why the two are
        # distribution-level equivalent).
        flat = cand[sel]
        out_rp = out_rp[sel]
        pick = pick[sel]
        prio = self._prio_table[(cycle + 1) % ports][flat]
        # Stage 1: one winner per output port (the switch).
        scratch = self._scratch
        scratch[out_rp] = _PRIO_MAX
        np.minimum.at(scratch, out_rp, prio)
        keep = scratch[out_rp] == prio
        flat, prio, pick = flat[keep], prio[keep], pick[keep]
        # Stage 2: one flit per input port per cycle.
        in_rp = self._in_rp_of[flat]
        scratch[in_rp] = _PRIO_MAX
        np.minimum.at(scratch, in_rp, prio)
        keep = scratch[in_rp] == prio
        win = flat[keep]
        pick = pick[keep]
        count = win.size
        self._lanes_hist.add(count)
        if self._tracer.enabled:
            self._tracer.vector_occupancy(
                cycle, self._trace_track, cand.size, count
            )

        # Winners only from here on: gather the actual flits.  The table
        # pick carried through arbitration is each fresh head's allocated
        # output VC (stage 1 guarantees one winner per output port, so no
        # two fresh heads claim the same VC).
        cand = win
        route = self._in_route[win]
        out_vc = self._in_outvc[win]
        has_vc = out_vc >= 0
        router = self._router_of[win]
        in_vc = self._in_vc_of[win]
        out_rp = self._in_outrp[win]
        head = self._buf_head[win]
        slot = win * depth + head
        pkt = self._buf_pkt[slot]
        seq = self._buf_seq[slot]
        out_vc = np.where(has_vc, out_vc, pick)

        # Commit: pop from input rings, spend credit, toggle VC-busy.
        self._buf_head[cand] = (head + 1) % depth
        self._buf_cnt[cand] -= 1
        self._total_buffered -= count
        self.flits_forwarded += count
        is_tail = seq == self._pkt_last[pkt]
        is_head = seq == 0
        out_fv = out_rp * vcs + out_vc
        self._out_credits[out_fv] -= 1
        toggled = is_head | is_tail
        if toggled.any():
            self._out_busy[out_fv[toggled]] = (is_head & ~is_tail)[toggled]
        self._in_outvc[cand] = np.where(is_tail, -1, out_vc)
        if is_tail.any():
            self._in_route[cand[is_tail]] = -1

        # Stage the freed-slot credit back to whatever feeds this input
        # (the return index per buffer is topology, precomputed).
        ret_kind = self._ret_kind[win]
        ret_idx = self._ret_idx[win]
        mesh_in = ret_kind == 0
        if mesh_in.any():
            self._stage_out.append(ret_idx[mesh_in])
        nic_in = ret_kind == 1
        if nic_in.any():
            self._stage_nic.append(ret_idx[nic_in])
        for i in np.flatnonzero(ret_kind == 2):
            pillar, layer = self._pillar_at[int(router[i])]
            self._stage_rx.append((pillar, layer, int(in_vc[i])))

        # Dispatch by output port kind.
        local_out = route == _LOCAL
        vert_out = route == _VERTICAL
        mesh_out = ~(local_out | vert_out)
        batch = None
        if mesh_out.any():
            flat_in = self._dest_in_base[out_rp[mesh_out]] + out_vc[mesh_out]
            if self._stage_depth == 0:
                self._deposit(flat_in, pkt[mesh_out], seq[mesh_out])
            else:
                batch = (flat_in, pkt[mesh_out], seq[mesh_out])
        for i in np.flatnonzero(vert_out):
            pillar, layer = self._pillar_at[int(router[i])]
            pillar.tx_push(layer, int(out_vc[i]), int(pkt[i]), int(seq[i]))
        done = pkt[local_out & is_tail]
        if done.size:
            self._finish_batch(done, cycle)
        return batch

    def _mesh_step_sparse(self, cycle: int, cand):
        """Per-flit mesh step for occupancies at or below the threshold.

        Scalar Python over the handful of occupied lanes beats the fixed
        overhead of the batched array pipeline.  Outcomes are identical
        to the batched path: arbitration priorities are unique within
        every output-port and input-port group (distinct (port, vc) of
        one router), so the dict-min selections below reproduce the
        ``np.minimum.at`` winners exactly, and winners commit in
        ascending flat order — the batched commit order.
        """
        ports, vcs, depth = self._P, self._V, self._D
        in_route = self._in_route
        out_credits = self._out_credits
        offset = (cycle + 1) % ports
        by_out: dict = {}
        for flat in cand.tolist():
            route = int(in_route[flat])
            if route < 0:
                head = int(self._buf_head[flat])
                pkt = int(self._buf_pkt[flat * depth + head])
                same = int(self._layer_of[flat]) == int(self._pkt_dest_z[pkt])
                target = (
                    int(self._pkt_dest_xy[pkt])
                    if same
                    else int(self._pkt_pillar_xy[pkt])
                )
                route = int(self._route2d[self._xy_of[flat], target])
                if not same and route == _LOCAL:
                    route = _VERTICAL
                in_route[flat] = route
                self._in_cross[flat] = not same
                self._in_outrp[flat] = int(self._rp_base[flat]) + route
                self._in_key[flat] = int(self._keybase[flat]) + (
                    0 if same else self._cross_term
                )
            out_rp = int(self._in_outrp[flat])
            out_vc = int(self._in_outvc[flat])
            if out_vc >= 0:
                if int(out_credits[out_rp * vcs + out_vc]) <= 0:
                    continue
            else:
                mask = 0
                base = out_rp * vcs
                for vc in range(vcs):
                    if (
                        not self._out_busy[base + vc]
                        and out_credits[base + vc] > 0
                    ):
                        mask |= 1 << vc
                out_vc = int(self._vc_pick[int(self._in_key[flat]) + mask])
                if out_vc < 0:
                    continue
            in_port = (flat // vcs) % ports
            prio = ((in_port + offset) % ports) * vcs + flat % vcs
            best = by_out.get(out_rp)
            if best is None or prio < best[0]:
                by_out[out_rp] = (prio, flat, out_vc)
        if not by_out:
            self._lanes_hist.add(0)
            if self._tracer.enabled:
                self._tracer.vector_occupancy(
                    cycle, self._trace_track, cand.size, 0
                )
            return None
        by_in: dict = {}
        for prio, flat, out_vc in by_out.values():
            in_rp = flat // vcs
            best = by_in.get(in_rp)
            if best is None or prio < best[0]:
                by_in[in_rp] = (prio, flat, out_vc)
        winners = sorted(
            (flat, out_vc) for __, flat, out_vc in by_in.values()
        )
        self._lanes_hist.add(len(winners))
        if self._tracer.enabled:
            self._tracer.vector_occupancy(
                cycle, self._trace_track, cand.size, len(winners)
            )
        batch_in: list[int] = []
        batch_pkt: list[int] = []
        batch_seq: list[int] = []
        for flat, out_vc in winners:
            head = int(self._buf_head[flat])
            slot = flat * depth + head
            pkt = int(self._buf_pkt[slot])
            seq = int(self._buf_seq[slot])
            route = int(in_route[flat])
            out_rp = int(self._in_outrp[flat])
            self._buf_head[flat] = (head + 1) % depth
            self._buf_cnt[flat] -= 1
            self._total_buffered -= 1
            self.flits_forwarded += 1
            is_tail = seq == int(self._pkt_last[pkt])
            is_head = seq == 0
            out_fv = out_rp * vcs + out_vc
            out_credits[out_fv] -= 1
            if is_head or is_tail:
                self._out_busy[out_fv] = is_head and not is_tail
            self._in_outvc[flat] = -1 if is_tail else out_vc
            if is_tail:
                in_route[flat] = -1
            kind = int(self._ret_kind[flat])
            if kind == 0:
                self._stage_out_scalar.append(int(self._ret_idx[flat]))
            elif kind == 1:
                self._stage_nic.append(int(self._ret_idx[flat]))
            else:
                pillar, layer = self._pillar_at[flat // self._PV]
                self._stage_rx.append((pillar, layer, flat % vcs))
            if route == _LOCAL:
                if is_tail:
                    self._finish(pkt, cycle)
            elif route == _VERTICAL:
                pillar, layer = self._pillar_at[flat // self._PV]
                pillar.tx_push(layer, out_vc, pkt, seq)
            else:
                flat_in = int(self._dest_in_base[out_rp]) + out_vc
                if self._stage_depth == 0:
                    self._deposit_one(flat_in, pkt, seq)
                else:
                    batch_in.append(flat_in)
                    batch_pkt.append(pkt)
                    batch_seq.append(seq)
        if batch_in:
            return (
                np.array(batch_in, np.int64),
                np.array(batch_pkt, np.int64),
                np.array(batch_seq, np.int64),
            )
        return None

    def _nic_step(self, cycle: int) -> None:
        # Compact the active-NIC set (same lazy scheme as the occupied
        # set): fold in routers that received injections, drop routers
        # with nothing queued and nothing mid-flight.
        if self._nic_dense:
            act = np.flatnonzero(
                (self._queue_len > 0) | (self._inj_pkt >= 0)
            )
            if act.size * 8 < self._nic_in_act.size:
                self._nic_in_act[:] = False
                self._nic_in_act[act] = True
                self._nic_dense = False
            self._nic_act = act
        elif (
            (self._nic_act.size + len(self._nic_act_new)) * 8
            >= self._nic_in_act.size
        ):
            # Loaded regime: a full rescan is two contiguous masks, and
            # dense mode turns off per-injection membership bookkeeping
            # until the active set shrinks back.
            self._nic_act_new.clear()
            act = np.flatnonzero(
                (self._queue_len > 0) | (self._inj_pkt >= 0)
            )
            self._nic_dense = True
            self._nic_act = act
        else:
            act = self._nic_act
            new = self._nic_act_new
            if new:
                add = np.array(new, np.int64)
                new.clear()
                add.sort()
                act = np.insert(act, np.searchsorted(act, add), add)
            if act.size:
                live = (self._queue_len[act] > 0) | (self._inj_pkt[act] >= 0)
                if not live.all():
                    self._nic_in_act[act[~live]] = False
                    act = act[live]
            self._nic_act = act
        if act.size == 0:
            return
        if act.size <= SPARSE_THRESHOLD:
            self._nic_step_sparse(cycle, act)
        else:
            self._nic_step_batched(cycle, act)

    def _nic_step_batched(self, cycle: int, act) -> None:
        """Bulk numpy NIC phases for more active routers than the threshold."""
        # Phase A: idle NICs with queued packets try to acquire an output
        # VC (first free in ascending order, the object free_vc()).
        acquire = act[(self._inj_pkt[act] < 0) & (self._queue_len[act] > 0)]
        if acquire.size:
            free = (~self._nic_busy[acquire]) & (
                self._nic_credits_2d[acquire] > 0
            )
            first = free.argmax(1)
            # argmax is 0 on an all-False row, so "the first free VC is
            # actually free" is exactly "the row has any free VC".
            starts = np.flatnonzero(free.any(1))
            queues = self._inj_queues
            lookup = self._pkt_obj.get if self._pkt_obj else None
            for k in starts.tolist():
                router = int(acquire[k])
                pkt_index = queues[router].popleft()
                self._queue_len[router] -= 1
                self._inj_pkt[router] = pkt_index
                self._inj_seq[router] = 0
                self._inj_vc[router] = first[k]
                if lookup is not None:
                    packet = lookup(pkt_index)
                    if packet is not None:
                        packet.injected_cycle = cycle
            if starts.size:
                self._injected.increment(starts.size)
        # Phase B: every mid-injection NIC sends one flit if it has a
        # credit on its acquired VC.
        active = act[self._inj_pkt[act] >= 0]
        if active.size == 0:
            return
        vc = self._inj_vc[active]
        nidx = active * self._V + vc
        can = self._nic_credits[nidx] > 0
        sender = active[can]
        if sender.size == 0:
            return
        vc = vc[can]
        nidx = nidx[can]
        pkt = self._inj_pkt[sender]
        seq = self._inj_seq[sender]
        flat_in = sender * self._PV + (_LOCAL * self._V) + vc
        self._deposit(flat_in, pkt, seq)
        self._nic_credits[nidx] -= 1
        is_head = seq == 0
        is_tail = seq == self._pkt_last[pkt]
        toggled = is_head | is_tail
        if toggled.any():
            self._nic_busy_flat[nidx[toggled]] = (is_head & ~is_tail)[toggled]
        self._inj_seq[sender] += 1
        done = np.flatnonzero(is_tail)
        if done.size:
            self._inj_pkt[sender[done]] = -1
            self._inj_pending -= done.size

    def _nic_step_sparse(self, cycle: int, act) -> None:
        """Scalar NIC phases for a handful of active routers.

        Per-router state is independent, so fusing phase A (VC
        acquisition) and phase B (send one flit) into one pass per router
        is exactly the batched two-phase result — the batched phase B
        already sees phase A's acquisitions in the same cycle.
        """
        vcs = self._V
        credits = self._nic_credits
        busy = self._nic_busy_flat
        for router in act.tolist():
            if self._inj_pkt[router] < 0:
                if self._queue_len[router] <= 0:
                    continue
                row = router * vcs
                for vc in range(vcs):
                    if not busy[row + vc] and credits[row + vc] > 0:
                        pkt_index = self._inj_queues[router].popleft()
                        self._queue_len[router] -= 1
                        self._inj_pkt[router] = pkt_index
                        self._inj_seq[router] = 0
                        self._inj_vc[router] = vc
                        self._injected.increment()
                        if self._pkt_obj:
                            packet = self._pkt_obj.get(pkt_index)
                            if packet is not None:
                                packet.injected_cycle = cycle
                        break
                else:
                    continue
            pkt = int(self._inj_pkt[router])
            vc = int(self._inj_vc[router])
            nidx = router * vcs + vc
            if credits[nidx] <= 0:
                continue
            seq = int(self._inj_seq[router])
            self._deposit_one(router * self._PV + _LOCAL * vcs + vc, pkt, seq)
            credits[nidx] -= 1
            is_head = seq == 0
            is_tail = seq == int(self._pkt_last[pkt])
            if is_head or is_tail:
                busy[nidx] = is_head and not is_tail
            self._inj_seq[router] = seq + 1
            if is_tail:
                self._inj_pkt[router] = -1
                self._inj_pending -= 1

    # -- buffer deposits ------------------------------------------------------

    def _deposit(self, flat_in, pkts, seqs) -> None:
        occupied = self._buf_cnt[flat_in]
        slot = flat_in * self._D + (self._buf_head[flat_in] + occupied) % self._D
        self._buf_pkt[slot] = pkts
        self._buf_seq[slot] = seqs
        self._buf_cnt[flat_in] = occupied + 1
        self._total_buffered += len(pkts)
        if self._occ_dense:
            return
        fresh = flat_in[~self._in_occ[flat_in]]
        if fresh.size:
            self._in_occ[fresh] = True
            self._occ_new.append(fresh)

    def _deposit_one(self, flat_in: int, pkt: int, seq: int) -> None:
        occupied = int(self._buf_cnt[flat_in])
        slot = flat_in * self._D + (
            int(self._buf_head[flat_in]) + occupied
        ) % self._D
        self._buf_pkt[slot] = pkt
        self._buf_seq[slot] = seq
        self._buf_cnt[flat_in] = occupied + 1
        self._total_buffered += 1
        if self._occ_dense:
            return
        if not self._in_occ[flat_in]:
            self._in_occ[flat_in] = True
            self._occ_new_scalar.append(flat_in)

    def _finish(self, pkt_index: int, cycle: int) -> None:
        self._pkt_done[pkt_index] = True
        self._done_count += 1
        self._inflight_created_sum -= int(self._pkt_created[pkt_index])
        self._received.increment()
        packet = self._pkt_obj.pop(pkt_index, None)
        if packet is not None:
            packet.ejected_cycle = cycle
            self._latency_hist.add(packet.latency)
            self._on_packet(packet)
        else:
            self._latency_hist.add(cycle - int(self._pkt_created[pkt_index]))
            self.network._on_packet_light()

    def _finish_batch(self, pkts, cycle: int) -> None:
        """Tail-flit ejections for a whole cycle in one pass.

        Equivalent to ``_finish`` per packet; the fast path (no Packet
        objects outstanding, the batched-injection regime) avoids the
        per-packet dict probe and callback plumbing.
        """
        created = self._pkt_created[pkts]
        self._pkt_done[pkts] = True
        self._done_count += pkts.size
        self._inflight_created_sum -= int(created.sum())
        self._received.increment(pkts.size)
        add = self._latency_hist.add
        if self._pkt_obj:
            pop = self._pkt_obj.pop
            for p, c in zip(pkts.tolist(), created.tolist()):
                packet = pop(p, None)
                if packet is not None:
                    packet.ejected_cycle = cycle
                    add(packet.latency)
                    self._on_packet(packet)
                else:
                    add(cycle - c)
                    self.network._on_packet_light()
        else:
            for c in created.tolist():
                add(cycle - c)
            self.network._on_packet_light_batch(pkts.size)

    def in_flight_ages(self) -> dict:
        """Age summary over every injected-but-undelivered packet."""
        now = self.engine.cycle
        count = self._pkt_n - self._done_count
        if count == 0:
            return {"count": 0, "mean_age": 0.0, "max_age": 0}
        oldest = self._oldest_alive
        done = self._pkt_done
        while done[oldest]:
            oldest += 1
        self._oldest_alive = oldest
        mean = (now * count - self._inflight_created_sum) / count
        return {
            "count": count,
            "mean_age": mean,
            "max_age": now - int(self._pkt_created[oldest]),
        }

    # -- introspection --------------------------------------------------------

    @property
    def buffered_flits(self) -> int:
        """Flits currently held in input buffers across the whole mesh."""
        return self._total_buffered

    def check_invariants(self) -> list[str]:
        """Verify credit conservation on every link; return violations.

        For each producer/consumer pair the sum of (available credits +
        occupied downstream slots + flits in flight on the link + credits
        staged for return) must equal the buffer depth at all times.
        Used by the unit tests; O(routers × ports × vcs), not called on
        the hot path.
        """
        ports, vcs, depth = self._P, self._V, self._D
        staged_out = np.zeros_like(self._out_credits)
        for indexes in self._stage_out:
            np.add.at(staged_out, np.asarray(indexes, np.int64), 1)
        if self._stage_out_scalar:
            np.add.at(
                staged_out, np.asarray(self._stage_out_scalar, np.int64), 1
            )
        staged_nic = np.zeros_like(self._nic_credits)
        for indexes in self._stage_nic:
            np.add.at(staged_nic, np.asarray(indexes, np.int64), 1)
        in_flight = np.zeros_like(self._buf_cnt)
        for batch in self._link_stage:
            if batch is not None:
                np.add.at(in_flight, batch[0], 1)
        errors: list[str] = []
        mesh_ports = [
            PORT_INDEX[p]
            for p in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)
        ]
        for router in range(self._R):
            for port in mesh_ports:
                dest = int(self._link_dest[router, port])
                if dest < 0:
                    continue
                down_port = int(self._opposite[port])
                for vc in range(vcs):
                    out = (router * ports + port) * vcs + vc
                    down = (dest * ports + down_port) * vcs + vc
                    total = (
                        int(self._out_credits[out])
                        + int(self._buf_cnt[down])
                        + int(in_flight[down])
                        + int(staged_out[out])
                    )
                    if total != depth:
                        errors.append(
                            f"mesh link r{router} p{port} vc{vc}: {total}"
                        )
        for router in range(self._R):
            for vc in range(vcs):
                local_in = (router * ports + _LOCAL) * vcs + vc
                nic = router * vcs + vc
                total = (
                    int(self._nic_credits[nic])
                    + int(self._buf_cnt[local_in])
                    + int(staged_nic[nic])
                )
                if total != depth:
                    errors.append(f"nic link r{router} vc{vc}: {total}")
        staged_rx: dict[tuple[int, int, int], int] = {}
        for pillar, layer, vc in self._stage_rx:
            key = (id(pillar), layer, vc)
            staged_rx[key] = staged_rx.get(key, 0) + 1
        for pillar in self._pillars:
            for z, router in enumerate(pillar.routers):
                for vc in range(vcs):
                    out = (router * ports + _VERTICAL) * vcs + vc
                    total = (
                        int(self._out_credits[out])
                        + len(pillar.txq[z][vc])
                        + int(staged_out[out])
                    )
                    if total != depth:
                        errors.append(
                            f"pillar tx {pillar.xy} z{z} vc{vc}: {total}"
                        )
                    vert_in = (router * ports + _VERTICAL) * vcs + vc
                    total = (
                        pillar.rx_credits[z][vc]
                        + int(self._buf_cnt[vert_in])
                        + staged_rx.get((id(pillar), z, vc), 0)
                    )
                    if total != depth:
                        errors.append(
                            f"pillar rx {pillar.xy} z{z} vc{vc}: {total}"
                        )
        return errors

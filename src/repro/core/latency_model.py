"""Contention-aware analytic network latency model.

Flit-level simulation of the paper's multi-billion-cycle runs is infeasible
in Python, so the system-level simulator (``mode="model"``) prices each
packet with this model instead of injecting flits.  The model mirrors the
cycle-accurate fabric's zero-load behaviour exactly and approximates
contention with M/D/1-style queueing terms driven by online load estimates:

* **zero-load**: :data:`HOP_CYCLES` per mesh hop, one single-stage
  router cycle plus one wire cycle, as in the cycle simulator; a fixed
  injection/ejection overhead, wormhole serialization of ``size - 1``
  flits, and :data:`BUS_OVERHEAD` extra cycles for a vertical bus
  crossing (transceiver + bus slot).
* **mesh contention**: per-hop queueing wait of
  ``Q_MESH * rho / (1 - rho)`` where ``rho`` is the estimated flit-hop
  utilization of the mesh.
* **pillar contention**: the bus serves one flit per cycle shared by all
  active clients; at utilization ``rho_b`` the head flit waits
  ``Q_BUS * rho_b / (1 - rho_b)`` and serialization across the bus
  stretches by ``1 / (1 - rho_b)``.

The eight calibration values are the module constants below.  The
q-weights are calibrated against the cycle-accurate simulator
(``tests/integration/test_model_calibration.py``), and
``tests/unit/test_params.py`` asserts the bounds the round kernels
rely on.

Every figure is priced through :meth:`LatencyModel.packet_latency` and
:meth:`LatencyModel.note_packet`, one packet at a time, and through
:meth:`LatencyModel.query_round` and :meth:`LatencyModel.multicast`, one
search round at a time.  All four look a packet's path up in a
``(src, dest)`` memo and age the load estimates only when the cycle has
advanced.  ``packet_latency`` with ``record`` adds the packet's load
itself.  A round's table, compiled once per ``(src, targets, flits)``,
marks the (query, reply) pairs that can set the round's worst.  A pair
that a later pair dominates leg by leg (at least as many hops, and the
same pillar or none crossed) cannot: loads only grow along a round, and
within the bounds the constants keep, a leg's latency never falls as
its hops or the load grow.  ``query_round`` prices the marked pairs
with the float operations of ``packet_latency`` in the same order.
Every other packet, and every query of a multicast, adds its load one
packet at a time in packet order, as ``note_packet`` would.  So no
simulated number depends on which of them priced or recorded a packet.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, TYPE_CHECKING

from repro.noc.routing import Coord, best_pillar
from repro.core.chip import ChipTopology

if TYPE_CHECKING:
    from repro.faults.state import FaultState

#: A packet's path: (mesh hops, pillar crossed or None).
Path = tuple[int, Optional[tuple[int, int]]]

#: A memoized path: (mesh hops, number of the pillar crossed or None).
#: A pillar's number is its index in ``ChipTopology.pillar_xys``.
Route = tuple[int, Optional[int]]

#: A packet that ``query_round`` prices: (mesh hops, pillar number or
#: None, flit_hops * 0.693 / window).
Leg = tuple[int, Optional[int], float]

#: Packets recorded without being priced, in packet order: their mesh
#: loads, the numbers of the pillars they cross (one entry per packet),
#: and their flit-hops and pillar flits, each summed.
Run = tuple[tuple[float, ...], tuple[int, ...], int, int]

#: One step of a search round: the mesh loads and pillar numbers of the
#: pairs before it that cannot set the round's worst, in packet order,
#: then a (query, reply) pair that can.
Step = tuple[tuple[float, ...], tuple[int, ...], tuple[Leg, Leg]]


class RoundTable(NamedTuple):
    """A round of tag queries, compiled for both kernels.

    A target equal to the requester gets no pair.  ``steps`` cover every
    other target's (query, reply) pair in target order, and the last pair
    always ends a step.
    """

    steps: tuple[Step, ...]
    flit_hops: int       # of every query and reply, summed
    bus_flits: int       # pillar flits of every query and reply, summed
    queries: Run         # the queries alone, as a multicast records them
    bus_load: float      # flits * 0.693 / window: one pillar packet's load


#: Cycles per mesh hop: one single-stage router cycle plus one wire cycle.
HOP_CYCLES = 2.0
#: NIC injection plus ejection, measured on the fabric.
INJECTION_OVERHEAD = 1.0
#: Transceiver hand-off plus bus slot grant of a pillar crossing.
BUS_OVERHEAD = 2.0
#: Mesh queueing weight (calibrated).
Q_MESH = 0.7
#: Bus queueing weight (calibrated).
Q_BUS = 1.0
#: Saturation throughput of the mesh, in flits per node per cycle.
MESH_CAPACITY_FACTOR = 0.40
#: Cycles of memory of the load estimates: their half-life.
LOAD_WINDOW = 2048.0
#: Utilization clamp that keeps the queueing waits finite.
MAX_UTILIZATION = 0.95


def _dominates(later: tuple[Leg, Leg], pair: tuple[Leg, Leg]) -> bool:
    """Whether a ``later`` pair of a round totals at least ``pair``.

    Leg by leg, ``later`` must have at least as many hops and cross the
    same pillar, unless ``pair``'s leg crosses none.  Along a round the
    mesh rate and every pillar's rate only grow; a leg's latency never
    falls as its hops or those rates grow, and crossing a pillar only
    adds to it.  So ``later`` totals at least as much under any load.
    """
    return all(
        hops <= later_hops and (number is None or number == later_number)
        for (hops, number, __), (later_hops, later_number, __)
        in zip(pair, later)
    )


def _run(legs: list[Leg], flits: int) -> Run:
    """The loads of ``legs``, to be recorded unpriced in their order."""
    pillars = tuple(number for __, number, __ in legs if number is not None)
    return (
        tuple(mesh_load for __, __, mesh_load in legs),
        pillars,
        sum(hops for hops, __, __ in legs) * flits,
        len(pillars) * flits,
    )


class LatencyModel:
    """Prices packets on the Network-in-Memory fabric.

    The model is stateful: callers report every packet they send via
    :meth:`note_packet` so utilization estimates track the offered load.
    """

    def __init__(self, topology: ChipTopology):
        self.topology = topology
        width, height = topology.config.mesh_dims
        num_nodes = width * height * topology.config.num_layers
        # Read once per call by the pricing paths, in this order.
        self._constants = (
            num_nodes * MESH_CAPACITY_FACTOR,  # mesh capacity
            MAX_UTILIZATION,
            INJECTION_OVERHEAD,
            HOP_CYCLES,
            Q_MESH,
            Q_BUS,
            BUS_OVERHEAD,
        )
        self._window = LOAD_WINDOW
        # Load accounting: decaying rates, advanced lazily per report.
        self._last_cycle = 0.0
        self._mesh_rate = 0.0                     # flit-hops per cycle
        self._pillar_xys = tuple(topology.pillar_xys)
        self._pillar_numbers = {
            xy: number for number, xy in enumerate(self._pillar_xys)
        }
        # Flits per cycle on each pillar, indexed by pillar number.
        self._bus_rate = [0.0] * len(self._pillar_xys)
        # The run's traffic for RunStats (cycle mode's fabric adds to it).
        self.flit_hops_total = 0.0
        self.bus_flits_total = 0.0
        # (src, dest) -> (hops, pillar number or None), filled by path().
        # A path depends only on the alive pillars, so every fault change
        # rebuilds the alive tuple and clears the memo (no fault state =
        # fault-free).
        self._paths: dict[tuple[Coord, Coord], Route] = {}
        # (src, targets, flits) -> RoundTable, compiled from the path
        # memo by _compile_round() and cleared with it.
        self._rounds: dict[tuple[Coord, tuple[Coord, ...], int], RoundTable] = {}
        self._faults: Optional["FaultState"] = None
        self._alive_pillars = self._pillar_xys

    def attach_fault_state(self, state: "FaultState") -> None:
        """Bind pillar-fault state; dead pillars leave the route pool."""
        self._faults = state
        self._on_fault_change()
        state.add_listener(self._on_fault_change)

    def _on_fault_change(self, *__) -> None:
        """Re-derive the alive pillars; forget every path and round table."""
        dead = self._faults.dead_pillars
        self._alive_pillars = tuple(
            xy for xy in self._pillar_xys if xy not in dead
        )
        self._paths.clear()
        self._rounds.clear()

    # -- geometry -------------------------------------------------------------

    def path(self, src: Coord, dest: Coord) -> Path:
        """(mesh hops, pillar used or None) for the dimension-order path.

        Memoized per ``(src, dest)`` until the next fault change.  A miss
        on a cross-layer pair asks :func:`best_pillar`, the only tie-break
        rule, and so still raises ``ValueError`` when no pillar is alive.
        """
        found = self._paths.get((src, dest))
        if found is None:
            if src.z == dest.z:
                found = (src.manhattan_2d(dest), None)
            else:
                pillar = best_pillar(src, dest, self._alive_pillars)
                px, py = pillar
                hops = (
                    abs(src.x - px) + abs(src.y - py)
                    + abs(dest.x - px) + abs(dest.y - py)
                )
                found = (hops, self._pillar_numbers[pillar])
            self._paths[src, dest] = found
        hops, number = found
        return hops, None if number is None else self._pillar_xys[number]

    def _route(self, src: Coord, dest: Coord) -> Route:
        """The memoized route of a pair the memo misses; path() fills it."""
        self.path(src, dest)
        return self._paths[src, dest]

    def _compile_round(
        self, src: Coord, targets: tuple[Coord, ...], flits: int
    ) -> RoundTable:
        """Compile and store the table of a round of tag queries.

        The kernels read the table under ``(src, targets, flits)`` until
        the next fault change.  A pair ends a step, and is priced, unless
        a later pair dominates it (:func:`_dominates`).  The paths come
        from the path memo, so with every pillar dead a cross-layer
        target raises ``ValueError`` and nothing is stored.
        """
        if flits < 1:
            raise ValueError(f"a packet is at least 1 flit, got {flits!r}")
        paths = self._paths
        window = self._window

        def leg(a: Coord, b: Coord) -> Leg:
            hops, number = paths.get((a, b)) or self._route(a, b)
            flit_hops = hops * flits
            return hops, number, flit_hops * 0.693 / window

        pairs = [
            (leg(src, target), leg(target, src))
            for target in targets
            if target != src
        ]
        steps = []
        unpriced: list[Leg] = []
        for j, pair in enumerate(pairs):
            if any(_dominates(later, pair) for later in pairs[j + 1:]):
                unpriced += pair
            else:
                mesh_loads, pillars, __, __ = _run(unpriced, flits)
                steps.append((mesh_loads, pillars, pair))
                unpriced = []
        __, __, flit_hops, bus_flits = _run(
            [leg for pair in pairs for leg in pair], flits
        )
        table = self._rounds[src, targets, flits] = RoundTable(
            tuple(steps),
            flit_hops,
            bus_flits,
            _run([query for query, __ in pairs], flits),
            flits * 0.693 / window,
        )
        return table

    # -- load tracking ----------------------------------------------------------

    def _decay_to(self, cycle: float) -> None:
        """Exponentially age the rate estimates up to ``cycle``."""
        elapsed = cycle - self._last_cycle
        if elapsed <= 0:
            return
        decay = 0.5 ** (elapsed / self._window)
        self._mesh_rate *= decay
        # A comprehension costs a call even over no pillars.
        if self._bus_rate:
            self._bus_rate = [rate * decay for rate in self._bus_rate]
        self._last_cycle = cycle

    def note_packet(self, src: Coord, dest: Coord, size_flits: int, cycle: float) -> None:
        """Record a packet's traffic contribution for load estimation.

        The EMA update adds the packet's flit-hops amortized over the load
        window, so ``_mesh_rate`` approximates flit-hops per cycle.
        """
        if cycle > self._last_cycle:
            self._decay_to(cycle)
        hops, number = self._paths.get((src, dest)) or self._route(src, dest)
        flit_hops = hops * size_flits
        window = self._window
        # ln(2) factor makes the half-life equal to the window length.
        self._mesh_rate += flit_hops * 0.693 / window
        self.flit_hops_total += flit_hops
        if number is not None:
            self._bus_rate[number] += size_flits * 0.693 / window
            self.bus_flits_total += size_flits

    # -- latency ---------------------------------------------------------------

    def packet_latency(
        self,
        src: Coord,
        dest: Coord,
        size_flits: int,
        cycle: Optional[float] = None,
        record: bool = True,
    ) -> float:
        """End-to-end latency of one packet under the current load.

        The mesh utilization is the chip-wide flit-hop rate over the
        mesh's forwarding capacity and the bus utilization is the crossed
        pillar's flit rate, each clamped to :data:`MAX_UTILIZATION`.  With
        ``record`` and a ``cycle``, the packet's own load is then added
        exactly as :meth:`note_packet` would add it.
        """
        if src == dest:
            return 0.0
        hops, number = self._paths.get((src, dest)) or self._route(src, dest)
        if cycle is not None and cycle > self._last_cycle:
            self._decay_to(cycle)
        (capacity, ceiling, injection, hop_cycles, q_mesh, q_bus,
         bus_overhead) = self._constants
        rho = self._mesh_rate / capacity
        if rho > ceiling:
            rho = ceiling
        latency = injection + hops * (hop_cycles + q_mesh * rho / (1.0 - rho))
        serialization = float(size_flits - 1)
        if number is not None:
            rho_b = self._bus_rate[number]
            if rho_b > ceiling:
                rho_b = ceiling
            latency += bus_overhead
            latency += q_bus * rho_b / (1.0 - rho_b)
            serialization = serialization / (1.0 - rho_b)
        latency += serialization
        if record and cycle is not None:
            flit_hops = hops * size_flits
            window = self._window
            self._mesh_rate += flit_hops * 0.693 / window
            self.flit_hops_total += flit_hops
            if number is not None:
                self._bus_rate[number] += size_flits * 0.693 / window
                self.bus_flits_total += size_flits
        return latency

    # -- search rounds ----------------------------------------------------------

    def query_round(
        self,
        src: Coord,
        targets: tuple[Coord, ...],
        flits: int,
        tag: int,
        cycle: float,
    ) -> float:
        """The slowest ``out + tag + back`` of a round of tag queries.

        Returns exactly what pricing and recording each target's query
        and then its reply with :meth:`packet_latency` would; at least
        ``tag``, the requester's own tag probe.  A target equal to
        ``src`` costs nothing, and a round with no other target leaves
        the load untouched.
        """
        table = self._rounds.get((src, targets, flits))
        if table is None:
            table = self._compile_round(src, targets, flits)
        worst = probe = float(tag)
        steps, flit_hops, bus_flits, __, bus_load = table
        if not steps:
            return worst
        if cycle > self._last_cycle:
            self._decay_to(cycle)
        # Exact only while every weight is >= 0, every packet is at
        # least one flit and MAX_UTILIZATION < 1, as the constants test
        # asserts and _compile_round enforces: then no load added along
        # the round lowers a later packet's latency, so a pair that a
        # later pair dominates cannot set the worst.  Every packet still
        # adds its load, one add per packet in packet order.
        (capacity, ceiling, injection, hop_cycles, q_mesh, q_bus,
         bus_overhead) = self._constants
        serialization = float(flits - 1)
        bus_rate = self._bus_rate
        mesh_rate = self._mesh_rate
        for mesh_loads, pillars, pair in steps:
            for mesh_load in mesh_loads:
                mesh_rate += mesh_load
            for number in pillars:
                bus_rate[number] += bus_load
            # probe + out == out + probe, so the sum rounds as
            # out + tag + back does.
            total = probe
            for hops, number, mesh_load in pair:
                rho = mesh_rate / capacity
                if rho > ceiling:
                    rho = ceiling
                latency = injection + hops * (hop_cycles
                                              + q_mesh * rho / (1.0 - rho))
                if number is None:
                    latency += serialization
                else:
                    rate = bus_rate[number]
                    rho_b = ceiling if rate > ceiling else rate
                    latency += bus_overhead
                    latency += q_bus * rho_b / (1.0 - rho_b)
                    latency += serialization / (1.0 - rho_b)
                    bus_rate[number] = rate + bus_load
                mesh_rate += mesh_load
                total += latency
            if total > worst:
                worst = total
        self._mesh_rate = mesh_rate
        # Integer-valued floats far below 2**53: summed in any order.
        self.flit_hops_total += flit_hops
        self.bus_flits_total += bus_flits
        return worst

    def multicast(
        self,
        src: Coord,
        targets: tuple[Coord, ...],
        answer: Coord,
        flits: int,
        cycle: float,
    ) -> float:
        """Record a query to every target, then time the one to ``answer``.

        Each query is recorded exactly as :meth:`note_packet` would
        record it, so the answer, priced by :meth:`packet_latency`
        without recording, sees their load.  Any target, even ``src``,
        ages the load; an ``answer`` equal to ``src`` costs nothing.
        """
        table = self._rounds.get((src, targets, flits))
        if table is None:
            table = self._compile_round(src, targets, flits)
        if targets and cycle > self._last_cycle:
            self._decay_to(cycle)
        mesh_loads, pillars, flit_hops, bus_flits = table.queries
        if mesh_loads:
            mesh_rate = self._mesh_rate
            for mesh_load in mesh_loads:
                mesh_rate += mesh_load
            self._mesh_rate = mesh_rate
            bus_rate = self._bus_rate
            bus_load = table.bus_load
            for number in pillars:
                bus_rate[number] += bus_load
            self.flit_hops_total += flit_hops
            self.bus_flits_total += bus_flits
        if answer == src:
            return 0.0
        return self.packet_latency(src, answer, flits, cycle, record=False)

    def zero_load_latency(self, src: Coord, dest: Coord, size_flits: int) -> float:
        """Latency ignoring all contention (for tests and sanity checks)."""
        if src == dest:
            return 0.0
        hops, pillar = self.path(src, dest)
        latency = INJECTION_OVERHEAD + hops * HOP_CYCLES
        latency += size_flits - 1
        if pillar is not None:
            latency += BUS_OVERHEAD
        return latency

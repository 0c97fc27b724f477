"""Contention-aware analytic network latency model.

Flit-level simulation of the paper's multi-billion-cycle runs is infeasible
in Python, so the system-level simulator (``mode="model"``) prices each
packet with this model instead of injecting flits.  The model mirrors the
cycle-accurate fabric's zero-load behaviour exactly and approximates
contention with M/D/1-style queueing terms driven by online load estimates:

* **zero-load**: ``hop_cycles`` (2.0) per mesh hop, one single-stage
  router cycle plus one wire cycle, as in the cycle simulator; a fixed
  injection/ejection overhead, wormhole serialization of ``size - 1``
  flits, and two extra cycles for a vertical bus crossing (transceiver +
  bus slot).
* **mesh contention**: per-hop queueing wait of
  ``q_mesh * rho / (1 - rho)`` where ``rho`` is the estimated flit-hop
  utilization of the mesh.
* **pillar contention**: the bus serves one flit per cycle shared by all
  active clients; at utilization ``rho_b`` the head flit waits
  ``q_bus * rho_b / (1 - rho_b)`` and serialization across the bus
  stretches by ``1 / (1 - rho_b)``.

The q-constants are calibrated against the cycle-accurate simulator
(``tests/integration/test_model_calibration.py``).

Every figure is priced through :meth:`LatencyModel.packet_latency` and
:meth:`LatencyModel.note_packet`, one packet at a time, and through
:meth:`LatencyModel.query_round` and :meth:`LatencyModel.multicast`, one
search round at a time.  All four look a packet's path up in a
``(src, dest)`` memo and age the load estimates only when the cycle has
advanced.  ``packet_latency`` with ``record`` adds the packet's load
itself, and the two round kernels price and record each packet, with
the float operations of ``packet_latency`` and ``note_packet`` in the
same order, so no simulated number depends on which of them priced or
recorded it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.noc.routing import Coord, best_pillar
from repro.core.chip import ChipTopology

if TYPE_CHECKING:
    from repro.faults.state import FaultState

#: A packet's path: (mesh hops, pillar crossed or None).
Path = tuple[int, Optional[tuple[int, int]]]

#: One packet of a compiled search round: (mesh hops, pillar or None,
#: flit-hops, flit_hops * 0.693 / window, flits * 0.693 / window).
Route = tuple[int, Optional[tuple[int, int]], int, float, float]

#: A search round's (query, reply) routes, one pair per target that is
#: not the requester itself, in target order.
RoundTable = tuple[tuple[Route, Route], ...]


@dataclass
class LatencyModelConfig:
    """Tunables of the analytic latency model."""

    hop_cycles: float = 2.0          # per mesh hop (1 router + 1 wire)
    injection_overhead: float = 1.0  # NIC inject + eject, measured
    bus_overhead: float = 2.0        # transceiver hand-off + slot grant
    q_mesh: float = 0.7              # mesh queueing weight (calibrated)
    q_bus: float = 1.0               # bus queueing weight (calibrated)
    mesh_capacity_factor: float = 0.40   # saturation flits/node/cycle
    load_window: float = 2048.0      # cycles of EMA memory for load
    max_utilization: float = 0.95    # clamp to keep waits finite


class LatencyModel:
    """Prices packets on the Network-in-Memory fabric.

    The model is stateful: callers report every packet they send via
    :meth:`note_packet` so utilization estimates track the offered load.
    """

    def __init__(self, topology: ChipTopology, config: Optional[LatencyModelConfig] = None):
        self.topology = topology
        self.config = config or LatencyModelConfig()
        width, height = topology.config.mesh_dims
        self._num_nodes = width * height * topology.config.num_layers
        # Load accounting: decaying rates, advanced lazily per report.
        self._last_cycle = 0.0
        self._mesh_rate = 0.0                     # flit-hops per cycle
        self._bus_rate: dict[tuple[int, int], float] = {
            xy: 0.0 for xy in topology.pillar_xys
        }
        # The run's traffic for RunStats (cycle mode's fabric adds to it).
        self.flit_hops_total = 0.0
        self.bus_flits_total = 0.0
        # (src, dest) -> (hops, pillar or None), filled by path().  A path
        # depends only on the alive pillars, so every fault change
        # rebuilds the alive tuple and clears the memo (no fault state =
        # fault-free).
        self._paths: dict[tuple[Coord, Coord], Path] = {}
        # (src, targets, flits) -> RoundTable, compiled from the path
        # memo by _compile_round() and cleared with it.
        self._rounds: dict[tuple[Coord, tuple[Coord, ...], int], RoundTable] = {}
        self._faults: Optional["FaultState"] = None
        self._alive_pillars = tuple(topology.pillar_xys)

    def attach_fault_state(self, state: "FaultState") -> None:
        """Bind pillar-fault state; dead pillars leave the route pool."""
        self._faults = state
        self._on_fault_change()
        state.add_listener(self._on_fault_change)

    def _on_fault_change(self, *__) -> None:
        """Re-derive the alive pillars; forget every path and round table."""
        dead = self._faults.dead_pillars
        self._alive_pillars = tuple(
            xy for xy in self.topology.pillar_xys if xy not in dead
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
        if found is not None:
            return found
        if src.z == dest.z:
            found = (src.manhattan_2d(dest), None)
        else:
            pillar = best_pillar(src, dest, self._alive_pillars)
            px, py = pillar
            hops = (
                abs(src.x - px) + abs(src.y - py)
                + abs(dest.x - px) + abs(dest.y - py)
            )
            found = (hops, pillar)
        self._paths[src, dest] = found
        return found

    def _compile_round(
        self, src: Coord, targets: tuple[Coord, ...], flits: int
    ) -> RoundTable:
        """Compile and store the routes of a round of tag queries.

        The kernels read the table under ``(src, targets, flits)`` until
        the next fault change.  A target equal to ``src`` gets no entry.
        The paths come from the path memo, so with every pillar dead a
        cross-layer target raises ``ValueError`` and nothing is stored.
        """
        paths = self._paths
        window = self.config.load_window
        bus_load = flits * 0.693 / window

        def route(a: Coord, b: Coord) -> Route:
            hops, pillar = paths.get((a, b)) or self.path(a, b)
            flit_hops = hops * flits
            return hops, pillar, flit_hops, flit_hops * 0.693 / window, bus_load

        table = self._rounds[src, targets, flits] = tuple(
            (route(src, target), route(target, src))
            for target in targets
            if target != src
        )
        return table

    # -- load tracking ----------------------------------------------------------

    def _decay_to(self, cycle: float) -> None:
        """Exponentially age the rate estimates up to ``cycle``."""
        elapsed = cycle - self._last_cycle
        if elapsed <= 0:
            return
        decay = 0.5 ** (elapsed / self.config.load_window)
        self._mesh_rate *= decay
        for xy in self._bus_rate:
            self._bus_rate[xy] *= decay
        self._last_cycle = cycle

    def note_packet(self, src: Coord, dest: Coord, size_flits: int, cycle: float) -> None:
        """Record a packet's traffic contribution for load estimation.

        The EMA update adds the packet's flit-hops amortized over the load
        window, so ``_mesh_rate`` approximates flit-hops per cycle.
        """
        if cycle > self._last_cycle:
            self._decay_to(cycle)
        hops, pillar = self._paths.get((src, dest)) or self.path(src, dest)
        flit_hops = hops * size_flits
        window = self.config.load_window
        # ln(2) factor makes the half-life equal to the window length.
        self._mesh_rate += flit_hops * 0.693 / window
        self.flit_hops_total += flit_hops
        if pillar is not None:
            self._bus_rate[pillar] += size_flits * 0.693 / window
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
        pillar's flit rate, each clamped to ``max_utilization``.  With
        ``record`` and a ``cycle``, the packet's own load is then added
        exactly as :meth:`note_packet` would add it.
        """
        if src == dest:
            return 0.0
        hops, pillar = self._paths.get((src, dest)) or self.path(src, dest)
        if cycle is not None and cycle > self._last_cycle:
            self._decay_to(cycle)
        cfg = self.config
        ceiling = cfg.max_utilization
        capacity = self._num_nodes * cfg.mesh_capacity_factor
        rho = self._mesh_rate / capacity if capacity else 0.0
        if rho > ceiling:
            rho = ceiling
        per_hop_wait = cfg.q_mesh * rho / (1.0 - rho)
        latency = cfg.injection_overhead
        latency += hops * (cfg.hop_cycles + per_hop_wait)
        serialization = float(size_flits - 1)
        if pillar is not None:
            rho_b = self._bus_rate[pillar]
            if rho_b > ceiling:
                rho_b = ceiling
            latency += cfg.bus_overhead
            latency += cfg.q_bus * rho_b / (1.0 - rho_b)
            serialization = serialization / (1.0 - rho_b)
        latency += serialization
        if record and cycle is not None:
            flit_hops = hops * size_flits
            window = cfg.load_window
            self._mesh_rate += flit_hops * 0.693 / window
            self.flit_hops_total += flit_hops
            if pillar is not None:
                self._bus_rate[pillar] += size_flits * 0.693 / window
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

        Prices and records each target's query and then its reply, one
        after another, exactly as :meth:`packet_latency` would; at least
        ``tag``, the requester's own tag probe.  A target equal to
        ``src`` costs nothing, and a round with no other target leaves
        the load untouched.
        """
        table = self._rounds.get((src, targets, flits))
        if table is None:
            table = self._compile_round(src, targets, flits)
        worst = probe = float(tag)
        if not table:
            return worst
        if cycle > self._last_cycle:
            self._decay_to(cycle)
        cfg = self.config
        ceiling = cfg.max_utilization
        capacity = self._num_nodes * cfg.mesh_capacity_factor
        injection = cfg.injection_overhead
        hop_cycles = cfg.hop_cycles
        q_mesh = cfg.q_mesh
        q_bus = cfg.q_bus
        bus_overhead = cfg.bus_overhead
        serialization = float(flits - 1)
        bus_rate = self._bus_rate
        mesh_rate = self._mesh_rate
        flit_hops_total = self.flit_hops_total
        bus_flits_total = self.bus_flits_total
        for pair in table:
            # probe + out == out + probe, so the sum rounds as
            # out + tag + back does.
            total = probe
            for hops, pillar, flit_hops, mesh_load, bus_load in pair:
                rho = mesh_rate / capacity if capacity else 0.0
                if rho > ceiling:
                    rho = ceiling
                latency = injection + hops * (hop_cycles
                                              + q_mesh * rho / (1.0 - rho))
                if pillar is None:
                    latency += serialization
                else:
                    rate = bus_rate[pillar]
                    rho_b = ceiling if rate > ceiling else rate
                    latency += bus_overhead
                    latency += q_bus * rho_b / (1.0 - rho_b)
                    latency += serialization / (1.0 - rho_b)
                    bus_rate[pillar] = rate + bus_load
                    bus_flits_total += flits
                mesh_rate += mesh_load
                flit_hops_total += flit_hops
                total += latency
            if total > worst:
                worst = total
        self._mesh_rate = mesh_rate
        self.flit_hops_total = flit_hops_total
        self.bus_flits_total = bus_flits_total
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
        if table:
            bus_rate = self._bus_rate
            mesh_rate = self._mesh_rate
            flit_hops_total = self.flit_hops_total
            bus_flits_total = self.bus_flits_total
            for (__, pillar, flit_hops, mesh_load, bus_load), __ in table:
                mesh_rate += mesh_load
                flit_hops_total += flit_hops
                if pillar is not None:
                    bus_rate[pillar] += bus_load
                    bus_flits_total += flits
            self._mesh_rate = mesh_rate
            self.flit_hops_total = flit_hops_total
            self.bus_flits_total = bus_flits_total
        if answer == src:
            return 0.0
        return self.packet_latency(src, answer, flits, cycle, record=False)

    def zero_load_latency(self, src: Coord, dest: Coord, size_flits: int) -> float:
        """Latency ignoring all contention (for tests and sanity checks)."""
        cfg = self.config
        if src == dest:
            return 0.0
        hops, pillar = self.path(src, dest)
        latency = cfg.injection_overhead + hops * cfg.hop_cycles
        latency += size_flits - 1
        if pillar is not None:
            latency += cfg.bus_overhead
        return latency

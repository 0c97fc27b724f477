"""`NetworkInMemory`: the assembled 3D CMP system and its timing layer.

Binds the placed chip topology, the NUCA L2 with its management policies,
the coherent L1s, and the in-order cores, and prices every L2 transaction's
network traffic with the Section 4.2.1 walk of :mod:`repro.core.pricing`.
Two fidelity modes pick the medium that walk prices packets on:

* ``mode="model"`` (default) — packets are priced by the contention-aware
  analytic :class:`~repro.core.latency_model.LatencyModel`; fast enough for
  the paper's full figure sweeps.
* ``mode="cycle"`` — every packet is injected into the cycle-accurate
  fabric (:mod:`repro.core.cycle_driver`); exact, used by tests and
  microbenchmarks and to calibrate the model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from repro.codec import Record
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.noc.routing import Coord
from repro.core.chip import ChipTopology
from repro.core.placement import PlacementPolicy, build_topology
from repro.core.schemes import Scheme, SchemeSetup, make_chip_config
from repro.core.latency_model import LatencyModel, LatencyModelConfig
from repro.core.pricing import ModelMedium, TransactionPricer
from repro.cache.nuca import IFETCH, READ, WRITE, AccessType, NucaL2
from repro.cache.migration import MigrationConfig
from repro.coherence.protocol import CoherentL1System
from repro.coherence.l1cache import L1Config
from repro.cpu.core import InOrderCore
from repro.cpu.trace import OP_READ, OP_WRITE, OP_IFETCH, TraceEvent

if TYPE_CHECKING:
    from repro.faults.injector import FaultHarness
    from repro.faults.spec import FaultSpec

_OP_TO_TYPE = {OP_READ: READ, OP_WRITE: WRITE, OP_IFETCH: IFETCH}


@dataclass
class SystemConfig:
    """Timing and policy parameters of the whole system (Table 4)."""

    scheme: Scheme = Scheme.CMP_DNUCA_3D
    cache_mb: int = 16
    num_layers: int = 2
    num_pillars: int = 8
    num_cpus: int = 8
    mode: str = "model"            # "model" or "cycle"
    tag_latency: int = 4           # per-cluster tag array access (Cacti)
    bank_latency: int = 5          # 64KB bank access (Cacti)
    memory_latency: int = 260      # off-chip memory
    request_flits: int = 1         # tag query / request header
    data_flits: int = 4            # 64B line = 4 x 128-bit flits
    cpi_base: float = 1.0
    # Structured event tracing: None (default) means probe sites see the
    # NullTracer and the hot path stays allocation-free.
    tracer: Optional[Tracer] = None
    # Consecutive same-CPU accesses before a gradual one-cluster move.
    # Lazy and conservative: shared lines whose accessors alternate are
    # left in place (anti-ping-pong).
    migration_threshold: int = 2
    latency_model: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    l1: L1Config = field(default_factory=L1Config)
    # Override the scheme's default CPU placement (ablations: e.g. run the
    # 3D scheme with STACKED CPUs to expose the pillar-congestion cost).
    placement_override: Optional["PlacementPolicy"] = None
    # Pin CPUs to explicit coordinates (Fig 17 holds the floorplan fixed
    # while the via budget — the pillar count — varies).
    cpu_positions_override: Optional[dict[int, "Coord"]] = None
    # Fault injection: a FaultSpec degrades the fabric/cache (dead
    # pillars, links, router ports, banks) with graceful-degradation
    # accounting.  None = fault-unaware run (bit-identical to the seed
    # behaviour).  Random fault targets resolve deterministically from
    # ``fault_seed`` (the SimSpec seed when driven by a spec).
    faults: Optional["FaultSpec"] = None
    fault_seed: int = 2006

    def validate(self) -> None:
        if self.mode not in ("model", "cycle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tag_latency < 1 or self.bank_latency < 1:
            raise ValueError("array latencies must be positive")
        if self.memory_latency < 0:
            raise ValueError(
                f"memory_latency must be >= 0, got {self.memory_latency!r}"
            )
        for name in ("request_flits", "data_flits"):
            flits = getattr(self, name)
            if flits < 1:
                raise ValueError(f"{name} must be >= 1, got {flits!r}")


@dataclass(slots=True)
class TransactionResult:
    """Timing outcome of one L2 transaction."""

    latency: float
    hit: bool
    search_step: int
    cluster: int
    migrated: bool


class NetworkInMemory:
    """The complete simulated system for one scheme/configuration."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.config.validate()
        setup: SchemeSetup = make_chip_config(
            self.config.scheme,
            cache_mb=self.config.cache_mb,
            num_layers=self.config.num_layers,
            num_pillars=self.config.num_pillars,
            num_cpus=self.config.num_cpus,
        )
        self.setup = setup
        if self.config.cpu_positions_override is not None:
            from repro.core.placement import place_pillars

            self.topology = ChipTopology(
                setup.chip,
                self.config.cpu_positions_override,
                place_pillars(setup.chip),
            )
        else:
            placement = self.config.placement_override or setup.placement
            self.topology = build_topology(setup.chip, placement)
        self.stats = StatsRegistry("system")
        self.tracer: Tracer = (
            self.config.tracer if self.config.tracer is not None
            else NULL_TRACER
        )
        # CMP-DNUCA reproduces Beckmann & Wood's policy: promotion on every
        # hit, but only along the block's bankset chain — lots of movement,
        # modest convergence, exactly what Fig 14 contrasts against.
        migration = MigrationConfig(
            enabled=setup.migration_enabled,
            trigger_threshold=(
                1
                if setup.scheme == Scheme.CMP_DNUCA
                else self.config.migration_threshold
            ),
            transfer_flits=self.config.data_flits,
            bankset_chains=(setup.scheme == Scheme.CMP_DNUCA),
        )
        self.l2 = NucaL2(
            self.topology, migration, stats=self.stats, tracer=self.tracer
        )
        self.l1s = CoherentL1System(
            setup.chip.num_cpus, self.config.l1, tracer=self.tracer
        )
        self.cores = [
            InOrderCore(cpu, cpi_base=self.config.cpi_base)
            for cpu in range(setup.chip.num_cpus)
        ]
        width, __ = setup.chip.mesh_dims
        self.memory_node = Coord(width // 2, 0, 0)

        self.model = LatencyModel(self.topology, self.config.latency_model)
        if self.config.mode == "model":
            medium = ModelMedium(self.model, self.config)
        else:
            from repro.core.cycle_driver import CycleMedium

            medium = CycleMedium(self)
        self.pricer = TransactionPricer(self, medium)

        self.fault_harness: Optional["FaultHarness"] = None
        if self.config.faults is not None:
            from repro.faults.injector import install_faults

            # Faults land on whatever prices packets: the fabric in cycle
            # mode, the analytic model otherwise.
            self.fault_harness = install_faults(
                getattr(medium, "network", self.model),
                self.config.faults,
                self.config.fault_seed,
                l2=self.l2,
                stats=self.stats,
                tracer=self.tracer,
            )

        l2_scope = self.stats.scope("l2")
        self.hit_latency = l2_scope.histogram("hit_latency", 1.0, 512)
        self.miss_latency = l2_scope.histogram("miss_latency", 2.0, 512)
        self._l2_reads = l2_scope.counter("read_transactions")
        self._l2_writes = l2_scope.counter("write_transactions")
        self._l2_ifetches = l2_scope.counter("ifetch_transactions")
        self._invalidations = self.stats.scope("coherence").counter(
            "invalidations"
        )

    # -- one L2 transaction ---------------------------------------------------

    def l2_transaction(
        self, cpu_id: int, address: int, access_type: AccessType, cycle: float
    ) -> TransactionResult:
        """Access the L2 and price the transaction's network activity."""
        outcome = self.l2.access(cpu_id, address, access_type, cycle)
        latency = self.pricer.price(cpu_id, outcome, cycle)

        # The paper's "L2 hit latency" is the latency processors wait on —
        # demand reads and fetches.  Buffered write-throughs are priced for
        # traffic but not mixed into the latency figure.
        if outcome.hit:
            if access_type is not WRITE:
                self.hit_latency.add(latency)
        else:
            self.miss_latency.add(latency)
            if outcome.evicted_line is not None:
                targets = self.l1s.l2_eviction(outcome.evicted_line, cycle)
                self.pricer.charge_invalidations(
                    self.topology.clusters[outcome.cluster].tag_node,
                    targets,
                    cycle,
                )
        if access_type is READ:
            self._l2_reads.increment()
        elif access_type is WRITE:
            self._l2_writes.increment()
        else:
            self._l2_ifetches.increment()
        return TransactionResult(
            latency,
            outcome.hit,
            outcome.search_step,
            outcome.cluster,
            outcome.migration is not None,
        )

    # -- trace-driven run -------------------------------------------------------

    def run_trace(
        self,
        traces: list[Iterable[TraceEvent]],
        *,
        warmup_events: int = 0,
    ) -> "RunStats":
        """Drive every core through its reference trace, interleaved in time.

        References are taken in global ``(clock, cpu)`` order, ties going
        to the lower CPU id, so the latency model sees a coherent time
        axis.  The first ``warmup_events`` references warm the caches
        without being counted in the reported statistics (the paper warms
        the L2 for 500 M cycles before its 2 B-cycle sample).  Traces
        that run dry before warm-up ends raise ``ValueError``; a warm-up
        of exactly their total leaves every statistic at zero.

        The retire rule lives here: a reference first retires its ``gap``
        non-memory instructions at the base CPI, then itself in one cycle;
        a read or fetch that needs the L2 then stalls for the transaction's
        latency, while a store retires into the write buffer.
        """
        if len(traces) != len(self.cores):
            raise ValueError(
                f"need {len(self.cores)} traces, got {len(traces)}"
            )
        iterators: list[Iterator[TraceEvent]] = [iter(t) for t in traces]
        # One (clock, cpu) key per CPU with references left, except the
        # running CPU's.  Sorted, so already a heap.
        heap = [(0.0, cpu) for cpu in range(len(self.cores))]
        # Bound once: every lookup below runs once per reference.  The
        # span benchmark patches these methods on their classes before a
        # run starts, so binding here still goes through its wrappers.
        cores = self.cores
        l1_access = self.l1s.access
        l2_transaction = self.l2_transaction
        charge_invalidations = self.pricer.charge_invalidations
        invalidations = self._invalidations
        cpu_positions = self.topology.cpu_positions
        op_to_type = _OP_TO_TYPE
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        # Counts down to 0 at the last warm-up reference, then goes
        # negative and never meets 0 again.
        until_warm = warmup_events
        if until_warm <= 0:
            self._end_warmup()
        __, cpu = heappop(heap)
        while True:
            # Run this CPU, its counts in locals, until its key passes the
            # earliest waiting one, its trace runs dry or warm-up ends.
            core = cores[cpu]
            cpi_base = core.cpi_base
            clock = core.clock
            instructions = core.instructions
            stalls = core.memory_stall_cycles
            l2_accesses = core.l2_accesses
            next_clock, next_cpu = heap[0] if heap else (math.inf, cpu)
            ran_dry = True
            for gap, op, address in iterators[cpu]:
                access_type = op_to_type[op]
                clock += gap * cpi_base
                coherence = l1_access(cpu, address, access_type, clock)
                targets = coherence.invalidate_cpus
                if targets:
                    invalidations.increment(len(targets))
                    charge_invalidations(cpu_positions[cpu], targets, clock)
                if coherence.needs_l2:
                    result = l2_transaction(cpu, address, access_type, clock)
                    l2_accesses += 1
                    clock += cpi_base
                    stall = result.latency
                    if access_type is not WRITE and stall > 0:
                        clock += stall
                        stalls += stall
                else:
                    clock += cpi_base
                instructions += gap + 1  # exact: gaps are ints
                until_warm -= 1
                if until_warm == 0 or clock >= next_clock and (
                    clock > next_clock or cpu > next_cpu
                ):
                    ran_dry = False
                    break
            core.clock = clock
            core.instructions = instructions
            core.memory_stall_cycles = stalls
            core.l2_accesses = l2_accesses
            if ran_dry:
                if not heap:
                    if until_warm > 0:
                        raise ValueError(
                            f"warmup_events={warmup_events} exceeds the "
                            f"{warmup_events - until_warm} references in "
                            f"the traces"
                        )
                    break
                __, cpu = heappop(heap)
            elif until_warm:
                # The key passed the earliest waiting one: swap them.
                __, cpu = heapreplace(heap, (clock, cpu))
            else:
                # Warm-up ended; this CPU may still hold the earliest key.
                self._end_warmup()
                __, cpu = heapq.heappushpop(heap, (clock, cpu))
        return self.collect_stats()

    def _end_warmup(self) -> None:
        """Reset measured statistics; cache/network state carries over."""
        self.stats.reset()
        self._invalidations.reset()
        for core in self.cores:
            core.reset_stats()  # clocks keep running: cores stay aligned
        self.model.flit_hops_total = 0.0
        self.model.bus_flits_total = 0.0

    # -- results ------------------------------------------------------------------

    def collect_stats(self) -> "RunStats":
        cores = self.cores
        total_instructions = sum(c.instructions for c in cores)
        max_clock = max((c.measured_cycles for c in cores), default=0.0)
        snapshot = self.stats.snapshot()
        # Faults active at collection time come from the live fault sets,
        # not the (warmup-reset) counters: injection is configuration.
        faults_active = 0
        if self.fault_harness is not None and self.fault_harness.state:
            faults_active = self.fault_harness.state.active
        # Survivorship context for the latency means: in cycle mode ask
        # the live fabric what never arrived; the analytic model delivers
        # everything by construction.
        delivered_fraction = 1.0
        ages = {"count": 0, "mean_age": 0.0, "max_age": 0}
        network = getattr(self.pricer.medium, "network", None)
        if network is not None:
            delivered_fraction = network.delivered_fraction()
            ages = network.in_flight_ages()
        return RunStats(
            scheme=self.config.scheme,
            avg_l2_hit_latency=self.hit_latency.mean,
            avg_l2_miss_latency=self.miss_latency.mean,
            l2_hits=int(snapshot.get("l2.hits", 0)),
            l2_misses=int(snapshot.get("l2.misses", 0)),
            migrations=self.l2.migrations,
            ipc=(total_instructions / max_clock if max_clock > 0 else 0.0),
            per_cpu_ipc=[c.ipc for c in cores],
            l1_miss_rate=self.l1s.miss_rate(),
            flit_hops=self.model.flit_hops_total,
            bus_flits=self.model.bus_flits_total,
            invalidations=self._invalidations.value,
            instructions=total_instructions,
            cycles=max_clock,
            packets_lost=int(snapshot.get("faults.packets_lost", 0)),
            faults_injected=faults_active,
            delivered_fraction=delivered_fraction,
            in_flight_packets=int(ages["count"]),
            in_flight_mean_age=float(ages["mean_age"]),
            in_flight_max_age=int(ages["max_age"]),
        )


@dataclass
class RunStats(Record):
    """Summary of one simulated run (the quantities the figures plot).

    Serialized by the record codec (:mod:`repro.codec`), every field
    written.  Floats survive the JSON round trip bit-identically
    (``json`` emits the shortest repr that parses back to the same
    double), which is what lets the experiment cache and the parallel
    orchestrator return results indistinguishable from an in-process
    run.
    """

    scheme: Scheme
    avg_l2_hit_latency: float
    avg_l2_miss_latency: float
    l2_hits: int
    l2_misses: int
    migrations: int
    ipc: float
    per_cpu_ipc: list[float]
    l1_miss_rate: float
    flit_hops: float
    bus_flits: float
    invalidations: int
    instructions: float
    cycles: float
    # Fault-injection degradation accounting (0 on fault-free runs).
    packets_lost: int = 0
    faults_injected: int = 0
    # Latency survivorship accounting (cycle mode): latency means cover
    # only *delivered* packets, so a saturated run that strands most of
    # its traffic in-network can report a flattering mean.  These fields
    # expose the denominator — what fraction of injected packets the
    # latency stats actually describe, and how old the stranded
    # population is.  Defaulted so cached artifacts predating them load.
    delivered_fraction: float = 1.0
    in_flight_packets: int = 0
    in_flight_mean_age: float = 0.0
    in_flight_max_age: int = 0

    @property
    def l2_accesses(self) -> int:
        return self.l2_hits + self.l2_misses

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_accesses
        return self.l2_hits / total if total else 0.0

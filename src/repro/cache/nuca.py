"""The clustered NUCA L2: functional storage plus management policies.

`NucaL2` binds the cluster stores to the search, placement/replacement and
migration policies on a placed chip topology.  It is purely *functional*:
it answers where a line is, what moved, and what was evicted.  Timing is
layered on top by :mod:`repro.core.system`, which prices the network
traffic each outcome implies (in either analytic-model or cycle-accurate
mode).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.sim.stats import StatsRegistry
from repro.sim.trace import CACHE_SEARCH, MIGRATION, NULL_TRACER, Tracer
from repro.noc.routing import Coord
from repro.core.chip import ChipTopology
from repro.cache.addressing import AddressMap, DecodedAddress
from repro.cache.line import LineEntry
from repro.cache.cluster_store import ClusterStore
from repro.cache.search import SearchPlan, SearchPolicy
from repro.cache.migration import MigrationPolicy, MigrationConfig

if TYPE_CHECKING:
    from repro.faults.state import FaultState


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    IFETCH = "ifetch"


# Module aliases for the hot paths, which import them: ``is`` against an
# alias is ~10x cheaper than reading the member off the enum class.
READ = AccessType.READ
WRITE = AccessType.WRITE
IFETCH = AccessType.IFETCH


@dataclass(slots=True)
class AccessOutcome:
    """Everything the timing layer needs to price one L2 access."""

    hit: bool
    cluster: int                       # where the line was found / placed
    bank_node: Coord                   # mesh node holding the data
    tag_node: Coord                    # tag array that matched (or home's)
    search_step: int                   # 1 or 2; misses always pay step 2
    access_type: AccessType = AccessType.READ
    migration: Optional[tuple[int, int]] = None   # (from, to) if started
    evicted_line: Optional[int] = None            # line address written back


class NucaL2:
    """16-cluster non-uniform L2 cache with 3D-aware management."""

    def __init__(
        self,
        topology: ChipTopology,
        migration_config: Optional[MigrationConfig] = None,
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.topology = topology
        self.config = topology.config
        self.addr_map = AddressMap(self.config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.search = SearchPolicy(topology, tracer=self.tracer)
        self.migration = MigrationPolicy(topology, migration_config)
        self.stats = stats or StatsRegistry("l2")
        # One trace track per bank cluster: search steps land on the
        # cluster that answered, migrations on the cluster the line leaves.
        self._tracks = [
            self.tracer.track(f"cluster.{cluster.index}")
            for cluster in topology.clusters
        ]
        self.clusters = [
            ClusterStore(
                cluster.index, self.config.sets_per_cluster,
                self.config.associativity,
            )
            for cluster in topology.clusters
        ]
        # Read per transaction: each cluster's tag array node and bank
        # nodes, by index, and each CPU's search plan, filled on first
        # use so that a traced plan is stamped when the policy builds it.
        self._tag_nodes = tuple(
            cluster.tag_node for cluster in topology.clusters
        )
        self._bank_nodes = tuple(
            tuple(cluster.bank_nodes) for cluster in topology.clusters
        )
        self._plans: list[Optional[SearchPlan]] = (
            [None] * self.config.num_cpus
        )
        # Ground truth: line address -> cluster index currently holding it.
        self._location: dict[int, int] = {}
        # Bank-fault state (None when no faults are injected).
        self._faults: Optional["FaultState"] = None

        scope = self.stats.scope("l2")
        self._hits = scope.counter("hits")
        self._misses = scope.counter("misses")
        self._hits_step1 = scope.counter("hits_step1")
        self._hits_local = scope.counter("hits_local_cluster")
        self._hits_step2 = scope.counter("hits_step2")
        self._migrations = scope.counter("migrations")
        self._swaps = scope.counter("migration_swaps")
        self._evictions = scope.counter("evictions")

    # -- geometry helpers --------------------------------------------------------

    def bank_node(self, cluster_index: int, decoded: DecodedAddress) -> Coord:
        """Mesh node of the bank holding ``decoded`` within a cluster.

        When the addressed bank is dead, the access is remapped to the
        next alive bank of the same cluster (round-robin scan), so the
        cluster keeps serving its address range at degraded capacity.
        """
        nodes = self._bank_nodes[cluster_index]
        bank = decoded.bank
        faults = self._faults
        if faults is not None and faults.dead_banks:
            dead = faults.dead_banks
            if (cluster_index, bank) in dead:
                total = len(nodes)
                for step in range(1, total):
                    candidate = (bank + step) % total
                    if (cluster_index, candidate) not in dead:
                        faults.bank_remapped()
                        return nodes[candidate]
                raise RuntimeError(
                    f"all {total} banks of cluster {cluster_index} are dead"
                )
        return nodes[bank]

    def tag_node(self, cluster_index: int) -> Coord:
        return self._tag_nodes[cluster_index]

    # -- main access path ------------------------------------------------------------

    def access(
        self,
        cpu_id: int,
        address: int,
        access_type: AccessType = AccessType.READ,
        cycle: float = 0.0,
    ) -> AccessOutcome:
        """Perform one L2 access; returns the functional outcome.

        ``cycle`` drives lazy-migration settlement and new migration
        deadlines; callers advancing simulated time must pass it.
        """
        decoded = self.addr_map.decode(address)
        line_addr = decoded.line_address
        cluster_index = self._location.get(line_addr)

        if cluster_index is not None:
            outcome = self._hit(
                cpu_id, decoded, cluster_index, access_type, cycle
            )
        else:
            outcome = self._miss(cpu_id, decoded, access_type, cycle)
        return outcome

    def _hit(
        self,
        cpu_id: int,
        decoded: DecodedAddress,
        cluster_index: int,
        access_type: AccessType,
        cycle: float,
    ) -> AccessOutcome:
        store = self.clusters[cluster_index]
        found = store.lookup(decoded.index, decoded.tag)
        if found is None:
            raise RuntimeError(
                f"location map desync for line {decoded.line_address:#x}"
            )
        way, entry = found

        # Settle a completed lazy migration before anything else.
        if (
            entry.pending_cluster is not None
            and cycle >= entry.in_transit_until
        ):
            cluster_index = self._complete_migration(
                entry, decoded, cluster_index
            )
            store = self.clusters[cluster_index]
            refound = store.lookup(decoded.index, decoded.tag)
            way, entry = refound

        # Migration credit is maintained against the *previous* accessor so
        # alternating accessors reset it (anti-ping-pong).
        if entry.last_accessor == cpu_id:
            entry.migration_credit += 1
        else:
            entry.migration_credit = 1
        entry.touch(cpu_id)
        store.touch(decoded.index, way)
        if access_type is WRITE:
            entry.dirty = True

        plan = self._plans[cpu_id]
        if plan is None:
            plan = self._plans[cpu_id] = self.search.plan(cpu_id)
        step = plan.steps[cluster_index]
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                CACHE_SEARCH,
                cycle,
                self._tracks[cluster_index],
                cpu_id,
                decoded.line_address,
                step,
                True,
            )
        self._hits.increment()
        if step == 1:
            self._hits_step1.increment()
            if cluster_index == plan.local_cluster:
                self._hits_local.increment()
        else:
            self._hits_step2.increment()

        migration: Optional[tuple[int, int]] = None
        if entry.pending_cluster is None and self.migration.should_migrate(
            entry.migration_credit
        ):
            target = self.migration.target_cluster(cluster_index, cpu_id)
            if target is not None and self._can_accept(target, decoded):
                transfer = self.migration.transfer_latency(
                    cluster_index, target
                )
                entry.begin_migration(target, cycle + transfer)
                migration = (cluster_index, target)
                self._migrations.increment()
                if tracer.enabled:
                    tracer.emit(
                        MIGRATION,
                        cycle,
                        self._tracks[cluster_index],
                        decoded.line_address,
                        cluster_index,
                        target,
                    )

        if self._faults is None:
            bank_node = self._bank_nodes[cluster_index][decoded.bank]
        else:
            bank_node = self.bank_node(cluster_index, decoded)
        return AccessOutcome(
            True, cluster_index, bank_node, self._tag_nodes[cluster_index],
            step, access_type, migration,
        )

    def _miss(
        self,
        cpu_id: int,
        decoded: DecodedAddress,
        access_type: AccessType,
        cycle: float,
    ) -> AccessOutcome:
        """Placement policy: the home cluster's set, evicting by pseudo-LRU."""
        self._misses.increment()
        home = decoded.home_cluster
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                CACHE_SEARCH,
                cycle,
                self._tracks[home],
                cpu_id,
                decoded.line_address,
                2,
                False,
            )
        store = self.clusters[home]
        entry = LineEntry(tag=decoded.tag, index=decoded.index)
        entry.touch(cpu_id)
        entry.migration_credit = 1
        if access_type is WRITE:
            entry.dirty = True
        victim = store.insert(decoded.index, entry)
        evicted_line = None
        if victim is not None:
            if victim.is_replica:
                # Dropping a replica loses no data; the primary remains.
                self._note_replica_evicted(victim, home)
            else:
                evicted_line = self.addr_map.compose(
                    victim.tag, victim.index
                ) >> self.addr_map.offset_bits
                self._location.pop(evicted_line, None)
                self._evictions.increment()
        self._location[decoded.line_address] = home
        if self._faults is None:
            bank_node = self._bank_nodes[home][decoded.bank]
        else:
            bank_node = self.bank_node(home, decoded)
        return AccessOutcome(
            False, home, bank_node, self._tag_nodes[home], 2, access_type,
            None, evicted_line,
        )

    # -- migration mechanics ----------------------------------------------------------

    def _can_accept(self, cluster_index: int, decoded: DecodedAddress) -> bool:
        """A migration target must offer a free way or a swappable victim."""
        store = self.clusters[cluster_index]
        if store.free_ways(decoded.index) > 0:
            return True
        ways = store._sets.get(decoded.index)
        if ways is None:
            return True
        return any(e is not None and not e.in_transit for e in ways)

    def _complete_migration(
        self, entry: LineEntry, decoded: DecodedAddress, old_cluster: int
    ) -> int:
        """Land a pending migration: move the line, swapping if needed.

        Returns the cluster the line now lives in.  When the target set is
        full, the pseudo-LRU victim there is *swapped* back into the freed
        slot (gradual migration moves data without destroying it).
        """
        target = entry.finish_migration()
        old_store = self.clusters[old_cluster]
        new_store = self.clusters[target]
        old_store.remove(decoded.index, entry.tag)
        victim = new_store.insert(decoded.index, entry)
        self._location[decoded.line_address] = target
        if victim is not None:
            if victim.is_replica:
                # Replicas are droppable; no swap, no location update.
                self._note_replica_evicted(victim, target)
            elif victim.in_transit:
                # Pathological corner: every way in transit.  Drop the
                # victim (writeback) rather than deadlock the swap.
                victim_line = (
                    self.addr_map.compose(victim.tag, victim.index)
                    >> self.addr_map.offset_bits
                )
                self._location.pop(victim_line, None)
                self._evictions.increment()
            else:
                old_store.insert(decoded.index, victim)
                victim_line = (
                    self.addr_map.compose(victim.tag, victim.index)
                    >> self.addr_map.offset_bits
                )
                self._location[victim_line] = old_cluster
                self._swaps.increment()
        return target

    def _note_replica_evicted(self, entry: LineEntry, cluster_index: int) -> None:
        """Hook for the replication extension: a replica was displaced."""

    # -- bank faults --------------------------------------------------------

    def attach_fault_state(self, state: "FaultState") -> None:
        """Bind bank-fault state; dead banks start degrading on apply."""
        self._faults = state

    def apply_bank_faults(self) -> int:
        """Re-derive per-cluster capacity from the live dead-bank set.

        Each cluster's usable associativity shrinks proportionally to its
        alive banks (a dead bank's storage is gone, not just its port).
        Lines displaced by the shrink are dropped — they reload as misses
        on the next access — and counted as ``faults.bank_lines_lost``.
        Healing restores full associativity; resident lines are kept.
        Returns the number of lines lost.
        """
        faults = self._faults
        if faults is None:
            return 0
        dead_by_cluster: dict[int, int] = {}
        for cluster_index, __ in faults.dead_banks:
            dead_by_cluster[cluster_index] = (
                dead_by_cluster.get(cluster_index, 0) + 1
            )
        lost = 0
        for cluster_index, store in enumerate(self.clusters):
            total_banks = len(
                self.topology.clusters[cluster_index].bank_nodes
            )
            dead = dead_by_cluster.get(cluster_index, 0)
            if dead >= total_banks:
                raise ValueError(
                    f"all {total_banks} banks of cluster {cluster_index} "
                    f"are dead; the cluster's address range is unservable"
                )
            effective = max(
                1, (store.ways * (total_banks - dead)) // total_banks
            )
            if effective == store.effective_ways:
                continue
            grow = effective > store.effective_ways
            store.effective_ways = effective
            if grow:
                continue
            for index, ways in list(store._sets.items()):
                occupied = [
                    way for way, e in enumerate(ways) if e is not None
                ]
                excess = len(occupied) - effective
                if excess <= 0:
                    continue
                # Shed from the highest way index down; in-transit lines
                # are shed too (their migration target slot still exists,
                # but the data is gone — treat as lost).
                for way in reversed(occupied):
                    if excess <= 0:
                        break
                    entry = ways[way]
                    ways[way] = None
                    store.lines_resident -= 1
                    excess -= 1
                    if entry.is_replica:
                        self._note_replica_evicted(entry, cluster_index)
                        continue
                    line = (
                        self.addr_map.compose(entry.tag, entry.index)
                        >> self.addr_map.offset_bits
                    )
                    self._location.pop(line, None)
                    faults.bank_lines_lost()
                    lost += 1
        return lost

    def settle_all(self, cycle: float) -> int:
        """Force-complete every due migration (used at sample boundaries)."""
        settled = 0
        for cluster_index, store in enumerate(self.clusters):
            due = [
                (index, entry)
                for index, __, entry in store.entries()
                if entry.in_transit and cycle >= entry.in_transit_until
            ]
            for index, entry in due:
                decoded = self.addr_map.decode(
                    self.addr_map.compose(entry.tag, entry.index)
                )
                self._complete_migration(entry, decoded, cluster_index)
                settled += 1
        return settled

    # -- introspection ------------------------------------------------------------

    def location_of(self, address: int) -> Optional[int]:
        """Cluster currently holding ``address``, or ``None``."""
        return self._location.get(self.addr_map.line_of(address))

    @property
    def lines_resident(self) -> int:
        return len(self._location)

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    @property
    def migrations(self) -> int:
        return self._migrations.value

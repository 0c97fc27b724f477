"""Replication-based L2 management (extension).

The paper's related work (Section 2.1) discusses the other family of
NUCA management schemes: instead of *migrating* the only copy of a line
toward its accessor, *replicate* it — keep the home copy where placement
put it and install extra copies near frequent remote readers (NuRapid's
replication-based management, Zhang & Asanovic's victim replication).

`ReplicatingNucaL2` layers that policy over the base NUCA:

* a read hit that resolves in step 2 installs a **replica** in the
  accessing CPU's local cluster (capacity permitting) once the line has
  shown reuse;
* subsequent reads hit the nearest copy (local replica if present);
* writes are the hard part of replication: the writer must invalidate
  every replica before updating the primary copy, and the timing layer
  charges that traffic;
* replicas are second-class: they never migrate, and eviction simply
  drops them (the primary copy still holds the data).

This is an extension beyond the paper's evaluated design — the paper
chose migration — included to let users compare the two families on the
same 3D substrate (see ``benchmarks/test_ablation_replication.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.chip import ChipTopology
from repro.sim.stats import StatsRegistry
from repro.cache.line import LineEntry
from repro.cache.migration import MigrationConfig
from repro.cache.nuca import AccessOutcome, AccessType, NucaL2


@dataclass
class ReplicationConfig:
    """Replication tunables."""

    enabled: bool = True
    # Remote read hits by the same CPU before a replica is installed.
    trigger_threshold: int = 2
    # Refuse to replicate into a set with fewer free ways than this
    # (protects primary-copy capacity in the local cluster).
    min_free_ways: int = 2


class ReplicatingNucaL2(NucaL2):
    """NUCA L2 with read-replication instead of (or on top of) migration.

    By default migration is disabled — this models the replication
    *family* of schemes; pass a migration config to combine both.
    """

    def __init__(
        self,
        topology: ChipTopology,
        replication: Optional[ReplicationConfig] = None,
        migration_config: Optional[MigrationConfig] = None,
        stats: Optional[StatsRegistry] = None,
        tracer=None,
    ):
        super().__init__(
            topology,
            migration_config or MigrationConfig(enabled=False),
            stats=stats,
            tracer=tracer,
        )
        self.replication = replication or ReplicationConfig()
        # line address -> {cluster index holding a replica}
        self._replicas: dict[int, set[int]] = {}
        # (line address, cpu) remote-reuse counters
        self._remote_reads: dict[tuple[int, int], int] = {}
        scope = self.stats.scope("l2")
        self._replicas_made = scope.counter("replicas_created")
        self._replica_hits = scope.counter("replica_hits")
        self._replica_invals = scope.counter("replica_invalidations")

    # -- queries ---------------------------------------------------------

    def replicas_of(self, address: int) -> frozenset[int]:
        return frozenset(
            self._replicas.get(self.addr_map.line_of(address), ())
        )

    @property
    def replica_count(self) -> int:
        return sum(len(clusters) for clusters in self._replicas.values())

    # -- access path -----------------------------------------------------

    def access(
        self,
        cpu_id: int,
        address: int,
        access_type: AccessType = AccessType.READ,
        cycle: float = 0.0,
    ) -> AccessOutcome:
        decoded = self.addr_map.decode(address)
        line = decoded.line_address
        replicas = self._replicas.get(line)

        if access_type == AccessType.WRITE and replicas:
            # Writer invalidates every replica before updating the primary.
            self._replica_invals.increment(len(replicas))
            for cluster_index in list(replicas):
                self._drop_replica(line, decoded, cluster_index)

        local = self.search.plan(cpu_id).local_cluster
        if (
            access_type != AccessType.WRITE
            and replicas
            and local in replicas
            and self.clusters[local].lookup(decoded.index, decoded.tag)
            is not None
        ):
            # Local replica hit: cheap step-1 resolution; primary copy's
            # metadata is untouched (replicas are read-only caches).
            self._replica_hits.increment()
            self._hits.increment()
            self._hits_step1.increment()
            self._hits_local.increment()
            return AccessOutcome(
                hit=True,
                cluster=local,
                bank_node=self.bank_node(local, decoded),
                tag_node=self.tag_node(local),
                search_step=1,
                access_type=access_type,
            )

        outcome = super().access(cpu_id, address, access_type, cycle)

        # Consider replicating after repeated remote read hits.
        if (
            self.replication.enabled
            and outcome.hit
            and access_type != AccessType.WRITE
            and outcome.search_step == 2
            and outcome.cluster != local
        ):
            key = (line, cpu_id)
            count = self._remote_reads.get(key, 0) + 1
            self._remote_reads[key] = count
            if count >= self.replication.trigger_threshold:
                if self._install_replica(line, decoded, local):
                    del self._remote_reads[key]
        return outcome

    # -- replica mechanics --------------------------------------------------

    def _install_replica(self, line: int, decoded, cluster_index: int) -> bool:
        store = self.clusters[cluster_index]
        if store.free_ways(decoded.index) < self.replication.min_free_ways:
            return False
        entry = LineEntry(
            tag=decoded.tag, index=decoded.index, is_replica=True
        )
        store.insert(decoded.index, entry)
        self._replicas.setdefault(line, set()).add(cluster_index)
        self._replicas_made.increment()
        return True

    def _drop_replica(self, line: int, decoded, cluster_index: int) -> None:
        clusters = self._replicas.get(line)
        if not clusters or cluster_index not in clusters:
            return
        # The replica may already have been evicted by capacity pressure;
        # tolerate that (the map is advisory for replicas).
        try:
            self.clusters[cluster_index].remove(decoded.index, decoded.tag)
        except KeyError:
            pass
        clusters.discard(cluster_index)
        if not clusters:
            del self._replicas[line]

    def _note_replica_evicted(self, entry: LineEntry, cluster_index: int) -> None:
        """Capacity pressure displaced a replica: clean the replica map."""
        line = (
            self.addr_map.compose(entry.tag, entry.index)
            >> self.addr_map.offset_bits
        )
        clusters = self._replicas.get(line)
        if clusters is not None:
            clusters.discard(cluster_index)
            if not clusters:
                del self._replicas[line]

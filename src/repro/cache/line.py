"""L2 cache line metadata.

A line entry lives inside one cluster's storage; its fields support the
migration policy (access counting, last accessor) and the lazy-migration
mechanism (a line being moved stays visible at its old location until the
transfer completes, preventing false misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True, eq=False)
class LineEntry:
    """One cache line resident in the L2.

    Compared by identity: a line is one physical slot's occupant, and
    value equality would make every ``ways.count(None)`` call the field
    comparison once per occupied way.
    """

    tag: int
    index: int
    dirty: bool = False
    # Read-only replica installed by the replication extension; second
    # class: droppable on eviction, never migrated, not in the location map.
    is_replica: bool = False
    # Migration support
    last_accessor: Optional[int] = None      # CPU id of last toucher
    migration_credit: int = 0                # saturating migration counter
    in_transit_until: float = -1.0           # cycle the pending move lands
    pending_cluster: Optional[int] = None    # move target, if in transit
    # Statistics
    access_count: int = 0
    migrations: int = 0

    def touch(self, cpu_id: int) -> None:
        self.access_count += 1
        self.last_accessor = cpu_id

    @property
    def in_transit(self) -> bool:
        return self.pending_cluster is not None

    def begin_migration(self, target_cluster: int, complete_cycle: float) -> None:
        if self.in_transit:
            raise RuntimeError("line is already migrating")
        self.pending_cluster = target_cluster
        self.in_transit_until = complete_cycle
        self.migration_credit = 0

    def finish_migration(self) -> int:
        if not self.in_transit:
            raise RuntimeError("line is not migrating")
        target = self.pending_cluster
        self.pending_cluster = None
        self.in_transit_until = -1.0
        self.migrations += 1
        return target

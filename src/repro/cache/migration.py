"""Cache-line migration policy, tailored to the 3D architecture (§4.2.3).

Data accessed repeatedly by a processor migrates *gradually* — one cluster
per move — toward that processor:

* **Intra-layer**: toward the accessing CPU's cluster, skipping clusters
  that contain *other* processors (so their local L2 access patterns are
  not disturbed).
* **Inter-layer**: toward the cluster containing the pillar closest to the
  accessing processor, on the data's own layer.  Data is never migrated
  across layers: clusters reachable through a single pillar hop are
  already "local vicinity", and avoiding cross-layer moves cuts migration
  frequency (and hence network traffic and power).

Migration triggers through a small saturating counter per line, reset when
the accessing processor changes, which prevents ping-ponging of data shared
by multiple processors.  Lazy migration (as in CMP-DNUCA) keeps the line
searchable at its old location until the transfer completes, avoiding
false misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.chip import ChipTopology, Cluster
from repro.params import LINE_FLITS


@dataclass(frozen=True)
class MigrationConfig:
    """Migration tunables; frozen, since the policy memoizes on them."""

    enabled: bool = True
    trigger_threshold: int = 2     # accesses by same CPU before a move
    # CMP-DNUCA (Beckmann & Wood) moves blocks along their *bankset*
    # chain — a one-dimensional path — rather than freely through the 2D
    # cluster grid.  When set, migration steps are restricted to the x
    # axis of the cluster grid, reproducing that policy's weaker
    # convergence.
    bankset_chains: bool = False


class MigrationPolicy:
    """Decides migration targets on the placed chip topology."""

    def __init__(self, topology: ChipTopology, config: Optional[MigrationConfig] = None):
        self.topology = topology
        self.config = config or MigrationConfig()
        # Both answers depend only on the placed topology and the
        # (frozen) config, neither of which changes after construction,
        # so each is computed once, on first use.  If migration ever
        # reads fault state, a FaultState listener must clear them, as
        # LatencyModel does for its path memo.
        self._targets: dict[tuple[int, int], Optional[int]] = {}
        self._transfers: dict[tuple[int, int], float] = {}

    # -- target selection -------------------------------------------------------

    def _tile_step_toward(
        self, cluster: Cluster, target_tile: tuple[int, int], cpu_id: int
    ) -> Optional[Cluster]:
        """One cluster-grid step from ``cluster`` toward ``target_tile``.

        Prefers the axis with the larger remaining distance; skips over
        clusters occupied by processors other than ``cpu_id`` by continuing
        in the same direction (the paper's skip rule).  Returns ``None``
        when no admissible step exists.
        """
        topo = self.topology
        tx, ty = target_tile
        dx = tx - cluster.tile_x
        dy = ty - cluster.tile_y
        if dx == 0 and dy == 0:
            return None
        steps: list[tuple[int, int]] = []
        if abs(dx) >= abs(dy) and dx != 0:
            steps.append((1 if dx > 0 else -1, 0))
        if dy != 0:
            steps.append((0, 1 if dy > 0 else -1))
        if abs(dx) < abs(dy) and dx != 0:
            steps.append((1 if dx > 0 else -1, 0))
        for step_x, step_y in steps:
            nx, ny = cluster.tile_x + step_x, cluster.tile_y + step_y
            while True:
                candidate = topo.cluster_by_tile(cluster.layer, nx, ny)
                if candidate is None:
                    break
                foreign_cpu = any(c != cpu_id for c in candidate.cpus)
                if not foreign_cpu:
                    return candidate
                # Skip over the processor cluster, same direction.
                if (nx, ny) == (tx, ty):
                    break
                nx += step_x
                ny += step_y
        return None

    def target_cluster(self, line_cluster_index: int, cpu_id: int) -> Optional[int]:
        """Where one migration step should move the line, or ``None``.

        ``None`` means the line is already as close as the policy wants it
        (local cluster, the CPU's vertical vicinity, or no admissible step).
        """
        key = (line_cluster_index, cpu_id)
        try:
            return self._targets[key]
        except KeyError:
            target = self._targets[key] = self._target(*key)
            return target

    def _target(self, line_cluster_index: int, cpu_id: int) -> Optional[int]:
        topo = self.topology
        cluster = topo.clusters[line_cluster_index]
        cpu_coord = topo.cpu_positions[cpu_id]
        cpu_cluster = topo.cpu_cluster(cpu_id)

        if cluster.layer == cpu_cluster.layer and cluster.layer == cpu_coord.z:
            # Intra-layer: gradual move toward the CPU's own cluster.
            if cluster.index == cpu_cluster.index:
                return None
            if self.config.bankset_chains:
                # B&W bankset migration: only along the x axis.
                target_tile = (cpu_cluster.tile_x, cluster.tile_y)
                if target_tile == (cluster.tile_x, cluster.tile_y):
                    return None
            else:
                target_tile = (cpu_cluster.tile_x, cpu_cluster.tile_y)
            target = self._tile_step_toward(cluster, target_tile, cpu_id)
            return target.index if target is not None else None

        # Inter-layer: move toward the pillar nearest the accessing CPU,
        # staying on the line's own layer.
        pillar_xy = topo.nearest_pillar(cpu_coord)
        pillar_cluster = topo.cluster_at(
            type(cpu_coord)(pillar_xy[0], pillar_xy[1], cluster.layer)
        )
        if cluster.index == pillar_cluster.index:
            return None
        target = self._tile_step_toward(
            cluster, (pillar_cluster.tile_x, pillar_cluster.tile_y), cpu_id
        )
        return target.index if target is not None else None

    # -- trigger logic --------------------------------------------------------------

    def should_migrate(self, credit: int) -> bool:
        return self.config.enabled and credit >= self.config.trigger_threshold

    def transfer_latency(self, from_cluster: int, to_cluster: int) -> float:
        """Cycles for the line transfer, used by lazy migration.

        A coarse hop-distance estimate is sufficient here: it only controls
        how long the line stays pinned at its old location.
        """
        key = (from_cluster, to_cluster)
        try:
            return self._transfers[key]
        except KeyError:
            topo = self.topology
            hops = topo.cluster_distance_hops(
                topo.clusters[from_cluster], topo.clusters[to_cluster]
            )
            # One line moves per migration packet.
            latency = self._transfers[key] = float(hops + LINE_FLITS)
            return latency

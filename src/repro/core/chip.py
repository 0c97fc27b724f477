"""3D chip geometry: layers, cluster tiling, banks, CPUs, and pillars.

The L2 space is divided into 16 clusters of banks (paper Table 4: 16
clusters of 16 x 64KB banks for the 16 MB cache).  Clusters tile each
device layer; the tiling adapts to the layer count so total capacity and
cluster count stay constant:

* 1 layer  — 4 x 4 clusters on one 16 x 16 mesh (the 2D baselines),
* 2 layers — 4 x 2 clusters per layer on 16 x 8 meshes,
* 4 layers — 2 x 2 clusters per layer on 8 x 8 meshes.

Larger caches (Fig 16) grow the *cluster* (more banks per cluster) while
keeping 16 clusters and 16-way associativity, exactly as the paper scales.

Every mesh node hosts an L2 bank; CPU nodes additionally host a CPU (the
paper notes the CPU+L1 may span the area of multiple banks — we co-locate
the displaced bank at the CPU node, preserving total capacity).  Each
cluster has one tag array, placed at the cluster's CPU if it has one
(direct connection, per Section 4.1) and at the cluster's center node
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.noc.routing import Coord
from repro.params import BANK_KB, L2_WAYS, LINE_BYTES, NUM_CLUSTERS


class NodeRole(enum.Enum):
    """What a mesh node hosts besides its router."""

    BANK = "bank"
    CPU = "cpu"              # CPU + co-located bank
    PILLAR_BANK = "pillar"   # bank whose router also hosts a pillar


# banks-per-cluster -> cluster tile (width, height) in nodes
_CLUSTER_TILES = {
    16: (4, 4), 32: (8, 4), 64: (8, 8), 128: (16, 8),
    # Beyond-paper scale: 256 MB over 4 layers tiles each cluster
    # 16x16, giving a 32x32-per-layer mesh.
    256: (16, 16),
}

# clusters-per-layer -> cluster-grid (columns, rows)
_CLUSTER_GRIDS = {16: (4, 4), 8: (4, 2), 4: (2, 2), 2: (2, 1), 1: (1, 1)}


@dataclass
class ChipConfig:
    """Physical configuration of the 3D chip (paper Table 4 defaults).

    The bank size, line size, associativity and cluster count are the
    constants of :mod:`repro.params`.
    """

    num_cpus: int = 8
    num_layers: int = 2
    num_pillars: int = 8
    cache_mb: int = 16

    def validate(self) -> None:
        if self.num_layers not in (1, 2, 4, 8):
            raise ValueError(f"unsupported layer count {self.num_layers}")
        if self.total_banks % NUM_CLUSTERS != 0:
            raise ValueError("banks must divide evenly across clusters")
        if self.banks_per_cluster not in _CLUSTER_TILES:
            raise ValueError(
                f"no tiling for {self.banks_per_cluster} banks/cluster"
            )
        if self.clusters_per_layer not in _CLUSTER_GRIDS:
            raise ValueError(
                f"no grid for {self.clusters_per_layer} clusters/layer"
            )
        if self.num_layers > 1 and self.num_pillars < 1:
            raise ValueError("3D chips need at least one pillar")
        if self.num_cpus < 1:
            raise ValueError("need at least one CPU")

    @property
    def total_banks(self) -> int:
        return self.cache_mb * 1024 // BANK_KB

    @property
    def banks_per_cluster(self) -> int:
        return self.total_banks // NUM_CLUSTERS

    @property
    def clusters_per_layer(self) -> int:
        return NUM_CLUSTERS // self.num_layers

    @property
    def cluster_tile(self) -> tuple[int, int]:
        """(width, height) of one cluster in mesh nodes."""
        return _CLUSTER_TILES[self.banks_per_cluster]

    @property
    def cluster_grid(self) -> tuple[int, int]:
        """(columns, rows) of cluster tiles on each layer."""
        return _CLUSTER_GRIDS[self.clusters_per_layer]

    @property
    def mesh_dims(self) -> tuple[int, int]:
        """(width, height) of each layer's mesh in nodes."""
        tile_w, tile_h = self.cluster_tile
        grid_w, grid_h = self.cluster_grid
        return tile_w * grid_w, tile_h * grid_h

    @property
    def lines_per_bank(self) -> int:
        return BANK_KB * 1024 // LINE_BYTES

    @property
    def sets_per_cluster(self) -> int:
        """Index space of one cluster (each set is 16-way)."""
        return self.banks_per_cluster * self.lines_per_bank // L2_WAYS

    @property
    def sets_per_bank(self) -> int:
        return self.lines_per_bank // L2_WAYS


@dataclass
class Cluster:
    """One cluster of L2 banks with its shared tag array."""

    index: int
    layer: int
    tile_x: int          # position in the per-layer cluster grid
    tile_y: int
    origin: tuple[int, int]            # mesh (x, y) of the tile's corner
    tile: tuple[int, int]              # (width, height) in nodes
    bank_nodes: list[Coord] = field(default_factory=list)
    cpus: list[int] = field(default_factory=list)
    tag_node: Optional[Coord] = None

    @property
    def center(self) -> Coord:
        ox, oy = self.origin
        tw, th = self.tile
        return Coord(ox + tw // 2, oy + th // 2, self.layer)

    def contains(self, coord: Coord) -> bool:
        ox, oy = self.origin
        tw, th = self.tile
        return (
            coord.z == self.layer
            and ox <= coord.x < ox + tw
            and oy <= coord.y < oy + th
        )


class ChipTopology:
    """Fully placed chip: clusters, CPU positions, pillars, node roles.

    Built by :func:`repro.core.placement.build_topology`; this class holds
    the result and answers geometric queries for the cache-management
    policies and the latency models.
    """

    def __init__(
        self,
        config: ChipConfig,
        cpu_positions: dict[int, Coord],
        pillar_xys: list[tuple[int, int]],
    ):
        config.validate()
        self.config = config
        self.cpu_positions = dict(cpu_positions)
        self.pillar_xys = list(pillar_xys)
        self.clusters: list[Cluster] = []
        self._cluster_by_tile: dict[tuple[int, int, int], Cluster] = {}
        self._build_clusters()
        self._check()
        self._assign_cpus()

    def _build_clusters(self) -> None:
        cfg = self.config
        tile_w, tile_h = cfg.cluster_tile
        grid_w, grid_h = cfg.cluster_grid
        index = 0
        for layer in range(cfg.num_layers):
            for tile_y in range(grid_h):
                for tile_x in range(grid_w):
                    origin = (tile_x * tile_w, tile_y * tile_h)
                    cluster = Cluster(
                        index=index,
                        layer=layer,
                        tile_x=tile_x,
                        tile_y=tile_y,
                        origin=origin,
                        tile=(tile_w, tile_h),
                    )
                    cluster.bank_nodes = [
                        Coord(origin[0] + dx, origin[1] + dy, layer)
                        for dy in range(tile_h)
                        for dx in range(tile_w)
                    ]
                    self.clusters.append(cluster)
                    self._cluster_by_tile[(layer, tile_x, tile_y)] = cluster
                    index += 1

    def _assign_cpus(self) -> None:
        for cpu_id, coord in self.cpu_positions.items():
            cluster = self.cluster_at(coord)
            cluster.cpus.append(cpu_id)
        for cluster in self.clusters:
            if cluster.cpus:
                first_cpu = min(cluster.cpus)
                cluster.tag_node = self.cpu_positions[first_cpu]
            else:
                cluster.tag_node = cluster.center

    def _check(self) -> None:
        cfg = self.config
        width, height = cfg.mesh_dims
        seen: set[Coord] = set()
        for cpu_id, coord in self.cpu_positions.items():
            if not (0 <= coord.x < width and 0 <= coord.y < height):
                raise ValueError(f"CPU {cpu_id} at {coord} is off-mesh")
            if not 0 <= coord.z < cfg.num_layers:
                raise ValueError(f"CPU {cpu_id} on invalid layer {coord.z}")
            if coord in seen:
                raise ValueError(f"two CPUs share node {coord}")
            seen.add(coord)
        for x, y in self.pillar_xys:
            if not (0 <= x < width and 0 <= y < height):
                raise ValueError(f"pillar ({x},{y}) is off-mesh")

    # -- queries ------------------------------------------------------------

    def cluster_at(self, coord: Coord) -> Cluster:
        """The cluster whose tile contains ``coord``."""
        tile_w, tile_h = self.config.cluster_tile
        key = (coord.z, coord.x // tile_w, coord.y // tile_h)
        try:
            return self._cluster_by_tile[key]
        except KeyError:
            raise ValueError(f"{coord} is outside the chip") from None

    def cluster_by_tile(self, layer: int, tile_x: int, tile_y: int) -> Optional[Cluster]:
        return self._cluster_by_tile.get((layer, tile_x, tile_y))

    def cpu_cluster(self, cpu_id: int) -> Cluster:
        return self.cluster_at(self.cpu_positions[cpu_id])

    def node_role(self, coord: Coord) -> NodeRole:
        if coord in set(self.cpu_positions.values()):
            return NodeRole.CPU
        if (coord.x, coord.y) in self.pillar_xys and self.config.num_layers > 1:
            return NodeRole.PILLAR_BANK
        return NodeRole.BANK

    def nearest_pillar(self, coord: Coord) -> tuple[int, int]:
        """The pillar with the smallest in-plane distance from ``coord``."""
        if not self.pillar_xys:
            raise ValueError("chip has no pillars")
        return min(
            self.pillar_xys,
            key=lambda xy: (abs(coord.x - xy[0]) + abs(coord.y - xy[1]), xy),
        )

    def in_plane_neighbors(self, cluster: Cluster) -> list[Cluster]:
        """Clusters adjacent to ``cluster`` in its layer's tile grid."""
        result = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            neighbor = self.cluster_by_tile(
                cluster.layer, cluster.tile_x + dx, cluster.tile_y + dy
            )
            if neighbor is not None:
                result.append(neighbor)
        return result

    def vertical_neighbors(self, cluster: Cluster) -> list[Cluster]:
        """Clusters on other layers reached by the pillar tag broadcast.

        The dTDMA bus is a broadcast medium: a tag query placed on the
        pillar is heard on *every* layer, and from each layer's pillar node
        it fans out to the clusters in the pillar's vicinity.  This is the
        "vicinity cylinder" of the paper's Figure 8 — on each other layer,
        the mirror of the local neighbourhood: the same-tile cluster plus
        its in-plane neighbours.
        """
        result = []
        for layer in range(self.config.num_layers):
            if layer == cluster.layer:
                continue
            mirror = self.cluster_by_tile(
                layer, cluster.tile_x, cluster.tile_y
            )
            if mirror is None:
                continue
            result.append(mirror)
            result.extend(self.in_plane_neighbors(mirror))
        return result

    def cluster_distance_hops(self, a: Cluster, b: Cluster) -> int:
        """Approximate hop distance between cluster centers.

        Inter-layer distance goes through the pillar nearest the source
        cluster's center (one bus hop).
        """
        ca, cb = a.center, b.center
        if a.layer == b.layer:
            return ca.manhattan_2d(cb)
        px, py = self.nearest_pillar(ca)
        return (
            abs(ca.x - px) + abs(ca.y - py)
            + 1
            + abs(cb.x - px) + abs(cb.y - py)
        )

    def describe(self) -> str:
        cfg = self.config
        width, height = cfg.mesh_dims
        lines = [
            f"Chip: {cfg.num_layers} layer(s) of {width}x{height} nodes, "
            f"{cfg.total_banks} banks x {BANK_KB}KB = {cfg.cache_mb}MB L2",
            f"Clusters: {NUM_CLUSTERS} "
            f"({cfg.clusters_per_layer}/layer, {cfg.banks_per_cluster} banks each)",
            f"Pillars: {self.pillar_xys}",
        ]
        for cpu_id in sorted(self.cpu_positions):
            coord = self.cpu_positions[cpu_id]
            lines.append(
                f"  CPU {cpu_id}: {tuple(coord)} in cluster "
                f"{self.cluster_at(coord).index}"
            )
        return "\n".join(lines)

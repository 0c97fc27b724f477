"""Unit tests for chip geometry: configs, cluster tiling, queries."""

import pytest

from repro.core.chip import ChipConfig, NodeRole
from repro.core.placement import build_topology, PlacementPolicy
from repro.noc.routing import Coord


class TestChipConfig:
    def test_default_is_paper_table4(self):
        config = ChipConfig()
        assert config.total_banks == 256
        assert config.banks_per_cluster == 16
        assert config.clusters_per_layer == 8
        assert config.mesh_dims == (16, 8)
        assert config.sets_per_bank == 64
        assert config.sets_per_cluster == 1024

    def test_single_layer_geometry(self):
        config = ChipConfig(num_layers=1, num_pillars=0)
        assert config.mesh_dims == (16, 16)
        assert config.clusters_per_layer == 16

    def test_four_layer_geometry(self):
        config = ChipConfig(num_layers=4)
        assert config.mesh_dims == (8, 8)
        assert config.clusters_per_layer == 4

    def test_larger_caches_grow_clusters(self):
        assert ChipConfig(cache_mb=32).banks_per_cluster == 32
        assert ChipConfig(cache_mb=64).banks_per_cluster == 64
        assert ChipConfig(cache_mb=32).mesh_dims == (32, 8)
        assert ChipConfig(cache_mb=64, num_layers=1,
                          num_pillars=0).mesh_dims == (32, 32)

    def test_rejects_odd_layer_count(self):
        with pytest.raises(ValueError):
            ChipConfig(num_layers=3).validate()

    def test_rejects_missing_pillars_3d(self):
        with pytest.raises(ValueError):
            ChipConfig(num_layers=2, num_pillars=0).validate()

    def test_lines_per_bank(self):
        assert ChipConfig().lines_per_bank == 1024


class TestTopology:
    @pytest.fixture()
    def topo3d(self):
        return build_topology(ChipConfig())

    @pytest.fixture()
    def topo2d(self):
        return build_topology(ChipConfig(num_layers=1, num_pillars=0))

    def test_cluster_count(self, topo3d):
        assert len(topo3d.clusters) == 16

    def test_every_cluster_has_16_bank_nodes(self, topo3d):
        for cluster in topo3d.clusters:
            assert len(cluster.bank_nodes) == 16

    def test_bank_nodes_tile_the_mesh(self, topo3d):
        all_nodes = {
            node for cluster in topo3d.clusters for node in cluster.bank_nodes
        }
        width, height = topo3d.config.mesh_dims
        assert len(all_nodes) == width * height * 2

    def test_cluster_at_consistency(self, topo3d):
        for cluster in topo3d.clusters:
            for node in cluster.bank_nodes:
                assert topo3d.cluster_at(node) is cluster

    def test_cluster_at_rejects_outside(self, topo3d):
        with pytest.raises(ValueError):
            topo3d.cluster_at(Coord(99, 0, 0))

    def test_tag_node_at_cpu_when_present(self, topo3d):
        for cpu_id, coord in topo3d.cpu_positions.items():
            cluster = topo3d.cluster_at(coord)
            if cluster.cpus[0] == cpu_id:
                assert cluster.tag_node == coord

    def test_tag_node_at_center_otherwise(self, topo3d):
        for cluster in topo3d.clusters:
            if not cluster.cpus:
                assert cluster.tag_node == cluster.center

    def test_node_roles(self, topo3d):
        cpu_node = topo3d.cpu_positions[0]
        assert topo3d.node_role(cpu_node) == NodeRole.CPU
        px, py = topo3d.pillar_xys[0]
        assert topo3d.node_role(Coord(px, py, 0)) == NodeRole.PILLAR_BANK

    def test_nearest_pillar(self, topo3d):
        px, py = topo3d.pillar_xys[0]
        assert topo3d.nearest_pillar(Coord(px, py, 0)) == (px, py)

    def test_nearest_pillar_requires_pillars(self, topo2d):
        with pytest.raises(ValueError):
            topo2d.nearest_pillar(Coord(0, 0, 0))

    def test_in_plane_neighbors_2d_interior(self, topo2d):
        interior = topo2d.cluster_by_tile(0, 1, 1)
        assert len(topo2d.in_plane_neighbors(interior)) == 4
        corner = topo2d.cluster_by_tile(0, 0, 0)
        assert len(topo2d.in_plane_neighbors(corner)) == 2

    def test_vertical_neighbors_cover_mirror_region(self, topo3d):
        cluster = topo3d.cluster_by_tile(0, 1, 1)
        neighbors = topo3d.vertical_neighbors(cluster)
        layers = {n.layer for n in neighbors}
        assert layers == {1}
        mirror_tiles = {(n.tile_x, n.tile_y) for n in neighbors}
        assert (1, 1) in mirror_tiles          # same tile
        assert (0, 1) in mirror_tiles          # mirror's neighbours too

    def test_vertical_neighbors_empty_in_2d(self, topo2d):
        assert topo2d.vertical_neighbors(topo2d.clusters[0]) == []

    def test_cluster_distance_symmetric_same_layer(self, topo3d):
        a, b = topo3d.clusters[0], topo3d.clusters[3]
        assert (
            topo3d.cluster_distance_hops(a, b)
            == topo3d.cluster_distance_hops(b, a)
        )

    def test_describe_mentions_all_cpus(self, topo3d):
        text = topo3d.describe()
        for cpu_id in range(8):
            assert f"CPU {cpu_id}:" in text

    def test_rejects_colliding_cpus(self):
        config = ChipConfig()
        with pytest.raises(ValueError, match="share"):
            from repro.core.chip import ChipTopology

            ChipTopology(
                config,
                {0: Coord(1, 1, 0), 1: Coord(1, 1, 0)},
                [(2, 2)],
            )

    def test_rejects_offchip_cpu(self):
        from repro.core.chip import ChipTopology

        with pytest.raises(ValueError, match="off-mesh"):
            ChipTopology(ChipConfig(), {0: Coord(99, 1, 0)}, [(2, 2)])


class TestBeyondPaperScale:
    def test_256mb_4layer_tiles_to_32x32(self):
        """The 256-bank cluster tiling enables the 32x32x4 sweep cell."""
        config = ChipConfig(
            cache_mb=256, num_layers=4, num_pillars=16
        )
        config.validate()
        assert config.mesh_dims == (32, 32)
        assert config.total_banks == 4096
        assert config.banks_per_cluster == 256
        assert config.cluster_tile == (16, 16)

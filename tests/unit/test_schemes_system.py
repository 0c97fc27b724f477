"""Unit tests for scheme setup and the assembled system."""

import pytest

from repro.core.schemes import Scheme, make_chip_config
from repro.core.system import NetworkInMemory, SystemConfig
from repro.core.placement import PlacementPolicy
from repro.cache.nuca import AccessType
from repro.cpu.trace import OP_READ, OP_WRITE
from repro.params import (
    BANK_LATENCY, LINE_FLITS, MEMORY_LATENCY, REQUEST_FLITS, TAG_LATENCY,
)


class TestSchemes:
    def test_scheme_flags(self):
        assert Scheme.CMP_DNUCA.perfect_search
        assert not Scheme.CMP_DNUCA_3D.perfect_search
        assert not Scheme.CMP_SNUCA_3D.migrates
        assert Scheme.CMP_DNUCA_3D.is_3d
        assert not Scheme.CMP_DNUCA_2D.is_3d

    def test_2d_schemes_single_layer(self):
        for scheme in (Scheme.CMP_DNUCA, Scheme.CMP_DNUCA_2D):
            setup = make_chip_config(scheme)
            assert setup.chip.num_layers == 1
            assert setup.chip.num_pillars == 0

    def test_edge_vs_center_placement(self):
        assert (
            make_chip_config(Scheme.CMP_DNUCA).placement
            == PlacementPolicy.EDGE_2D
        )
        assert (
            make_chip_config(Scheme.CMP_DNUCA_2D).placement
            == PlacementPolicy.CENTER_2D
        )

    def test_3d_uses_requested_layers(self):
        setup = make_chip_config(Scheme.CMP_SNUCA_3D, num_layers=4)
        assert setup.chip.num_layers == 4

    def test_shared_pillars_use_algorithm1(self):
        setup = make_chip_config(Scheme.CMP_DNUCA_3D, num_pillars=2)
        assert setup.placement == PlacementPolicy.ALGORITHM1

    def test_3d_rejects_one_layer(self):
        with pytest.raises(ValueError):
            make_chip_config(Scheme.CMP_DNUCA_3D, num_layers=1)


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(mode="warp").validate()

    @pytest.mark.parametrize(
        "field,value",
        [("request_flits", 0), ("data_flits", 0), ("memory_latency", -300)],
    )
    def test_rejects_empty_packets_and_negative_memory(self, field, value):
        """The packet sizes and the memory latency are Table 4 constants
        now, which nothing can set; each case holds its constant inside
        the bound that refuses the value: a packet carries at least one
        flit, and a memory access takes no negative time."""
        constant, bound = {
            "request_flits": (REQUEST_FLITS, lambda flits: flits >= 1),
            "data_flits": (LINE_FLITS, lambda flits: flits >= 1),
            "memory_latency": (MEMORY_LATENCY, lambda cycles: cycles >= 0),
        }[field]
        assert not bound(value)
        assert bound(constant)

    def test_default_is_paper(self):
        config = SystemConfig()
        assert (config.cache_mb, config.num_layers, config.num_pillars,
                config.num_cpus) == (16, 2, 8, 8)
        assert (TAG_LATENCY, BANK_LATENCY, MEMORY_LATENCY, LINE_FLITS) == (
            4, 5, 260, 4
        )


class TestNetworkInMemory:
    @pytest.fixture()
    def system(self):
        return NetworkInMemory(SystemConfig(scheme=Scheme.CMP_DNUCA_3D))

    def test_transaction_miss_then_hit(self, system):
        miss = system.l2_transaction(0, 0x4000_0000, AccessType.READ, 0.0)
        assert not miss.hit
        assert miss.latency >= MEMORY_LATENCY
        hit = system.l2_transaction(0, 0x4000_0000, AccessType.READ, 500.0)
        assert hit.hit
        assert hit.latency < miss.latency

    def test_local_hit_is_cheap(self, system):
        # Craft an address homed at CPU 0's local cluster.
        local = system.l2.search.plan(0).local_cluster
        address = system.l2.addr_map.compose(local, 0)
        system.l2_transaction(0, address, AccessType.READ, 0.0)
        hit = system.l2_transaction(0, address, AccessType.READ, 500.0)
        assert hit.hit and hit.search_step == 1
        assert hit.latency < 40

    def test_write_hits_cheaper_than_read_hits(self, system):
        remote = system.l2.search.plan(0).step2[0]
        addr_a = system.l2.addr_map.compose(remote, 0)
        addr_b = system.l2.addr_map.compose(remote, 1)
        system.l2_transaction(0, addr_a, AccessType.READ, 0.0)
        system.l2_transaction(0, addr_b, AccessType.READ, 0.0)
        read = system.l2_transaction(0, addr_a, AccessType.READ, 500.0)
        write = system.l2_transaction(0, addr_b, AccessType.WRITE, 500.0)
        assert write.latency < read.latency

    def test_run_trace_validates_cpu_count(self, system):
        with pytest.raises(ValueError):
            system.run_trace([[(0, OP_READ, 0x100)]])

    def test_run_trace_small(self, system):
        traces = [
            [(1, OP_READ, 0x1000 * (cpu + 1)), (1, OP_WRITE, 0x2000)]
            for cpu in range(8)
        ]
        stats = system.run_trace(traces)
        assert stats.l2_accesses > 0
        assert stats.instructions == 8 * 4

    def test_warmup_resets_measurements(self, system):
        traces = [
            [(1, OP_READ, 0x1000 * (cpu + 1))] * 10 for cpu in range(8)
        ]
        stats = system.run_trace(traces, warmup_events=40)
        # Half the events are warm-up: measured instruction count halves.
        assert stats.instructions == pytest.approx(80, abs=8)

    def test_memory_node_on_chip(self, system):
        width, height = system.setup.chip.mesh_dims
        assert 0 <= system.memory_node.x < width
        assert 0 <= system.memory_node.y < height

    def test_perfect_search_scheme_prices_differently(self):
        ideal = NetworkInMemory(SystemConfig(scheme=Scheme.CMP_DNUCA))
        remote_cluster = 9
        address = ideal.l2.addr_map.compose(remote_cluster, 0)
        ideal.l2_transaction(0, address, AccessType.READ, 0.0)
        hit = ideal.l2_transaction(0, address, AccessType.READ, 500.0)
        assert hit.hit

    def test_snuca_never_migrates(self):
        static = NetworkInMemory(SystemConfig(scheme=Scheme.CMP_SNUCA_3D))
        address = static.l2.addr_map.compose(12, 0)
        for cycle in range(10):
            result = static.l2_transaction(
                0, address, AccessType.READ, float(cycle * 10)
            )
            assert not result.migrated

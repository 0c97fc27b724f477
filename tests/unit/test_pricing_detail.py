"""Detailed pricing-path tests, run in both timing modes."""

import pytest

from repro.cache.nuca import AccessType
from repro.core.schemes import Scheme
from repro.core.system import NetworkInMemory, SystemConfig


@pytest.fixture(scope="module", params=["model", "cycle"])
def system(request):
    return NetworkInMemory(
        SystemConfig(scheme=Scheme.CMP_DNUCA_3D, mode=request.param)
    )


def _hit(system, cpu, cluster, index=0, op=AccessType.READ, cycle=1e4):
    address = system.l2.addr_map.compose(cluster, index)
    system.l2_transaction(cpu, address, AccessType.READ, 0.0)
    return system.l2_transaction(cpu, address, op, cycle)


def test_step1_hit_cheaper_than_step2_hit(system):
    plan = system.l2.search.plan(0)
    neighbor = next(c for c in plan.step1 if c != plan.local_cluster)
    remote = plan.step2[0]
    near = _hit(system, 0, neighbor, index=1)
    far = _hit(system, 0, remote, index=2)
    assert near.search_step == 1 and far.search_step == 2
    assert near.latency < far.latency


def test_local_hit_cheapest(system):
    plan = system.l2.search.plan(0)
    local = _hit(system, 0, plan.local_cluster, index=3)
    neighbor = next(c for c in plan.step1 if c != plan.local_cluster)
    near = _hit(system, 0, neighbor, index=4)
    assert local.search_step == 1 and local.latency < 50
    assert local.latency < near.latency


def test_miss_costs_at_least_memory_plus_search(system):
    result = system.l2_transaction(0, 0x7abc_0000, AccessType.READ, 0.0)
    assert not result.hit
    assert result.latency > system.config.memory_latency + 20
    again = system.l2_transaction(0, 0x7abc_0000, AccessType.READ, 1e4)
    assert again.hit and again.latency < result.latency


def test_cross_layer_hit_priced_with_bus(system):
    plan = system.l2.search.plan(0)
    topo = system.topology
    cpu_layer = topo.cpu_positions[0].z
    other = next(
        c for c in plan.step1 + plan.step2
        if topo.clusters[c].layer != cpu_layer
    )
    address = system.l2.addr_map.compose(other, 5)
    system.l2_transaction(0, address, AccessType.READ, 0.0)
    before = system.collect_stats().bus_flits
    result = system.l2_transaction(0, address, AccessType.READ, 1e4)
    assert result.hit
    assert system.collect_stats().bus_flits > before


def test_vertical_mirror_cluster_is_step1(system):
    """The Figure-8 cylinder: the same-tile cluster above/below the CPU
    resolves in step 1 despite being on another layer."""
    topo = system.topology
    local = topo.cpu_cluster(0)
    mirror = topo.cluster_by_tile(
        1 - local.layer, local.tile_x, local.tile_y
    )
    plan = system.l2.search.plan(0)
    assert mirror.index in plan.step1
    result = _hit(system, 0, mirror.index, index=6)
    assert result.search_step == 1

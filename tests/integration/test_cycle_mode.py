"""Cycle-accurate system mode: real packets for every transaction leg."""

import random

import pytest

from repro.cache.nuca import AccessType
from repro.core.schemes import Scheme
from repro.core.system import NetworkInMemory, SystemConfig
from repro.cpu.trace import OP_READ


@pytest.fixture(scope="module")
def cycle_system():
    return NetworkInMemory(
        SystemConfig(scheme=Scheme.CMP_DNUCA_3D, mode="cycle")
    )


def test_cycle_mode_constructs_real_fabric(cycle_system):
    network = cycle_system.pricer.medium.network
    chip = cycle_system.setup.chip
    assert len(network.routers) == chip.mesh_dims[0] * chip.mesh_dims[1] * 2
    assert len(network.pillars) == 8


def test_cycle_mode_miss_then_hit(cycle_system):
    miss = cycle_system.l2_transaction(0, 0x5000_0000, AccessType.READ, 0.0)
    assert not miss.hit
    hit = cycle_system.l2_transaction(0, 0x5000_0000, AccessType.READ, 1e4)
    assert hit.hit
    assert hit.latency < miss.latency


def test_cycle_mode_local_hit_cheap(cycle_system):
    local = cycle_system.l2.search.plan(1).local_cluster
    address = cycle_system.l2.addr_map.compose(local, 64)
    cycle_system.l2_transaction(1, address, AccessType.READ, 0.0)
    hit = cycle_system.l2_transaction(1, address, AccessType.READ, 1e4)
    assert hit.search_step == 1
    assert hit.latency < 50


def test_cycle_mode_agrees_with_model_on_hits():
    """For identical transactions, model and cycle pricing must agree
    within the model's calibration tolerance."""
    results = {}
    for mode in ("model", "cycle"):
        system = NetworkInMemory(
            SystemConfig(scheme=Scheme.CMP_SNUCA_3D, mode=mode)
        )
        local = system.l2.search.plan(0).local_cluster
        remote = system.l2.search.plan(0).step2[0]
        latencies = []
        for cluster in (local, remote):
            address = system.l2.addr_map.compose(cluster, 128)
            system.l2_transaction(0, address, AccessType.READ, 0.0)
            hit = system.l2_transaction(0, address, AccessType.READ, 1e4)
            latencies.append(hit.latency)
        results[mode] = latencies
    for model_latency, cycle_latency in zip(results["model"], results["cycle"]):
        assert model_latency == pytest.approx(cycle_latency, rel=0.25, abs=4)


@pytest.mark.parametrize(
    "scheme",
    [Scheme.CMP_DNUCA, Scheme.CMP_SNUCA_3D, Scheme.CMP_DNUCA_3D],
    ids=lambda scheme: scheme.value,
)
def test_both_modes_count_the_same_traffic(scheme):
    """One fixed transaction sequence sends the same packets over the same
    paths in both modes, so the run's flit-hop and bus-flit totals agree."""
    rng = random.Random(14)
    ops = (AccessType.READ, AccessType.READ, AccessType.WRITE,
           AccessType.IFETCH)
    calls = [
        (rng.randrange(8), rng.randrange(16), rng.randrange(8),
         rng.choice(ops), 40.0 * step)
        for step in range(300)
    ]
    totals = {}
    for mode in ("model", "cycle"):
        system = NetworkInMemory(SystemConfig(scheme=scheme, mode=mode))
        for cpu, cluster, index, op, cycle in calls:
            address = system.l2.addr_map.compose(cluster, index)
            system.l2_transaction(cpu, address, op, cycle)
        stats = system.collect_stats()
        totals[mode] = (stats.flit_hops, stats.bus_flits)
    assert totals["cycle"] == totals["model"]
    assert totals["model"][0] > 0
    assert (totals["model"][1] > 0) == (scheme != Scheme.CMP_DNUCA)


def test_cycle_mode_runs_a_small_trace():
    system = NetworkInMemory(
        SystemConfig(scheme=Scheme.CMP_DNUCA_3D, mode="cycle")
    )
    traces = [
        [(2, OP_READ, 0x1000 + cpu * 0x40), (2, OP_READ, 0x9000 + cpu * 0x40)]
        for cpu in range(8)
    ]
    stats = system.run_trace(traces)
    assert stats.l2_accesses == 16
    assert stats.avg_l2_miss_latency > system.config.memory_latency

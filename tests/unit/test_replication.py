"""Unit tests for the replication extension."""

import pytest

from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.cache.nuca import AccessType
from repro.cache.replication import ReplicatingNucaL2, ReplicationConfig


@pytest.fixture()
def nuca():
    return ReplicatingNucaL2(build_topology(ChipConfig()))


def remote_address(nuca, cpu_id):
    """An address homed in a step-2 cluster for ``cpu_id``."""
    remote = nuca.search.plan(cpu_id).step2[0]
    return nuca.addr_map.compose(remote, 0)


def test_replica_installed_after_repeated_remote_reads(nuca):
    address = remote_address(nuca, 0)
    nuca.access(0, address, AccessType.READ, 0.0)       # miss, placed
    nuca.access(0, address, AccessType.READ, 10.0)      # remote hit 1
    nuca.access(0, address, AccessType.READ, 20.0)      # remote hit 2 -> replicate
    local = nuca.search.plan(0).local_cluster
    assert local in nuca.replicas_of(address)


def test_replica_hit_resolves_locally(nuca):
    address = remote_address(nuca, 0)
    for cycle in range(3):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    outcome = nuca.access(0, address, AccessType.READ, 100.0)
    assert outcome.hit
    assert outcome.search_step == 1
    assert outcome.cluster == nuca.search.plan(0).local_cluster
    assert nuca.stats.scope("l2").counter("replica_hits").value == 1


def test_write_invalidates_replicas(nuca):
    address = remote_address(nuca, 0)
    for cycle in range(3):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    assert nuca.replica_count == 1
    nuca.access(1, address, AccessType.WRITE, 100.0)
    assert nuca.replica_count == 0
    assert nuca.stats.scope("l2").counter("replica_invalidations").value == 1


def test_read_after_invalidation_goes_remote_again(nuca):
    address = remote_address(nuca, 0)
    for cycle in range(3):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    nuca.access(1, address, AccessType.WRITE, 100.0)
    outcome = nuca.access(0, address, AccessType.READ, 200.0)
    assert outcome.search_step == 2  # replica gone, primary is remote


def test_replication_respects_capacity_guard():
    nuca = ReplicatingNucaL2(
        build_topology(ChipConfig()),
        ReplicationConfig(min_free_ways=17),  # never enough room (16 ways)
    )
    address = remote_address(nuca, 0)
    for cycle in range(5):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    assert nuca.replica_count == 0


def test_replication_disabled():
    nuca = ReplicatingNucaL2(
        build_topology(ChipConfig()), ReplicationConfig(enabled=False)
    )
    address = remote_address(nuca, 0)
    for cycle in range(5):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    assert nuca.replica_count == 0


def test_location_map_ignores_replicas(nuca):
    address = remote_address(nuca, 0)
    for cycle in range(3):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    # The primary copy's location is unchanged by replication.
    assert nuca.location_of(address) == nuca.addr_map.decode(address).home_cluster


def test_replica_eviction_cleans_map(nuca):
    address = remote_address(nuca, 0)
    for cycle in range(3):
        nuca.access(0, address, AccessType.READ, cycle * 10.0)
    local = nuca.search.plan(0).local_cluster
    decoded = nuca.addr_map.decode(address)
    # Fill the local set with primaries until the replica is displaced.
    for way in range(16):
        tag = local + (way + 50) * 16
        filler = nuca.addr_map.compose(tag, decoded.index)
        nuca.access(0, filler, AccessType.READ, 1000.0 + way)
    assert local not in nuca.replicas_of(address)
    # And the displaced replica never perturbed the primaries' map.
    assert nuca.location_of(address) is not None

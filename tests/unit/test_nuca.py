"""Unit tests for the NUCA L2: search, placement, migration, eviction."""

import dataclasses

import pytest

from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.core.schemes import Scheme, make_chip_config
from repro.cache.nuca import NucaL2, AccessType
from repro.cache.migration import MigrationConfig, MigrationPolicy
from repro.cache.search import SearchPolicy
from repro.faults.state import FaultState


@pytest.fixture()
def topo3d():
    return build_topology(ChipConfig())


@pytest.fixture()
def topo2d():
    return build_topology(ChipConfig(num_layers=1, num_pillars=0))


def address_for_cluster(nuca, cluster_index, index=0):
    """Compose an address whose home cluster is ``cluster_index``."""
    tag = cluster_index  # low tag bits pick the cluster
    return nuca.addr_map.compose(tag, index)


class TestSearchPolicy:
    def test_step1_includes_local(self, topo3d):
        policy = SearchPolicy(topo3d)
        plan = policy.plan(0)
        assert plan.local_cluster in plan.step1

    def test_steps_partition_all_clusters(self, topo3d):
        plan = SearchPolicy(topo3d).plan(0)
        assert sorted(plan.step1 + plan.step2) == list(range(16))

    def test_3d_step1_covers_more_than_2d(self, topo3d, topo2d):
        plan3d = SearchPolicy(topo3d).plan(0)
        plan2d = SearchPolicy(topo2d).plan(0)
        assert len(plan3d.step1) > len(plan2d.step1)

    def test_plans_cached(self, topo3d):
        policy = SearchPolicy(topo3d)
        assert policy.plan(0) is policy.plan(0)


class TestNucaBasics:
    def test_miss_places_at_home_cluster(self, topo3d):
        nuca = NucaL2(topo3d)
        address = address_for_cluster(nuca, cluster_index=5)
        outcome = nuca.access(0, address)
        assert not outcome.hit
        assert outcome.cluster == 5
        assert nuca.location_of(address) == 5

    def test_second_access_hits(self, topo3d):
        nuca = NucaL2(topo3d)
        address = address_for_cluster(nuca, 3)
        nuca.access(0, address)
        outcome = nuca.access(0, address)
        assert outcome.hit

    def test_hit_rate(self, topo3d):
        nuca = NucaL2(topo3d)
        address = address_for_cluster(nuca, 1)
        nuca.access(0, address)
        nuca.access(0, address)
        assert nuca.hit_rate == pytest.approx(0.5)

    def test_write_marks_dirty(self, topo3d):
        nuca = NucaL2(topo3d)
        address = address_for_cluster(nuca, 2)
        nuca.access(0, address, AccessType.WRITE)
        store = nuca.clusters[2]
        decoded = nuca.addr_map.decode(address)
        __, entry = store.lookup(decoded.index, decoded.tag)
        assert entry.dirty

    def test_eviction_reported(self, topo3d):
        nuca = NucaL2(topo3d)
        # Fill one set (16 ways) plus one more in the same home cluster.
        outcomes = []
        for way in range(17):
            tag = 5 + way * 16  # same home cluster (5), distinct tags
            outcomes.append(
                nuca.access(0, nuca.addr_map.compose(tag, 0))
            )
        evictions = [o for o in outcomes if o.evicted_line is not None]
        assert len(evictions) == 1
        assert nuca.lines_resident == 16

    def test_search_step_classification(self, topo3d):
        nuca = NucaL2(topo3d)
        plan = nuca.search.plan(0)
        remote = plan.step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address)
        outcome = nuca.access(0, address)
        assert outcome.search_step == 2


class TestMigration:
    def _nuca(self, topo, threshold=1):
        return NucaL2(
            topo,
            MigrationConfig(enabled=True, trigger_threshold=threshold),
        )

    def test_repeated_access_triggers_migration(self, topo3d):
        nuca = self._nuca(topo3d)
        plan = nuca.search.plan(0)
        remote = plan.step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        outcome = nuca.access(0, address, cycle=10.0)
        assert outcome.migration is not None
        src, dst = outcome.migration
        assert src == remote and dst != remote

    def test_lazy_migration_keeps_old_location_visible(self, topo3d):
        nuca = self._nuca(topo3d)
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        outcome = nuca.access(0, address, cycle=10.0)
        assert outcome.migration is not None
        # Before the transfer lands, the line is still found at the old
        # cluster (no false misses).
        assert nuca.location_of(address) == remote
        probe = nuca.access(0, address, cycle=10.5)
        assert probe.hit and probe.cluster == remote

    def test_migration_completes_after_transfer(self, topo3d):
        nuca = self._nuca(topo3d)
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        outcome = nuca.access(0, address, cycle=10.0)
        __, target = outcome.migration
        late = nuca.access(0, address, cycle=10_000.0)
        assert late.hit and late.cluster == target
        assert nuca.location_of(address) == target

    def test_alternating_accessors_reset_credit(self, topo3d):
        nuca = self._nuca(topo3d, threshold=2)
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        for cycle, cpu in ((1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)):
            outcome = nuca.access(cpu, address, cycle=cycle)
            assert outcome.migration is None

    def test_migration_disabled(self, topo3d):
        nuca = NucaL2(topo3d, MigrationConfig(enabled=False))
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        for cycle in range(10):
            outcome = nuca.access(0, address, cycle=float(cycle))
        assert outcome.migration is None
        assert nuca.migrations == 0

    def test_migration_swap_preserves_victim(self, topo3d):
        nuca = self._nuca(topo3d)
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        outcome = nuca.access(0, address, cycle=1.0)
        __, target = outcome.migration
        # Fill the target set so the migrating line must swap.
        for way in range(16):
            tag = target + (way + 100) * 16
            nuca.access(1, nuca.addr_map.compose(tag, 0), cycle=2.0)
        before = nuca.lines_resident
        nuca.access(0, address, cycle=10_000.0)  # settles the move
        assert nuca.lines_resident == before
        assert nuca.location_of(address) == target

    def test_settle_all(self, topo3d):
        nuca = self._nuca(topo3d)
        remote = nuca.search.plan(0).step2[0]
        address = address_for_cluster(nuca, remote)
        nuca.access(0, address, cycle=0.0)
        nuca.access(0, address, cycle=1.0)
        settled = nuca.settle_all(cycle=10_000.0)
        assert settled == 1
        assert nuca.location_of(address) != remote

    def test_location_consistency_under_churn(self, topo3d):
        nuca = self._nuca(topo3d)
        addresses = [address_for_cluster(nuca, c, index=c) for c in range(16)]
        for step in range(50):
            cpu = step % 8
            address = addresses[step % len(addresses)]
            nuca.access(cpu, address, cycle=float(step * 3))
        for address in addresses:
            cluster = nuca.location_of(address)
            decoded = nuca.addr_map.decode(address)
            assert nuca.clusters[cluster].lookup(
                decoded.index, decoded.tag
            ) is not None


class TestMigrationPolicyTargets:
    def test_intra_layer_moves_closer(self, topo2d):
        nuca = NucaL2(topo2d)
        policy = nuca.migration
        cpu_cluster = topo2d.cpu_cluster(0)
        # Pick a far cluster on the same layer.
        far = max(
            topo2d.clusters,
            key=lambda c: abs(c.tile_x - cpu_cluster.tile_x)
            + abs(c.tile_y - cpu_cluster.tile_y),
        )
        target = policy.target_cluster(far.index, 0)
        assert target is not None
        target_cluster = topo2d.clusters[target]
        before = abs(far.tile_x - cpu_cluster.tile_x) + abs(
            far.tile_y - cpu_cluster.tile_y
        )
        after = abs(target_cluster.tile_x - cpu_cluster.tile_x) + abs(
            target_cluster.tile_y - cpu_cluster.tile_y
        )
        assert after < before

    def test_local_cluster_is_terminal(self, topo2d):
        policy = NucaL2(topo2d).migration
        local = topo2d.cpu_cluster(0)
        assert policy.target_cluster(local.index, 0) is None

    def test_skips_foreign_cpu_clusters(self, topo2d):
        policy = NucaL2(topo2d).migration
        for cluster in topo2d.clusters:
            target = policy.target_cluster(cluster.index, 0)
            if target is None:
                continue
            target_cluster = topo2d.clusters[target]
            assert all(c == 0 for c in target_cluster.cpus)

    def test_inter_layer_never_crosses_layers(self, topo3d):
        policy = NucaL2(topo3d).migration
        cpu_coord = topo3d.cpu_positions[0]
        other_layer = 1 - cpu_coord.z
        for cluster in topo3d.clusters:
            if cluster.layer != other_layer:
                continue
            target = policy.target_cluster(cluster.index, 0)
            if target is not None:
                assert topo3d.clusters[target].layer == other_layer

    def test_bankset_chains_restrict_axis(self, topo2d):
        nuca = NucaL2(
            topo2d, MigrationConfig(enabled=True, bankset_chains=True)
        )
        policy = nuca.migration
        cpu_cluster = topo2d.cpu_cluster(0)
        for cluster in topo2d.clusters:
            target = policy.target_cluster(cluster.index, 0)
            if target is None:
                continue
            assert topo2d.clusters[target].tile_y == cluster.tile_y


# (scheme, chip overrides, bankset chains): the 2D and 3D policies, the
# 4-layer / 2-pillar stack, and CMP-DNUCA's bankset-chain migration.
MEMO_POLICIES = {
    "2d": (Scheme.CMP_DNUCA_2D, {}, False),
    "3d-2l-8p": (Scheme.CMP_DNUCA_3D, {}, False),
    "3d-4l-2p": (Scheme.CMP_DNUCA_3D, {"num_layers": 4, "num_pillars": 2}, False),
    "bankset-chains": (Scheme.CMP_DNUCA, {}, True),
}


class TestMigrationMemos:
    """The memoized answers equal those a freshly built policy computes."""

    @pytest.fixture(params=sorted(MEMO_POLICIES))
    def built(self, request):
        scheme, chip, chains = MEMO_POLICIES[request.param]
        setup = make_chip_config(scheme, **chip)
        topology = build_topology(setup.chip, setup.placement)
        config = MigrationConfig(bankset_chains=chains)
        return topology, lambda: MigrationPolicy(topology, config)

    def test_target_cluster_memo(self, built):
        topology, fresh_policy = built
        policy = fresh_policy()
        keys = [
            (cluster.index, cpu)
            for cluster in topology.clusters
            for cpu in range(topology.config.num_cpus)
        ]
        # The first pass fills the memo, the second reads it back.
        for __ in range(2):
            for key in keys:
                assert policy.target_cluster(*key) == (
                    fresh_policy().target_cluster(*key)
                ), key
        assert any(policy.target_cluster(*key) is not None for key in keys)

    def test_transfer_latency_memo(self, built):
        topology, fresh_policy = built
        policy = fresh_policy()
        keys = [
            (src.index, dst.index)
            for src in topology.clusters
            for dst in topology.clusters
        ]
        for __ in range(2):
            for key in keys:
                assert policy.transfer_latency(*key) == (
                    fresh_policy().transfer_latency(*key)
                ), key

    def test_config_cannot_change_under_the_memos(self, built):
        __, fresh_policy = built
        policy = fresh_policy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.config.bankset_chains = not policy.config.bankset_chains
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.config.transfer_flits += 1


class TestHitLookups:
    """A transaction's plan and bank node equal the general calls."""

    @pytest.fixture(params=sorted(MEMO_POLICIES))
    def nuca(self, request):
        scheme, chip, chains = MEMO_POLICIES[request.param]
        setup = make_chip_config(scheme, **chip)
        topology = build_topology(setup.chip, setup.placement)
        return NucaL2(topology, MigrationConfig(bankset_chains=chains))

    def test_plan_and_bank_node_match_the_general_path(self, nuca):
        policy = SearchPolicy(nuca.topology)
        cpus = range(nuca.config.num_cpus)
        addresses = [
            address_for_cluster(nuca, cluster, index=cluster * 37)
            for cluster in range(nuca.config.num_clusters)
        ]
        hits = 0
        # The first pass places every line; the second hits from each CPU.
        for __ in range(2):
            for cpu in cpus:
                for address in addresses:
                    outcome = nuca.access(cpu, address)
                    decoded = nuca.addr_map.decode(address)
                    assert outcome.bank_node == nuca.bank_node(
                        outcome.cluster, decoded
                    )
                    if outcome.hit:
                        hits += 1
                        assert outcome.search_step == (
                            policy.plan(cpu).steps[outcome.cluster]
                        )
        assert hits
        assert nuca._plans == [policy.plan(cpu) for cpu in cpus]

    def test_dead_bank_still_remaps(self, nuca):
        state = FaultState(stats=nuca.stats)
        nuca.attach_fault_state(state)
        address = address_for_cluster(nuca, 0, index=0)
        state.inject("bank", (0, nuca.addr_map.decode(address).bank))
        miss = nuca.access(0, address)
        hit = nuca.access(0, address)
        assert (miss.hit, hit.hit) == (False, True)
        nodes = nuca.topology.clusters[0].bank_nodes
        assert miss.bank_node == hit.bank_node == nodes[1]
        remapped = nuca.stats.scope("faults").counter("bank_remapped")
        assert remapped.value == 2

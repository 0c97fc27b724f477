"""Unit tests for addressing, replacement, and cluster storage."""

import pytest

from repro.core.chip import ChipConfig
from repro.cache.addressing import AddressMap
from repro.cache.replacement import TreePLRU
from repro.cache.cluster_store import ClusterStore
from repro.cache.line import LineEntry


class TestAddressMap:
    @pytest.fixture()
    def amap(self):
        return AddressMap(ChipConfig())

    def test_field_widths(self, amap):
        assert amap.offset_bits == 6     # 64 B lines
        assert amap.index_bits == 10     # 1024 sets per cluster
        assert amap.bank_bits == 4       # 16 banks per cluster
        assert amap.cluster_bits == 4    # 16 clusters

    def test_decode_compose_roundtrip(self, amap):
        address = 0x12345678C0
        decoded = amap.decode(address)
        line_aligned = address & ~0x3F
        assert amap.compose(decoded.tag, decoded.index) == line_aligned

    def test_home_cluster_from_tag_bits(self, amap):
        decoded = amap.decode(0x0)
        assert decoded.home_cluster == decoded.tag & 0xF

    def test_same_line_same_decode(self, amap):
        a = amap.decode(0x1000)
        b = amap.decode(0x1004)  # same 64B line, different word
        assert a.line_address == b.line_address
        assert a.index == b.index and a.tag == b.tag

    def test_bank_from_low_index_bits(self, amap):
        decoded = amap.decode(0b1111 << 6)  # index = 0b1111
        assert decoded.bank == 0b1111
        assert decoded.set_in_bank == 0

    def test_negative_address_rejected(self, amap):
        with pytest.raises(ValueError):
            amap.decode(-1)

    def test_larger_cache_has_more_index_bits(self):
        amap = AddressMap(ChipConfig(cache_mb=32))
        assert amap.index_bits == 11


class TestTreePLRU:
    def test_initial_victim_is_way_zero(self):
        assert TreePLRU(16).victim() == 0

    def test_touched_way_is_not_victim(self):
        tree = TreePLRU(16)
        for way in range(16):
            tree.touch(way)
            assert tree.victim() != way

    def test_cycles_through_all_ways(self):
        tree = TreePLRU(8)
        victims = []
        for __ in range(8):
            victim = tree.victim()
            victims.append(victim)
            tree.touch(victim)
        assert sorted(victims) == list(range(8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRU(6)
        with pytest.raises(ValueError):
            TreePLRU(1)

    def test_touch_validates_way(self):
        tree = TreePLRU(4)
        with pytest.raises(ValueError):
            tree.touch(4)

    def test_reset(self):
        tree = TreePLRU(4)
        tree.touch(0)
        tree.reset()
        assert tree.victim() == 0


class TestClusterStore:
    def _store(self, ways=4):
        return ClusterStore(cluster_index=0, num_sets=16, ways=ways)

    def test_insert_and_lookup(self):
        store = self._store()
        entry = LineEntry(tag=0xAB, index=3)
        assert store.insert(3, entry) is None
        way, found = store.lookup(3, 0xAB)
        assert found is entry

    def test_lookup_miss(self):
        store = self._store()
        assert store.lookup(0, 0x1) is None

    def test_eviction_when_full(self):
        store = self._store(ways=2)
        store.insert(0, LineEntry(tag=1, index=0))
        store.insert(0, LineEntry(tag=2, index=0))
        victim = store.insert(0, LineEntry(tag=3, index=0))
        assert victim is not None
        assert victim.tag in (1, 2)

    def test_plru_victim_is_least_recent(self):
        store = self._store(ways=2)
        store.insert(0, LineEntry(tag=1, index=0))
        store.insert(0, LineEntry(tag=2, index=0))
        way, __ = store.lookup(0, 1)
        store.touch(0, way)  # make tag=1 most recent
        victim = store.insert(0, LineEntry(tag=3, index=0))
        assert victim.tag == 2

    def test_in_transit_victims_avoided(self):
        store = self._store(ways=2)
        migrating = LineEntry(tag=1, index=0)
        migrating.begin_migration(5, 100.0)
        store.insert(0, migrating)
        store.insert(0, LineEntry(tag=2, index=0))
        victim = store.insert(0, LineEntry(tag=3, index=0))
        assert victim.tag == 2

    def test_free_ways_respect_degraded_capacity(self):
        store = self._store(ways=4)
        store.effective_ways = 2
        assert store.free_ways(0) == 2
        for tag in (1, 2):
            entry = LineEntry(tag=tag, index=0)
            entry.begin_migration(5, 100.0)
            assert store.insert(0, entry) is None
        # Two ways stand empty, but the set is at its degraded cap: the
        # next insert evicts (here a line still in transit), so no room.
        assert store.free_ways(0) == 0
        assert store.insert(0, LineEntry(tag=3, index=0)).in_transit

    def test_remove(self):
        store = self._store()
        store.insert(1, LineEntry(tag=9, index=1))
        removed = store.remove(1, 9)
        assert removed.tag == 9
        assert store.lookup(1, 9) is None

    def test_remove_missing_raises(self):
        store = self._store()
        with pytest.raises(KeyError):
            store.remove(0, 0x1)

    def test_free_ways(self):
        store = self._store(ways=2)
        assert store.free_ways(0) == 2
        store.insert(0, LineEntry(tag=1, index=0))
        assert store.free_ways(0) == 1

    def test_entries_iteration(self):
        store = self._store()
        store.insert(0, LineEntry(tag=1, index=0))
        store.insert(5, LineEntry(tag=2, index=5))
        entries = list(store.entries())
        assert len(entries) == 2
        assert {e.tag for __, __, e in entries} == {1, 2}

    def test_set_index_bounds(self):
        store = self._store()
        with pytest.raises(ValueError):
            store.insert(99, LineEntry(tag=1, index=99))


class TestLineEntry:
    def test_touch_updates_accessor(self):
        entry = LineEntry(tag=1, index=0)
        entry.touch(3)
        assert entry.last_accessor == 3
        assert entry.access_count == 1

    def test_migration_lifecycle(self):
        entry = LineEntry(tag=1, index=0)
        entry.begin_migration(7, 50.0)
        assert entry.in_transit
        assert entry.pending_cluster == 7
        target = entry.finish_migration()
        assert target == 7
        assert not entry.in_transit
        assert entry.migrations == 1

    def test_double_migration_rejected(self):
        entry = LineEntry(tag=1, index=0)
        entry.begin_migration(7, 50.0)
        with pytest.raises(RuntimeError):
            entry.begin_migration(8, 60.0)

    def test_finish_without_begin_rejected(self):
        entry = LineEntry(tag=1, index=0)
        with pytest.raises(RuntimeError):
            entry.finish_migration()

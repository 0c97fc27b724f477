"""Unit tests for L1 caches, the directory, and the MSI protocol."""

import pytest

from repro.cache.nuca import AccessType
from repro.coherence.l1cache import L1Cache, L1Config
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherenceEvent, CoherentL1System


class TestL1Cache:
    def test_geometry(self):
        config = L1Config()
        assert config.num_sets == 512  # 64KB / 64B / 2 ways

    def test_miss_then_hit(self):
        cache = L1Cache(0)
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)

    def test_lru_within_set(self):
        config = L1Config()
        cache = L1Cache(0, config)
        set_stride = config.num_sets * config.line_bytes
        a, b, c = 0x0, set_stride, 2 * set_stride  # same set
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a)          # a hits the LRU way and becomes MRU
        evicted = cache.fill(c)
        assert evicted == cache.line_of(b)

    def test_mru_hit_keeps_the_order(self):
        """A hit on the MRU way returns early and leaves the LRU way last."""
        config = L1Config()
        cache = L1Cache(0, config)
        set_stride = config.num_sets * config.line_bytes
        a, b, c = 0x0, set_stride, 2 * set_stride  # same set
        cache.fill(a)
        cache.fill(b)
        assert cache.lookup(b)   # b is already MRU
        assert cache.hits == 1
        evicted = cache.fill(c)
        assert evicted == cache.line_of(a)
        assert cache.contains(b)

    def test_invalidate(self):
        cache = L1Cache(0)
        cache.fill(0x40)
        assert cache.invalidate(0x40)
        assert not cache.contains(0x40)
        assert not cache.invalidate(0x40)
        # The emptied set is still allocated; probing it is a miss.
        assert not cache.lookup(0x40)
        assert cache.misses == 1

    def test_miss_rate(self):
        cache = L1Cache(0)
        cache.lookup(0x0)   # miss
        cache.fill(0x0)
        cache.lookup(0x0)   # hit
        assert cache.miss_rate == pytest.approx(0.5)

    def test_fill_same_line_no_eviction(self):
        cache = L1Cache(0)
        cache.fill(0x80)
        assert cache.fill(0x80) is None
        assert cache.lines_resident == 1


class TestDirectory:
    def test_sharers_tracking(self):
        directory = Directory(4)
        directory.add_sharer(0x10, 0)
        directory.add_sharer(0x10, 2)
        assert directory.sharers_of(0x10) == frozenset({0, 2})

    def test_write_invalidate_spares_writer(self):
        directory = Directory(4)
        for cpu in (0, 1, 2):
            directory.add_sharer(0x10, cpu)
        targets = directory.write_invalidate(0x10, writer=1)
        assert targets == [0, 2]
        assert directory.sharers_of(0x10) == frozenset({1})

    def test_write_invalidate_sole_sharer(self):
        directory = Directory(4)
        directory.add_sharer(0x10, 2)
        assert directory.write_invalidate(0x10, writer=2) == []
        assert directory.sharers_of(0x10) == frozenset({2})

    def test_write_invalidate_nonsharing_writer(self):
        directory = Directory(4)
        directory.add_sharer(0x10, 0)
        targets = directory.write_invalidate(0x10, writer=3)
        assert targets == [0]
        assert directory.sharers_of(0x10) == frozenset()

    def test_invalidate_line(self):
        directory = Directory(4)
        directory.add_sharer(0x10, 0)
        directory.add_sharer(0x10, 1)
        assert directory.invalidate_line(0x10) == [0, 1]
        assert directory.tracked_lines() == 0

    def test_drop_sharer_cleans_empty(self):
        directory = Directory(2)
        directory.add_sharer(0x10, 0)
        directory.drop_sharer(0x10, 0)
        assert directory.tracked_lines() == 0

    def test_unknown_cpu_rejected(self):
        directory = Directory(2)
        with pytest.raises(ValueError):
            directory.add_sharer(0x10, 5)


class TestCoherentL1System:
    def test_read_miss_needs_l2_and_registers_sharer(self):
        system = CoherentL1System(4)
        event = system.access(0, 0x1000, AccessType.READ)
        assert event.needs_l2 and not event.l1_hit
        line = system.dcaches[0].line_of(0x1000)
        assert 0 in system.directory.sharers_of(line)

    def test_read_hit_skips_l2(self):
        system = CoherentL1System(4)
        system.access(0, 0x1000, AccessType.READ)
        event = system.access(0, 0x1000, AccessType.READ)
        assert event.l1_hit and not event.needs_l2

    def test_write_always_reaches_l2(self):
        system = CoherentL1System(4)
        event = system.access(0, 0x2000, AccessType.WRITE)
        assert event.needs_l2

    def test_write_invalidates_other_sharers(self):
        system = CoherentL1System(4)
        system.access(0, 0x3000, AccessType.READ)
        system.access(1, 0x3000, AccessType.READ)
        system.access(3, 0x3000, AccessType.READ)
        event = system.access(1, 0x3000, AccessType.WRITE)
        assert event.l1_hit and event.needs_l2
        assert event.invalidate_cpus == [0, 3]
        assert system.directory.sharers_of(
            system.dcaches[1].line_of(0x3000)
        ) == frozenset({1})
        event = system.access(2, 0x3000, AccessType.WRITE)
        assert event.invalidate_cpus == [1]
        assert not system.dcaches[0].contains(0x3000)
        assert not system.dcaches[1].contains(0x3000)
        assert not system.dcaches[3].contains(0x3000)

    @pytest.mark.parametrize("held", [True, False], ids=["hit", "miss"])
    def test_write_through_without_other_sharers(self, held):
        """Only the writer holds the line, or nobody does: no invalidation."""
        system = CoherentL1System(4)
        if held:
            system.access(1, 0x3000, AccessType.READ)
        event = system.access(1, 0x3000, AccessType.WRITE)
        assert event == CoherenceEvent(held, True, ())
        assert not event.invalidate_cpus
        line = system.dcaches[1].line_of(0x3000)
        assert system.directory.sharers_of(line) == frozenset({1})
        assert system.dcaches[1].contains(0x3000)

    def test_write_coalescing_in_buffer(self):
        system = CoherentL1System(4)
        first = system.access(0, 0x4000, AccessType.WRITE)
        second = system.access(0, 0x4008, AccessType.WRITE)  # same line
        assert first.needs_l2
        assert not second.needs_l2
        assert system.coalesced_writes == 1

    def test_write_buffer_limited_capacity(self):
        system = CoherentL1System(4)
        system.access(0, 0x0, AccessType.WRITE)
        # Push 8 other lines through the buffer, evicting line 0.
        for i in range(1, 9):
            system.access(0, i * 64, AccessType.WRITE)
        event = system.access(0, 0x0, AccessType.WRITE)
        assert event.needs_l2

    def test_remote_write_flushes_coalescing_entry(self):
        system = CoherentL1System(4)
        system.access(0, 0x5000, AccessType.READ)
        system.access(0, 0x5000, AccessType.WRITE)
        system.access(1, 0x5000, AccessType.WRITE)  # invalidates CPU 0
        event = system.access(0, 0x5000, AccessType.WRITE)
        assert event.needs_l2  # must not coalesce into a stale entry

    def test_ifetch_uses_icache(self):
        system = CoherentL1System(4)
        system.access(0, 0x6000, AccessType.IFETCH)
        assert system.icaches[0].contains(0x6000)
        assert not system.dcaches[0].contains(0x6000)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: l2_eviction leaves the line in every write "
        "buffer, so the next store to it coalesces and never reaches the L2",
    )
    def test_store_after_l2_eviction_reaches_l2(self):
        system = CoherentL1System(4)
        system.access(0, 0x8000, AccessType.WRITE)
        system.l2_eviction(system.dcaches[0].line_of(0x8000))
        event = system.access(0, 0x8000, AccessType.WRITE)
        assert event.needs_l2

    def test_l2_eviction_back_invalidates(self):
        system = CoherentL1System(4)
        system.access(0, 0x7000, AccessType.READ)
        line = system.dcaches[0].line_of(0x7000)
        targets = system.l2_eviction(line)
        assert targets == [0]
        assert not system.dcaches[0].contains(0x7000)

    def test_miss_rate_aggregation(self):
        system = CoherentL1System(2)
        system.access(0, 0x100, AccessType.READ)   # miss
        system.access(0, 0x100, AccessType.READ)   # hit
        assert 0.0 < system.miss_rate() < 1.0
        assert 0.0 < system.miss_rate(0) < 1.0

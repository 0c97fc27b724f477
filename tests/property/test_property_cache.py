"""Property-based tests for NUCA cache invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.cache.nuca import NucaL2, AccessType
from repro.cache.migration import MigrationConfig
from repro.cache.addressing import AddressMap
from repro.cache.replacement import TreePLRU
from repro.coherence.l1cache import L1Cache, L1Config


def fresh_nuca(threshold=1):
    topology = build_topology(ChipConfig())
    return NucaL2(
        topology, MigrationConfig(enabled=True, trigger_threshold=threshold)
    )


# Addresses biased into a small region so sets conflict and migrations,
# swaps and evictions all get exercised.
addresses = st.integers(0, 1 << 22).map(lambda a: a * 8)
accesses = st.lists(
    st.tuples(
        st.integers(0, 7),                      # cpu
        addresses,
        st.sampled_from(list(AccessType)),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=20, deadline=None)
@given(sequence=accesses)
def test_location_map_matches_cluster_stores(sequence):
    """After any access sequence, the location map and the per-cluster
    stores agree exactly (no lost or duplicated lines)."""
    nuca = fresh_nuca()
    for step, (cpu, address, op) in enumerate(sequence):
        nuca.access(cpu, address, op, cycle=float(step * 7))
    # Every mapped line is present in exactly the mapped cluster.
    for line, cluster_index in nuca._location.items():
        decoded = nuca.addr_map.decode(line << nuca.addr_map.offset_bits)
        assert nuca.clusters[cluster_index].lookup(
            decoded.index, decoded.tag
        ) is not None
    # Every stored line is mapped.
    stored = sum(
        1 for store in nuca.clusters for __ in store.entries()
    )
    assert stored == len(nuca._location)


@settings(max_examples=20, deadline=None)
@given(sequence=accesses)
def test_accesses_partition_into_hits_and_misses(sequence):
    nuca = fresh_nuca()
    for step, (cpu, address, op) in enumerate(sequence):
        nuca.access(cpu, address, op, cycle=float(step * 7))
    hits = nuca.stats.scope("l2").counter("hits").value
    misses = nuca.stats.scope("l2").counter("misses").value
    assert hits + misses == len(sequence)
    step1 = nuca.stats.scope("l2").counter("hits_step1").value
    step2 = nuca.stats.scope("l2").counter("hits_step2").value
    assert step1 + step2 == hits


@settings(max_examples=20, deadline=None)
@given(sequence=accesses)
def test_settle_all_clears_transit(sequence):
    nuca = fresh_nuca()
    for step, (cpu, address, op) in enumerate(sequence):
        nuca.access(cpu, address, op, cycle=float(step * 7))
    nuca.settle_all(cycle=1e12)
    for store in nuca.clusters:
        for __, __, entry in store.entries():
            assert not entry.in_transit


@settings(max_examples=20, deadline=None)
@given(sequence=accesses)
def test_repeat_access_always_hits(sequence):
    """Accessing the same address again immediately is always a hit."""
    nuca = fresh_nuca()
    cycle = 0.0
    for cpu, address, op in sequence:
        nuca.access(cpu, address, op, cycle=cycle)
        outcome = nuca.access(cpu, address, AccessType.READ, cycle + 1)
        assert outcome.hit
        cycle += 13.0


@settings(max_examples=40, deadline=None)
@given(address=st.integers(0, 1 << 48))
def test_decode_compose_roundtrip(address):
    amap = AddressMap(ChipConfig())
    decoded = amap.decode(address)
    line_aligned = address >> 6 << 6
    assert amap.compose(decoded.tag, decoded.index) == line_aligned
    assert 0 <= decoded.home_cluster < 16
    assert 0 <= decoded.bank < 16
    assert 0 <= decoded.index < 1024


@settings(max_examples=30, deadline=None)
@given(
    touches=st.lists(st.integers(0, 15), min_size=1, max_size=64),
)
def test_plru_victim_never_most_recent(touches):
    tree = TreePLRU(16)
    for way in touches:
        tree.touch(way)
    assert tree.victim() != touches[-1]


class BitWalkPLRU:
    """Reference tree pseudo-LRU: a touch walks the tree from the root,
    pointing each node on the path away from the touched way."""

    def __init__(self, ways: int):
        self.levels = ways.bit_length() - 1
        self.bits = 0

    def touch(self, way):
        node = 1
        for level in range(self.levels - 1, -1, -1):
            bit = (way >> level) & 1
            if bit:
                self.bits &= ~(1 << node)
            else:
                self.bits |= 1 << node
            node = (node << 1) | bit

    def victim(self):
        node = 1
        way = 0
        for __ in range(self.levels):
            bit = (self.bits >> node) & 1
            way = (way << 1) | bit
            node = (node << 1) | bit
        return way


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ways=st.sampled_from([2, 4, 8, 16]))
def test_plru_masks_match_bit_walk(data, ways):
    """The table-driven touch leaves the same bits, and so the same
    victim, as walking the tree, after every touch."""
    touches = data.draw(
        st.lists(st.integers(0, ways - 1), min_size=1, max_size=80)
    )
    tree = TreePLRU(ways)
    model = BitWalkPLRU(ways)
    for way in touches:
        tree.touch(way)
        model.touch(way)
        assert tree.bits == model.bits
        assert tree.victim() == model.victim()


class TrueLRU:
    """Reference L1: each resident line keeps the tick of its last use,
    and a fill into a full set evicts the line with the oldest tick."""

    def __init__(self, num_sets: int, ways: int, line_bytes: int):
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = [dict() for __ in range(num_sets)]  # line -> tick
        self.tick = 0
        self.hits = 0
        self.misses = 0

    def _set(self, address):
        line = address // self.line_bytes
        return line, self.sets[line % self.num_sets]

    def lookup(self, address):
        self.tick += 1
        line, lines = self._set(address)
        if line in lines:
            lines[line] = self.tick
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address):
        self.tick += 1
        line, lines = self._set(address)
        evicted = None
        if line not in lines and len(lines) == self.ways:
            evicted = min(lines, key=lines.get)
            del lines[evicted]
        lines[line] = self.tick
        return evicted

    def invalidate(self, address):
        line, lines = self._set(address)
        return lines.pop(line, None) is not None

    def contains(self, address):
        line, lines = self._set(address)
        return line in lines


# 1 KB of 256 B lines, 2-way: 2 sets x 2 ways.  Six distinct lines (at
# any offset within them) put three on each set, and lookups and fills
# outweigh invalidations, so a wrong LRU order soon evicts the wrong line.
L1_SMALL = L1Config(size_kb=1, ways=2, line_bytes=256)
L1_LINES = 6
l1_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "lookup", "fill", "invalidate"]),
        st.builds(
            lambda line, offset: line * 256 + offset,
            st.integers(0, L1_LINES - 1), st.integers(0, 255),
        ),
    ),
    min_size=30,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ops=l1_ops)
def test_l1_matches_true_lru(ops):
    """L1Cache is true LRU: every return value, eviction, hit/miss count
    and residency equals the reference model's, whether or not the probed
    line is already most recently used."""
    assert L1_SMALL.num_sets == 2
    cache = L1Cache(0, L1_SMALL)
    model = TrueLRU(L1_SMALL.num_sets, L1_SMALL.ways, L1_SMALL.line_bytes)
    for name, address in ops:
        assert getattr(cache, name)(address) == getattr(model, name)(address)
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        for probe in range(0, L1_LINES * 256, 256):
            assert cache.contains(probe) == model.contains(probe)

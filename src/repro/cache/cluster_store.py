"""Per-cluster L2 storage: sets, ways, and pseudo-LRU state.

Each cluster owns ``sets_per_cluster`` sets of ``associativity`` ways
(16-way in the paper).  Sets are allocated lazily — workloads touch a tiny
fraction of a 16 MB cache's sets, and lazy allocation keeps memory and
construction time proportional to the touched footprint.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cache.line import LineEntry
from repro.cache.replacement import TreePLRU


class ClusterStore:
    """Associative storage of one cluster, with a shared tag array view."""

    def __init__(self, cluster_index: int, num_sets: int, ways: int):
        self.cluster_index = cluster_index
        self.num_sets = num_sets
        self.ways = ways
        # Bank faults shrink usable associativity: at most
        # ``effective_ways`` lines may reside per set.  Equal to ``ways``
        # (full capacity) unless degraded via set_effective_ways.
        self.effective_ways = ways
        self._sets: dict[int, list[Optional[LineEntry]]] = {}
        self._plru: dict[int, TreePLRU] = {}
        self.lines_resident = 0

    def _set(self, index: int) -> list[Optional[LineEntry]]:
        if not 0 <= index < self.num_sets:
            raise ValueError(f"set index {index} out of range")
        ways = self._sets.get(index)
        if ways is None:
            ways = [None] * self.ways
            self._sets[index] = ways
        return ways

    def _tree(self, index: int) -> TreePLRU:
        tree = self._plru.get(index)
        if tree is None:
            tree = TreePLRU(self.ways)
            self._plru[index] = tree
        return tree

    # -- tag array operations -------------------------------------------------

    def lookup(self, index: int, tag: int) -> Optional[tuple[int, LineEntry]]:
        """Tag match: (way, entry) or None.  Does not update LRU state."""
        ways = self._sets.get(index)
        if ways is None:
            return None
        for way, entry in enumerate(ways):
            if entry is not None and entry.tag == tag:
                return way, entry
        return None

    def touch(self, index: int, way: int) -> None:
        """Update pseudo-LRU state for an access to resident ``way``.

        A resident line got there through :meth:`insert`, which built the
        set's tree, so the tree is read directly.
        """
        self._plru[index].touch(way)

    # -- data array operations ---------------------------------------------------

    def insert(
        self, index: int, entry: LineEntry, avoid_in_transit: bool = True
    ) -> Optional[LineEntry]:
        """Place ``entry`` in set ``index``; returns the evicted line, if any.

        A free way is used when available; otherwise the pseudo-LRU victim
        is evicted.  Lines currently migrating are not chosen as victims
        (their departure is already scheduled) unless every way is in
        transit.
        """
        ways = self._set(index)
        if self.effective_ways == self.ways:
            for way, existing in enumerate(ways):
                if existing is None:
                    ways[way] = entry
                    self._tree(index).touch(way)
                    self.lines_resident += 1
                    return None
        else:
            # Degraded capacity: a free way only counts when the set is
            # below its effective associativity.
            free_way = None
            occupied = 0
            for way, existing in enumerate(ways):
                if existing is None:
                    if free_way is None:
                        free_way = way
                else:
                    occupied += 1
            if free_way is not None and occupied < self.effective_ways:
                ways[free_way] = entry
                self._tree(index).touch(free_way)
                self.lines_resident += 1
                return None
        tree = self._tree(index)
        victim_way = tree.victim()
        if avoid_in_transit and ways[victim_way] is not None and ways[victim_way].in_transit:
            for way, existing in enumerate(ways):
                if existing is not None and not existing.in_transit:
                    victim_way = way
                    break
        if ways[victim_way] is None:
            # Only reachable under degraded capacity: the PLRU victim
            # points at a hole.  Evict the first resident line instead,
            # preferring one not in transit.
            chosen = None
            fallback = None
            for way, existing in enumerate(ways):
                if existing is not None:
                    if fallback is None:
                        fallback = way
                    if not (avoid_in_transit and existing.in_transit):
                        chosen = way
                        break
            victim_way = chosen if chosen is not None else fallback
        victim = ways[victim_way]
        ways[victim_way] = entry
        tree.touch(victim_way)
        return victim

    def remove(self, index: int, tag: int) -> LineEntry:
        """Remove and return the line with ``tag`` from set ``index``."""
        ways = self._sets.get(index)
        if ways is not None:
            for way, entry in enumerate(ways):
                if entry is not None and entry.tag == tag:
                    ways[way] = None
                    self.lines_resident -= 1
                    return entry
        raise KeyError(
            f"line tag={tag:#x} index={index} not in cluster "
            f"{self.cluster_index}"
        )

    def free_ways(self, index: int) -> int:
        """Lines set ``index`` can still take without an eviction.

        Bank faults cap a set at ``effective_ways`` lines, so an empty
        way beyond that cap is no room at all (:meth:`insert` would
        evict to fill it).
        """
        ways = self._sets.get(index)
        if ways is None:
            return self.effective_ways
        return max(0, self.effective_ways - (self.ways - ways.count(None)))

    def entries(self) -> Iterator[tuple[int, int, LineEntry]]:
        """All resident lines as (index, way, entry)."""
        for index, ways in self._sets.items():
            for way, entry in enumerate(ways):
                if entry is not None:
                    yield index, way, entry

"""Distributed sharer directory for the L1 MSI protocol.

Tracks which CPUs' L1 caches hold each line.  Because the L1s are
write-through there is no M state to track at line granularity beyond
"being written now": a write simply invalidates all other sharers and
updates the L2.  The directory is logically distributed (the paper gives
each processor a directory for its own L1 lines); functionally one sharded
map captures the same information, and the timing layer charges the
invalidation messages to the network between the writer and each sharer.
"""

from __future__ import annotations


class Directory:
    """line address -> set of CPU ids whose L1 holds the line."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self._sharers: dict[int, set[int]] = {}

    def sharers_of(self, line_address: int) -> frozenset[int]:
        return frozenset(self._sharers.get(line_address, ()))

    def add_sharer(self, line_address: int, cpu_id: int) -> None:
        if not 0 <= cpu_id < self.num_cpus:
            raise ValueError(f"unknown CPU {cpu_id}")
        self._sharers.setdefault(line_address, set()).add(cpu_id)

    def drop_sharer(self, line_address: int, cpu_id: int) -> None:
        sharers = self._sharers.get(line_address)
        if sharers is not None:
            sharers.discard(cpu_id)
            if not sharers:
                del self._sharers[line_address]

    def write_invalidate(self, line_address: int, writer: int) -> list[int]:
        """Invalidate every sharer other than the writer.

        Returns the list of CPUs that must receive an invalidation message;
        the writer's own copy (if any) is retained.
        """
        sharers = self._sharers.get(line_address)
        if not sharers or len(sharers) == 1 and writer in sharers:
            return []
        # Past the early return some sharer is not the writer.
        targets = sorted(cpu for cpu in sharers if cpu != writer)
        if writer in sharers:
            self._sharers[line_address] = {writer}
        else:
            del self._sharers[line_address]
        return targets

    def invalidate_line(self, line_address: int) -> list[int]:
        """Invalidate every sharer (L2 eviction of the line)."""
        return sorted(self._sharers.pop(line_address, ()))

    def tracked_lines(self) -> int:
        return len(self._sharers)

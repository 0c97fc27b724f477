"""Private per-CPU L1 cache (functional, write-through).

Table 4: 64 KB split I/D, 2-way, 64 B lines, 3-cycle access, write-through.
Write-through means an L1 line is never dirty: evictions and invalidations
are silent drops, and every store is propagated to the L2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class L1Config:
    """Geometry of one L1 array (the I and D sides are separate arrays)."""

    size_kb: int = 64
    ways: int = 2
    line_bytes: int = 64
    hit_cycles: int = 3
    write_allocate: bool = True    # write-through + write-allocate

    @property
    def num_sets(self) -> int:
        lines = self.size_kb * 1024 // self.line_bytes
        if lines % self.ways:
            raise ValueError("L1 lines must divide evenly into ways")
        return lines // self.ways


class L1Cache:
    """One L1 array with true-LRU replacement over its (few) ways."""

    def __init__(self, cpu_id: int, config: Optional[L1Config] = None):
        self.cpu_id = cpu_id
        self.config = config or L1Config()
        if self.config.num_sets & (self.config.num_sets - 1):
            raise ValueError("L1 set count must be a power of two")
        self._offset_bits = self.config.line_bytes.bit_length() - 1
        self._set_mask = self.config.num_sets - 1
        # sets[i] is an MRU-ordered list of line addresses (most recent first)
        self._sets: dict[int, list[int]] = {}
        self.hits = 0
        self.misses = 0

    def line_of(self, address: int) -> int:
        return address >> self._offset_bits

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int) -> bool:
        """Probe (and LRU-update on hit) for ``address``."""
        line = address >> self._offset_bits
        ways = self._sets.get(line & self._set_mask)
        if ways is not None and line in ways:
            ways.remove(line)
            ways.insert(0, line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int) -> Optional[int]:
        """Install a line; returns the evicted line address, if any."""
        line = address >> self._offset_bits
        ways = self._sets.setdefault(line & self._set_mask, [])
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            return None
        ways.insert(0, line)
        if len(ways) > self.config.ways:
            return ways.pop()
        return None

    def contains(self, address: int) -> bool:
        line = address >> self._offset_bits
        ways = self._sets.get(line & self._set_mask)
        return ways is not None and line in ways

    def invalidate(self, address: int) -> bool:
        """Drop a line if present (coherence invalidation); True if it was."""
        line = address >> self._offset_bits
        ways = self._sets.get(line & self._set_mask)
        if ways is not None and line in ways:
            ways.remove(line)
            return True
        return False

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @property
    def lines_resident(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

"""Private per-CPU L1 cache (functional, write-through).

Table 4: 64 KB split I/D, 2-way, 64 B lines, 3-cycle access, write-through.
Write-through means an L1 line is never dirty: evictions and invalidations
are silent drops, and every store is propagated to the L2.  Store misses
allocate the line.  The geometry is the ``L1_*`` and ``LINE_BYTES``
constants of :mod:`repro.params`.  The array is functional only: an L1
hit retires at the core's base CPI (``repro.params.CPI_BASE``), so the
3-cycle access time is not a parameter here.
"""

from __future__ import annotations

from typing import Optional

from repro.params import L1_SETS, L1_WAYS, LINE_BYTES


class L1Cache:
    """One L1 array with true-LRU replacement over its (few) ways."""

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self._offset_bits = LINE_BYTES.bit_length() - 1
        self._set_mask = L1_SETS - 1
        # sets[i] is an MRU-ordered list of line addresses (most recent first)
        self._sets: dict[int, list[int]] = {}
        self.hits = 0
        self.misses = 0

    def line_of(self, address: int) -> int:
        return address >> self._offset_bits

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int) -> bool:
        """Probe (and LRU-update on hit) for ``address``.

        The MRU way is tested first: most hits land there and need no
        reordering.  A set emptied by invalidations stays an empty list.
        """
        line = address >> self._offset_bits
        ways = self._sets.get(line & self._set_mask)
        if ways:
            if ways[0] == line:
                self.hits += 1
                return True
            if line in ways:
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
        if len(ways) > L1_WAYS:
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

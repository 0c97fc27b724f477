"""Tree pseudo-LRU replacement (the paper's L2 replacement policy).

A binary tree of direction bits over the ways of a set: each access flips
the internal nodes on the path to the accessed way to point *away* from it;
the victim is found by following the bits from the root.  For a 16-way set
the state is 15 bits.
"""

from __future__ import annotations

import functools


@functools.cache
def _touch_masks(ways: int) -> tuple[tuple[int, int], ...]:
    """Per-way ``(keep, point)`` masks: a touch sets ``bits & keep | point``.

    ``keep`` clears every node on the way's root-to-leaf path and
    ``point`` sets the ones that must then point right, away from a way
    in their left subtree.  The path's nodes are distinct, so one masked
    update equals walking the tree node by node.
    """
    levels = ways.bit_length() - 1
    masks = []
    for way in range(ways):
        path = point = 0
        node = 1
        for level in range(levels - 1, -1, -1):
            bit = (way >> level) & 1
            path |= 1 << node
            if not bit:
                point |= 1 << node
            node = (node << 1) | bit
        masks.append((~path, point))
    return tuple(masks)


class TreePLRU:
    """Pseudo-LRU tree over ``ways`` ways (power of two)."""

    def __init__(self, ways: int):
        if ways < 2 or ways & (ways - 1):
            raise ValueError("ways must be a power of two >= 2")
        self.ways = ways
        self.levels = ways.bit_length() - 1
        self.bits = 0  # node i's bit: 0 -> left subtree is colder
        self._masks = _touch_masks(ways)

    def touch(self, way: int) -> None:
        """Mark ``way`` as most recently used."""
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range")
        keep, point = self._masks[way]
        self.bits = self.bits & keep | point

    def victim(self) -> int:
        """The way the tree currently designates for eviction."""
        node = 1
        way = 0
        for __ in range(self.levels):
            bit = (self.bits >> node) & 1
            way = (way << 1) | bit
            node = (node << 1) | bit
        return way

    def reset(self) -> None:
        self.bits = 0

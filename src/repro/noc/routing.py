"""Node coordinates, router ports, and dimension-order routing.

Routing is deterministic dimension-order (X then Y within a layer).  Layer
changes never use mesh links: a packet whose destination lies on another
layer first routes in-plane to its assigned pillar, takes the dTDMA bus
vertically (the ``VERTICAL`` port), and then routes in-plane on the
destination layer.  This mirrors the paper's hybrid NoC/bus fabric, where
the bus provides single-hop inter-layer transfer.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class Coord(NamedTuple):
    """Node coordinate: ``x`` (column), ``y`` (row), ``z`` (layer)."""

    x: int
    y: int
    z: int = 0

    def manhattan_2d(self, other: "Coord") -> int:
        """In-plane Manhattan distance, ignoring the layer."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def same_layer(self, other: "Coord") -> bool:
        return self.z == other.z


class Port(enum.Enum):
    """Physical channels of a router.

    The generic router has five (the paper's Table 1 router); pillar
    routers gain the sixth ``VERTICAL`` channel for the dTDMA bus.
    """

    LOCAL = "local"
    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"
    VERTICAL = "vertical"


# Stable small-integer index per port, for bitmask arbitration state in the
# router's allocation-free evaluate loop.
PORT_INDEX = {port: index for index, port in enumerate(Port)}

# Direction a flit leaving via a port arrives on at the neighbouring router.
OPPOSITE_PORT = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}

# Grid convention: +x is EAST, +y is NORTH.
PORT_DELTA = {
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
}


def xy_route(current: Coord, target_x: int, target_y: int) -> Port:
    """One dimension-order (X-first) routing step within a layer."""
    if current.x < target_x:
        return Port.EAST
    if current.x > target_x:
        return Port.WEST
    if current.y < target_y:
        return Port.NORTH
    if current.y > target_y:
        return Port.SOUTH
    return Port.LOCAL


def dimension_order_route(
    current: Coord,
    dest: Coord,
    pillar_xy: Optional[tuple[int, int]] = None,
) -> Port:
    """Select the output port for a packet at ``current`` heading to ``dest``.

    If the destination is on a different layer, the packet is steered to
    ``pillar_xy`` and then onto the ``VERTICAL`` port; ``pillar_xy`` must be
    provided in that case.
    """
    if current.z != dest.z:
        if pillar_xy is None:
            raise ValueError(
                f"inter-layer route {current}->{dest} requires a pillar"
            )
        pillar_x, pillar_y = pillar_xy
        if (current.x, current.y) == (pillar_x, pillar_y):
            return Port.VERTICAL
        return xy_route(current, pillar_x, pillar_y)
    return xy_route(current, dest.x, dest.y)


def route_hop_count(
    src: Coord,
    dest: Coord,
    pillar_xy: Optional[tuple[int, int]] = None,
) -> int:
    """Number of router-to-router hops on the dimension-order path.

    The vertical bus transfer counts as one hop.  Used by the analytic
    latency model and by tests validating the cycle-accurate simulator.
    """
    if src.z == dest.z:
        return src.manhattan_2d(dest)
    if pillar_xy is None:
        raise ValueError("inter-layer hop count requires a pillar")
    pillar_x, pillar_y = pillar_xy
    to_pillar = abs(src.x - pillar_x) + abs(src.y - pillar_y)
    from_pillar = abs(dest.x - pillar_x) + abs(dest.y - pillar_y)
    return to_pillar + 1 + from_pillar


def fault_aware_route(
    current: Coord,
    dest: Coord,
    pillar_xy: Optional[tuple[int, int]],
    dead: "frozenset[tuple[Coord, Port]] | set[tuple[Coord, Port]]",
) -> Optional[Port]:
    """Dimension-order routing step that avoids dead mesh links.

    ``dead`` is the live fault map: directed ``(router, output port)``
    pairs that new traffic must not use.  The preferred X-first port is
    taken when alive; otherwise the packet is minimally misrouted onto
    the other productive dimension (never away from the target, so the
    path length stays minimal and the scheme cannot livelock).  Returns
    ``None`` when no productive port survives — the destination is
    unreachable and the caller must drop the packet with accounting
    instead of letting it hang.

    With an empty fault map this is exactly
    :func:`dimension_order_route`.
    """
    if current.z != dest.z:
        if pillar_xy is None:
            raise ValueError(
                f"inter-layer route {current}->{dest} requires a pillar"
            )
        target_x, target_y = pillar_xy
        if (current.x, current.y) == (target_x, target_y):
            return Port.VERTICAL
    else:
        target_x, target_y = dest.x, dest.y
    if current.x < target_x:
        x_port: Optional[Port] = Port.EAST
    elif current.x > target_x:
        x_port = Port.WEST
    else:
        x_port = None
    if current.y < target_y:
        y_port: Optional[Port] = Port.NORTH
    elif current.y > target_y:
        y_port = Port.SOUTH
    else:
        y_port = None
    if x_port is None and y_port is None:
        return Port.LOCAL
    # X-first preference, matching the fault-free dimension order.
    if x_port is not None and (current, x_port) not in dead:
        return x_port
    if y_port is not None and (current, y_port) not in dead:
        return y_port
    return None


def best_pillar(
    src: Coord,
    dest: Coord,
    pillars: list[tuple[int, int]],
) -> tuple[int, int]:
    """Pillar minimizing total path length for an inter-layer route.

    Ties break toward the pillar closest to the source, then by coordinate
    so the choice is deterministic.  Callers under faults pass only the
    surviving pillars; an empty list raises ``ValueError`` and the caller
    must take the unreachable-destination accounting path.
    """
    if not pillars:
        raise ValueError("no pillars available for inter-layer routing")

    def cost(pillar: tuple[int, int]) -> tuple[int, int, tuple[int, int]]:
        px, py = pillar
        to_pillar = abs(src.x - px) + abs(src.y - py)
        from_pillar = abs(dest.x - px) + abs(dest.y - py)
        return (to_pillar + from_pillar, to_pillar, pillar)

    return min(pillars, key=cost)

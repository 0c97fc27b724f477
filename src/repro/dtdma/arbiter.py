"""dTDMA bus arbiter: dynamic slot allocation among active clients.

The arbiter implements the defining property of the dTDMA bus [Richardson
et al., VLSI Design 2006]: the TDMA frame always contains exactly one slot
per *active* client, growing and shrinking as clients start and stop
transmitting.  At flit granularity this is equivalent to round-robin
arbitration over the set of clients with pending flits, which is how we
realize it cycle by cycle: every active client receives 1/k of the bus
bandwidth when k clients are active, and the bus idles only when no client
has data — i.e. it is nearly 100% bandwidth-efficient.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Optional

from repro.sim.stats import StatsRegistry, StatsScope
from repro.sim.trace import BUS_FRAME, NULL_TRACER, Tracer


def control_wire_count(num_layers: int) -> int:
    """Control wires from the arbiter to all layers: ``3n + log2(n)``.

    This is the paper's formula for an ``n``-layer pillar (Section 3.1);
    e.g. a 4-layer chip needs 3*4 + 2 = 14 control wires per pillar.
    """
    if num_layers < 1:
        raise ValueError("a pillar spans at least one layer")
    if num_layers == 1:
        return 3
    return 3 * num_layers + math.ceil(math.log2(num_layers))


class DynamicTDMAArbiter:
    """Grants the bus to one active client per cycle, round-robin.

    Clients are arbitrary hashable identifiers.  The caller supplies the set
    of clients that currently have a transmittable flit; the arbiter picks
    the next one after the previous grant in a fixed circular order.  This
    realizes the dynamically sized TDMA frame: with k active clients the
    grant pattern cycles through exactly those k clients.
    """

    def __init__(
        self,
        clients: Iterable[Hashable],
        stats: Optional[StatsRegistry | StatsScope] = None,
        tracer: Optional[Tracer] = None,
        track: int = 0,
    ):
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("arbiter needs at least one client")
        self._position = {client: index for index, client in enumerate(self.clients)}
        self._last_granted_index = len(self.clients) - 1
        self.stats = stats or StatsRegistry("dtdma.arbiter")
        # Frame grow/shrink events land on the owning bus's track.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._track = track
        self._frame_size = 0
        # Grants are the only statistic: the activity-tracked kernel never
        # asks an idle bus for a grant, so idle cycles are not countable
        # here (the owning bus derives them from the clock).
        self._grants = self.stats.scope("arbiter").counter("grants")

    def add_client(self, client: Hashable) -> None:
        if client in self._position:
            raise ValueError(f"duplicate client {client!r}")
        self._position[client] = len(self.clients)
        self.clients.append(client)

    def remove_client(self, client: Hashable) -> None:
        """Reclaim ``client``'s slot from the TDMA frame.

        Used when a transceiver dies (pillar/TSV fault): the frame shrinks
        so surviving clients immediately share the reclaimed bandwidth.
        Round-robin priority is preserved — the client after the removed
        one in circular order is next in line — and the grant counter
        is untouched, so bandwidth accounting stays consistent across
        the removal.  Removing every client is permitted (a fully dead
        bus); :meth:`grant` then always returns ``None``.
        """
        index = self._position.pop(client, None)
        if index is None:
            raise ValueError(f"unknown client {client!r}")
        del self.clients[index]
        for other, position in self._position.items():
            if position > index:
                self._position[other] = position - 1
        count = len(self.clients)
        if count == 0:
            self._last_granted_index = -1
        elif self._last_granted_index > index:
            self._last_granted_index -= 1
        elif self._last_granted_index == index:
            # Priority passes to the removed client's circular successor.
            self._last_granted_index = (index - 1) % count

    def grant(
        self, active: set[Hashable], cycle: int = 0
    ) -> Optional[Hashable]:
        """Pick the next active client in circular order, or ``None``.

        ``active`` is the set of clients with a deliverable flit this cycle.
        Every member must have been registered (at construction or via
        :meth:`add_client`); an unknown client raises ``ValueError`` rather
        than being silently starved, which would mask wiring mistakes.
        ``cycle`` only timestamps trace events (frame grow/shrink).
        """
        if not active <= self._position.keys():
            unknown = sorted(repr(c) for c in active - self._position.keys())
            raise ValueError(
                f"unregistered client(s) in active set: {', '.join(unknown)}"
            )
        tracer = self._tracer
        if tracer.enabled:
            frame = len(active)
            if frame != self._frame_size:
                tracer.emit(
                    BUS_FRAME, cycle, self._track, self._frame_size, frame
                )
                self._frame_size = frame
        if not active:
            return None
        count = len(self.clients)
        for offset in range(1, count + 1):
            index = (self._last_granted_index + offset) % count
            client = self.clients[index]
            if client in active:
                self._last_granted_index = index
                self._grants.increment()
                return client
        raise AssertionError("unreachable: active is a subset of clients")

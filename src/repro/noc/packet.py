"""Packets: multi-flit network messages.

A packet knows its source and destination node coordinates and, when the
route crosses layers, which communication pillar it will use for the
vertical hop.  Message classes distinguish the cache-protocol traffic types
so statistics can be broken out per class.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.noc.flit import DEFAULT_IDS, Flit, FlitType, IdScope
from repro.noc.routing import Coord
from repro.params import LINE_FLITS


class MessageClass(enum.Enum):
    """Protocol-level classification of a packet (for statistics only)."""

    REQUEST = "request"          # tag search / read request (1 flit header-only)
    DATA = "data"                # cache-line transfer (4 flits)
    COHERENCE = "coherence"      # invalidations, acks
    MIGRATION = "migration"      # cache-line migration transfer
    SYNTHETIC = "synthetic"      # microbenchmark traffic


class Packet:
    """A network message segmented into wormhole flits.

    Parameters
    ----------
    src, dest:
        Node coordinates.
    size_flits:
        Number of flits; by default a cache line's
        :data:`~repro.params.LINE_FLITS` flits of 128 bits.
    message_class:
        Traffic type for statistics.
    pillar_xy:
        ``(x, y)`` of the vertical pillar this packet will use when
        ``src.z != dest.z``.  Chosen by the network at injection time.
    ids:
        The :class:`IdScope` to draw packet/flit ids from.  Networks pass
        their own scope so id sequences restart per simulation; loose
        packets share the process-wide default scope.
    """

    __slots__ = (
        "packet_id",
        "ids",
        "src",
        "dest",
        "size_flits",
        "message_class",
        "pillar_xy",
        "created_cycle",
        "injected_cycle",
        "ejected_cycle",
        "lost",
        "payload",
    )

    def __init__(
        self,
        src: Coord,
        dest: Coord,
        size_flits: int = LINE_FLITS,
        message_class: MessageClass = MessageClass.SYNTHETIC,
        pillar_xy: Optional[tuple[int, int]] = None,
        payload: object = None,
        ids: Optional[IdScope] = None,
    ):
        if size_flits < 1:
            raise ValueError("packet must contain at least one flit")
        self.ids = ids if ids is not None else DEFAULT_IDS
        self.packet_id = self.ids.next_packet_id()
        self.src = src
        self.dest = dest
        self.size_flits = size_flits
        self.message_class = message_class
        self.pillar_xy = pillar_xy
        self.created_cycle: Optional[int] = None
        self.injected_cycle: Optional[int] = None
        self.ejected_cycle: Optional[int] = None
        # Set by the fault subsystem when the packet is dropped (dead
        # pillar blackhole or unreachable destination); a lost packet
        # never ejects, so completion predicates must test both fields.
        self.lost = False
        self.payload = payload

    def make_flits(self, pool: Optional["FlitPool"] = None) -> list[Flit]:
        """Segment the packet into its wormhole flits.

        With ``pool``, flit objects are drawn from its free list instead of
        constructed; ids and timestamps are reinitialised either way.
        """
        acquire = pool.acquire if pool is not None else Flit
        if self.size_flits == 1:
            return [acquire(self, FlitType.HEAD_TAIL, 0)]
        flits = [acquire(self, FlitType.HEAD, 0)]
        flits.extend(
            acquire(self, FlitType.BODY, index)
            for index in range(1, self.size_flits - 1)
        )
        flits.append(acquire(self, FlitType.TAIL, self.size_flits - 1))
        return flits

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency (creation to tail ejection), if complete."""
        if self.ejected_cycle is None or self.created_cycle is None:
            return None
        return self.ejected_cycle - self.created_cycle

    @property
    def network_latency(self) -> Optional[int]:
        """In-network latency (injection to tail ejection), if complete."""
        if self.ejected_cycle is None or self.injected_cycle is None:
            return None
        return self.ejected_cycle - self.injected_cycle

    def __repr__(self) -> str:
        return (
            f"Packet({self.packet_id}: {self.src}->{self.dest}, "
            f"{self.size_flits}f, {self.message_class.value})"
        )


class FlitPool:
    """LIFO free list of :class:`Flit` objects.

    The loaded mesh churns through four flit objects per packet; recycling
    them removes the dominant allocation in the injection path.  A released
    flit is fully reinitialised on acquire — including a fresh ``flit_id``
    from the packet's scope — so pooled and unpooled runs produce identical
    ids, reprs, and statistics.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: list[Flit] = []

    def acquire(self, packet: Packet, flit_type: FlitType, index: int) -> Flit:
        free = self._free
        if not free:
            return Flit(packet, flit_type, index)
        flit = free.pop()
        flit.packet = packet
        flit.flit_type = flit_type
        flit.index = index
        flit.flit_id = packet.ids.next_flit_id()
        flit.injected_cycle = None
        flit.is_head = flit_type is FlitType.HEAD or flit_type is FlitType.HEAD_TAIL
        flit.is_tail = flit_type is FlitType.TAIL or flit_type is FlitType.HEAD_TAIL
        return flit

    def release(self, flit: Flit) -> None:
        """Return an ejected flit to the free list.

        The caller must be done with the flit entirely; the packet
        reference is dropped so pooled flits never pin completed packets.
        """
        flit.packet = None
        self._free.append(flit)

    def __len__(self) -> int:
        return len(self._free)

"""Section 4.2.1 transaction timing, written once for both timing modes.

An L2 transaction's latency follows the paper's two-step search:

* hit in the local cluster: direct tag access, then request to the bank
  and the data's return trip;
* hit in a step-1 neighbour: parallel tag queries, then the winning
  cluster forwards to its bank, data returns;
* hit in step 2: the full step-1 round-trip (all step-1 misses must
  return) precedes the multicast, then the same forward/return path;
* L2 miss: both steps complete, then the 260-cycle memory access.

The CMP-DNUCA baseline instead uses *perfect search* (the paper grants it
that advantage, following Beckmann & Wood): the request goes straight to
the owning cluster.

:class:`TransactionPricer` walks these legs for every transaction but
never prices a packet itself.  It asks a *medium*, which has four
primitives (:class:`Medium`): a critical-path ``leg``, a background
``send``, a ``multicast`` of tag queries of which one cluster answers,
and a ``query_round`` whose slowest round trip decides.  The last two
belong to the medium because the two media order a round differently:
the analytic model records the queries one after another, while the
fabric puts them all in flight before it waits for any.
:class:`ModelMedium` prices with the analytic
:class:`~repro.core.latency_model.LatencyModel` (``mode="model"``);
:class:`~repro.core.cycle_driver.CycleMedium` flies real packets
(``mode="cycle"``).

Every model-mode figure is pinned bit for bit by golden digests, so the
walk keeps the model's float association: ``latency + (tag + memory)``
for a perfect-search miss, ``round + (answer + tag)`` for a step-2 hit,
and ``(leg + bank) + leg`` for a read's data phase.  Cycle-mode
latencies are whole numbers, which no association changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.cache.nuca import WRITE, AccessOutcome
from repro.core.latency_model import LatencyModel
from repro.noc.packet import MessageClass
from repro.noc.routing import Coord
from repro.params import (
    BANK_LATENCY, LINE_FLITS, MEMORY_LATENCY, REQUEST_FLITS, TAG_LATENCY,
)

if TYPE_CHECKING:
    from repro.core.system import NetworkInMemory

REQUEST = MessageClass.REQUEST
DATA = MessageClass.DATA


class Medium(Protocol):
    """What the walk needs from a timing back-end.

    ``cycle`` is the requester's clock and ``cls`` the packet's message
    class; a medium uses whichever it models.  Queries are
    ``REQUEST_FLITS`` long and every probed tag array takes
    ``TAG_LATENCY`` to answer (:mod:`repro.params`).
    """

    def leg(self, src: Coord, dest: Coord, flits: int, cycle: float,
            cls: MessageClass) -> float:
        """Latency of a critical-path packet (0 when ``src == dest``)."""

    def send(self, src: Coord, dest: Coord, flits: int, cycle: float,
             cls: MessageClass) -> None:
        """Load the network with a background packet."""

    def multicast(self, src: Coord, targets: tuple[Coord, ...], answer: Coord,
                  cycle: float) -> float:
        """Query every target; the one to ``answer`` is timed like a leg."""

    def query_round(self, src: Coord, targets: tuple[Coord, ...],
                    cycle: float) -> float:
        """Query every target; the slowest round trip, or one tag probe."""


class ModelMedium:
    """Prices packets with the analytic latency model."""

    def __init__(self, model: LatencyModel):
        self.model = model

    def leg(self, src, dest, flits, cycle, cls) -> float:
        if src == dest:
            return 0.0
        return self.model.packet_latency(src, dest, flits, cycle)

    def send(self, src, dest, flits, cycle, cls) -> None:
        self.model.note_packet(src, dest, flits, cycle)

    def multicast(self, src, targets, answer, cycle) -> float:
        """Every query is recorded first, so the answer's sees their load."""
        return self.model.multicast(src, targets, answer, REQUEST_FLITS, cycle)

    def query_round(self, src, targets, cycle) -> float:
        return self.model.query_round(
            src, targets, REQUEST_FLITS, TAG_LATENCY, cycle
        )


class TransactionPricer:
    """The legs of one L2 transaction, priced by a :class:`Medium`."""

    def __init__(self, system: "NetworkInMemory", medium: Medium):
        self.medium = medium
        self.cpu_positions = system.topology.cpu_positions
        self.clusters = system.topology.clusters
        # Cluster.center builds a new Coord on every read.
        self._centers = tuple(cluster.center for cluster in self.clusters)
        self.memory_node = system.memory_node
        self.perfect_search = system.setup.perfect_search
        self._search = system.l2.search
        # Search plans never change: cache each CPU's local cluster and
        # its step-1 (local excluded) and step-2 query targets, as tuples
        # so that the model can key its round tables by them.
        self._plans: dict[
            int, tuple[int, tuple[Coord, ...], tuple[Coord, ...]]
        ] = {}

    def _plan(
        self, cpu_id: int
    ) -> tuple[int, tuple[Coord, ...], tuple[Coord, ...]]:
        found = self._plans.get(cpu_id)
        if found is None:
            plan = self._search.plan(cpu_id)
            tags = [cluster.tag_node for cluster in self.clusters]
            found = self._plans[cpu_id] = (
                plan.local_cluster,
                tuple(tags[c] for c in plan.step1 if c != plan.local_cluster),
                tuple(tags[c] for c in plan.step2),
            )
        return found

    def price(self, cpu_id: int, outcome: AccessOutcome, cycle: float) -> float:
        medium = self.medium
        cpu_node = self.cpu_positions[cpu_id]
        tag_node = outcome.tag_node

        # Background traffic first: a migration and its swap load the
        # network but are off the critical path.
        migration = outcome.migration
        if migration is not None:
            source, target = migration
            src = self._centers[source]
            dst = self._centers[target]
            medium.send(src, dst, LINE_FLITS, cycle, MessageClass.MIGRATION)
            medium.send(dst, src, LINE_FLITS, cycle, MessageClass.MIGRATION)

        if self.perfect_search:
            latency = medium.leg(
                cpu_node, tag_node, REQUEST_FLITS, cycle, REQUEST
            )
            if outcome.hit:
                return (latency + TAG_LATENCY
                        + self._data_phase(cpu_node, outcome, cycle))
            latency += TAG_LATENCY + MEMORY_LATENCY
        else:
            local, step1, step2 = self._plan(cpu_id)
            if outcome.hit and outcome.search_step == 1:
                # Parallel step-1 queries: the hitting cluster's path
                # decides; the requester probes its local tags directly.
                answer = cpu_node if outcome.cluster == local else tag_node
                latency = (medium.multicast(cpu_node, step1, answer, cycle)
                           + TAG_LATENCY)
                return latency + self._data_phase(cpu_node, outcome, cycle)
            # Step 1 concluded with misses everywhere.
            latency = medium.query_round(cpu_node, step1, cycle)
            if outcome.hit:
                # Step-2 multicast; the hitting cluster answers.
                latency += (medium.multicast(cpu_node, step2, tag_node, cycle)
                            + TAG_LATENCY)
                return latency + self._data_phase(cpu_node, outcome, cycle)
            # Full L2 miss: both rounds, then memory.
            latency += medium.query_round(cpu_node, step2, cycle)
            latency += MEMORY_LATENCY
        # Refill traffic from the memory port to the home bank.
        medium.send(
            self.memory_node, outcome.bank_node, LINE_FLITS, cycle, DATA
        )
        return latency

    def _data_phase(
        self, cpu_node: Coord, outcome: AccessOutcome, cycle: float
    ) -> float:
        """After the tag match: move the data.

        Reads: the tag array forwards the request to the bank, which
        returns the line to the CPU.  Writes: the CPU ships the line to
        the bank (write-through); nothing returns.
        """
        leg = self.medium.leg
        bank_node = outcome.bank_node
        if outcome.access_type is WRITE:
            return (leg(cpu_node, bank_node, LINE_FLITS, cycle, DATA)
                    + BANK_LATENCY)
        return (
            leg(outcome.tag_node, bank_node, REQUEST_FLITS, cycle, REQUEST)
            + BANK_LATENCY
            + leg(bank_node, cpu_node, LINE_FLITS, cycle, DATA)
        )

    def charge_invalidations(
        self, src: Coord, cpu_targets: list[int], cycle: float
    ) -> None:
        """Invalidation + ack traffic (off the critical path)."""
        send = self.medium.send
        for cpu in cpu_targets:
            node = self.cpu_positions[cpu]
            if node != src:
                send(src, node, REQUEST_FLITS, cycle, MessageClass.COHERENCE)
                send(node, src, REQUEST_FLITS, cycle, MessageClass.COHERENCE)

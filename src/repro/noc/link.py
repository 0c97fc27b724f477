"""The hot-path transfer pipelines of the mesh links.

:class:`LinkPipeline` and :class:`CreditPipeline` are the allocation-free
replacements for the ``engine.schedule(lambda: ...)`` per-hop pattern:
one shared calendar-ring pipeline carries every mesh link's in-flight
flits (one clocked component per network instead of one event per flit),
and credit returns ride the engine's post queue (one list append instead
of a closure plus a heap push).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import ClockedComponent, Engine
from repro.noc.flit import Flit


class LinkPipeline(ClockedComponent):
    """Shared calendar ring carrying every in-flight mesh-link flit.

    One pipeline serves all of a network's multi-cycle links: a flit sent
    with ``latency`` L is appended to the bucket for cycle ``now + L`` and
    handed to its sink when that bucket's cycle arrives.  Buckets are
    flat ``[sink, flit, vc, sink, flit, vc, ...]`` lists that are cleared
    and reused, so steady-state transfer allocates nothing.

    Timing matches the event-based link it replaces: a flit sent during
    ``advance(K)`` with latency L is delivered in ``advance(K + L - 1)``,
    i.e. it lands in the downstream input buffer in the same cycle as the
    old ``schedule(L, ...)`` event (which fired at the top of step
    ``K + L``, before any ``evaluate``) — in both models the downstream
    router first arbitrates over it in cycle ``K + L``.  Delivering from
    the tail of ``advance`` vs. the top of ``step`` is unobservable because
    no component reads remote input buffers during ``advance``.

    Only latencies >= 2 may use the pipeline: a latency-1 due slot would be
    the cycle the send itself occurs in, after this pipeline may already
    have advanced.  Latency-1 transfers are delivered directly by the
    sender (see ``router.connect``), which the same argument proves
    equivalent.
    """

    def __init__(self, engine: Engine, max_latency: int = 2):
        self.engine = engine
        self._size = max(2, max_latency + 1)
        self._buckets: list[list[Any]] = [[] for __ in range(self._size)]
        self._in_flight = 0
        self.flits_carried = 0

    def reserve(self, latency: int) -> None:
        """Widen the ring so links of ``latency`` cycles fit.

        Must be called while the pipeline is empty (wiring time): resizing
        would re-home occupied buckets.
        """
        if latency < 2:
            raise ValueError(
                f"pipeline links need latency >= 2, got {latency}"
            )
        if latency + 1 > self._size:
            if self._in_flight:
                raise RuntimeError(
                    "cannot grow a LinkPipeline with flits in flight"
                )
            self._size = latency + 1
            self._buckets = [[] for __ in range(self._size)]

    def send(
        self,
        sink: Callable[[Flit, int], None],
        flit: Flit,
        vc: int,
        latency: int,
    ) -> None:
        """Enqueue ``flit`` for delivery to ``sink`` after ``latency`` cycles."""
        bucket = self._buckets[(self.engine.cycle + latency) % self._size]
        bucket.append(sink)
        bucket.append(flit)
        bucket.append(vc)
        self._in_flight += 1
        self.flits_carried += 1
        self.wake()

    def advance(self, cycle: int) -> None:
        # Deliver the flits due at cycle + 1 (they were sent L cycles before
        # that, during some advance phase, so they have been "on the wire"
        # for exactly L cycles when the downstream router evaluates next).
        bucket = self._buckets[(cycle + 1) % self._size]
        if bucket:
            for i in range(0, len(bucket), 3):
                bucket[i](bucket[i + 1], bucket[i + 2])
            self._in_flight -= len(bucket) // 3
            bucket.clear()

    def is_idle(self) -> bool:
        return self._in_flight == 0


class CreditPipeline:
    """One-cycle-delayed credit return via the engine's post queue.

    Calling the pipeline with a VC index posts ``return_credit(vc)`` to run
    at the top of the next executed step — the same instant the old
    ``schedule(1, lambda: ...)`` event fired, but with no closure or heap
    push.  The delay is load-bearing: senders (NIC, routers) read credit
    counts during their own ``advance``, so an immediate increment would
    let them transmit one cycle early.
    """

    __slots__ = ("_post", "_return_credit")

    def __init__(self, engine: Engine, return_credit: Callable[[int], None]):
        self._post = engine.post
        self._return_credit = return_credit

    def __call__(self, vc: int) -> None:
        self._post(self._return_credit, vc)

"""Cycle-driven simulation engine with a two-phase update discipline.

Hardware structures (routers, buses, cache controllers) are modelled as
:class:`ClockedComponent` objects registered with an :class:`Engine`.  Each
simulated cycle the engine:

1. fires any events scheduled for the current cycle,
2. calls ``evaluate()`` on every *active* component (combinational phase —
   components read the state published by the previous cycle and decide
   what they will do), and
3. calls ``advance()`` on every *active* component (sequential phase —
   components commit the decisions, moving flits between buffers).

The two-phase split means evaluation order between components never changes
behaviour, which keeps the simulator deterministic regardless of the order
components were registered in.

Activity tracking
-----------------

With ``activity_tracking=True`` (the default) the engine maintains an
*active set* and only ticks components in it, and when the active set is
empty it *fast-forwards* the cycle counter straight to the next pending
event instead of stepping one empty cycle at a time.  The contract a
component must honour to participate:

* ``is_idle()`` — return ``True`` only when ``evaluate``/``advance`` would
  be pure no-ops (no buffered work, no decisions, no per-cycle state
  mutation, no statistics recorded) for every cycle until some external
  call deposits new work.  The base-class default is ``False``, so a
  component that does not opt in is simply ticked every cycle, exactly as
  under the naive kernel.
* ``wake()`` — every entry point that deposits work into an idle component
  (``InputPort.accept``, dTDMA transceiver enqueue, NIC injection, traffic
  restart) must call the owning component's ``wake()`` so the engine
  re-adds it to the active set.

That is the whole contract.  A statistic that covers every cycle (a
pillar bus's utilization) is derived from the clock when it is read,
never counted per tick, so skipped cycles leave nothing to replay and a
raw :meth:`Engine.step` loop reads the same numbers as :meth:`Engine.run`.

Determinism guarantee: a component's idle cycles are by definition
behaviour-free, so skipping them (and jumping the clock over windows where
*every* component is idle) produces bit-identical component state, cycle
counts, and statistics to the naive kernel — asserted end-to-end by
``tests/integration/test_kernel_differential.py``.  The one caveat is
:meth:`Engine.run_until`: its predicate must be *state-based* (flipped by
component or event activity), not a function of the raw cycle counter,
because the predicate is not re-polled inside a fast-forwarded window.

Membership changes take effect at cycle boundaries: the set of components
ticked in a cycle is fixed when the cycle starts, a component registered
mid-cycle first ticks on the next cycle, and one unregistered mid-cycle is
skipped for the remaining phases of the current cycle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationStallError(RuntimeError):
    """A simulation failed to make progress.

    Structured superclass for every "the clock ran but nothing converged"
    condition: :meth:`Engine.run_until` exhausting its cycle budget raises
    this directly, and the fault subsystem's
    :class:`~repro.faults.watchdog.DeadlockError` subclasses it with the
    stalled components named.  ``failure_kind`` is the machine-readable
    tag the sweep orchestrator records in its ``CellFailure`` entries, so
    a stalled cell is distinguishable from an ordinary error or a
    wall-clock timeout.
    """

    failure_kind = "stall"

    def __init__(
        self,
        message: str,
        *,
        engine_name: str = "engine",
        cycle: int = 0,
        executed: int = 0,
        max_cycles: int = 0,
    ):
        super().__init__(message)
        self.engine_name = engine_name
        self.cycle = cycle
        self.executed = executed
        self.max_cycles = max_cycles


class ClockedComponent:
    """Base class for anything that does work every cycle.

    Subclasses override :meth:`evaluate` and/or :meth:`advance`.  The split
    exists so that every component sees the same pre-cycle state during
    ``evaluate`` and commits state changes during ``advance``.

    Components that can go quiescent additionally override :meth:`is_idle`
    and arrange for :meth:`wake` to be called whenever new work arrives
    (see the module docstring for the full activity/wake contract).
    """

    # Set by Engine.register / cleared by Engine.unregister.
    _engine: Optional["Engine"] = None
    _engine_index: int = -1

    def evaluate(self, cycle: int) -> None:
        """Combinational phase: read previous-cycle state, make decisions."""

    def advance(self, cycle: int) -> None:
        """Sequential phase: commit the decisions made in :meth:`evaluate`."""

    def is_idle(self) -> bool:
        """``True`` iff ticking this component is a no-op until re-woken.

        Checked by the engine at the end of every cycle the component was
        ticked in; returning ``True`` retires it from the active set.  The
        conservative default keeps the component always active.
        """
        return False

    def wake(self) -> None:
        """Re-enter the engine's active set (no-op when unregistered)."""
        engine = self._engine
        if engine is not None:
            engine.wake(self)


class Event:
    """A callback scheduled to run at a specific cycle.

    Events may be cancelled before they fire; a cancelled event is skipped
    silently when its cycle arrives.
    """

    __slots__ = ("cycle", "callback", "cancelled")

    def __init__(self, cycle: int, callback: Callable[[], Any]):
        self.cycle = cycle
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing."""
        self.cancelled = True


class Engine:
    """Discrete-time simulation engine.

    Parameters
    ----------
    name:
        Label used in error messages and statistics dumps.
    activity_tracking:
        When ``True`` (default), skip components whose :meth:`~ClockedComponent.is_idle`
        hint holds and fast-forward over fully idle windows.  ``False``
        selects the naive kernel that ticks every component every cycle;
        both produce bit-identical results for well-behaved components.
    """

    def __init__(self, name: str = "engine", activity_tracking: bool = True):
        self.name = name
        self.cycle = 0
        self.activity_tracking = activity_tracking
        # Ordered set of registered components.  A dict preserves the
        # registration order the naive kernel ticks in while giving O(1)
        # unregister (the index-map/swap-pop alternative would reorder the
        # naive tick sequence on removal).
        self._components: dict[ClockedComponent, None] = {}
        self._active: set[ClockedComponent] = set()
        # Cached registration-ordered view of the active set; rebuilt only
        # when membership changes (most cycles it does not).
        self._active_order: Optional[list[ClockedComponent]] = None
        self._event_heap: list[tuple[int, int, Event]] = []
        self._sequence = itertools.count()
        self._index_counter = itertools.count()
        # Posted callbacks: the allocation-free fast path for the ubiquitous
        # schedule(1, ...) pattern (credit returns).  Parallel fn/arg lists
        # avoid a tuple per post; the spare pair is swapped in while the
        # current batch drains so reentrant posts land in the next step.
        self._post_fns: list[Callable[[Any], None]] = []
        self._post_args: list[Any] = []
        self._spare_post_fns: list[Callable[[Any], None]] = []
        self._spare_post_args: list[Any] = []
        self._stop_requested = False
        # Work accounting, for benchmarks and the differential tests:
        # component-cycles actually ticked, and cycles jumped over.
        self.ticks = 0
        self.fast_forwarded_cycles = 0

    def register(self, component: ClockedComponent) -> ClockedComponent:
        """Add a clocked component to the per-cycle update list.

        A freshly registered component starts *active* (it is ticked until
        its first ``is_idle()`` retirement), so registration order alone
        never hides a component from the clock.
        """
        if not isinstance(component, ClockedComponent):
            raise TypeError(f"{component!r} is not a ClockedComponent")
        if component._engine is not None:
            raise ValueError(
                f"{component!r} is already registered with engine "
                f"{component._engine.name!r}"
            )
        component._engine = self
        component._engine_index = next(self._index_counter)
        self._components[component] = None
        self._active.add(component)
        self._active_order = None
        return component

    def unregister(self, component: ClockedComponent) -> None:
        """Remove a previously registered component in O(1).

        Safe to call from inside ``evaluate``/``advance``: the component is
        skipped for the remaining phases of the current cycle instead of
        corrupting the in-flight iteration.  Raises :class:`ValueError`
        naming the component if it was never registered here.
        """
        if component._engine is not self or component not in self._components:
            raise ValueError(
                f"{component!r} is not registered with engine {self.name!r}"
            )
        del self._components[component]
        if component in self._active:
            self._active.discard(component)
            self._active_order = None
        component._engine = None

    def wake(self, component: ClockedComponent) -> None:
        """Mark ``component`` active so it is ticked from the next phase on."""
        if component._engine is not self:
            raise ValueError(
                f"{component!r} is not registered with engine {self.name!r}"
            )
        if component not in self._active:
            self._active.add(component)
            self._active_order = None

    @property
    def active_count(self) -> int:
        """Components currently in the active set."""
        return len(self._active)

    def schedule(self, delay: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a delay of zero fires at the start of
        the *next* call to :meth:`step` for the current cycle's events, i.e.
        before any component evaluates.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        event = Event(self.cycle + delay, callback)
        heapq.heappush(self._event_heap, (event.cycle, next(self._sequence), event))
        return event

    def post(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at the top of the next :meth:`step` call.

        Equivalent in timing to ``schedule(1, lambda: fn(arg))`` — the
        callback fires before any component evaluates in the next executed
        cycle — but without the closure, Event object, or heap push.  This
        is the hot-path mechanism for one-cycle-delayed credit returns.
        """
        self._post_fns.append(fn)
        self._post_args.append(arg)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current cycle."""
        self._stop_requested = True

    def peek_next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending (non-cancelled) event, or ``None``."""
        while self._event_heap:
            cycle, __, event = self._event_heap[0]
            if event.cancelled:
                heapq.heappop(self._event_heap)
                continue
            return cycle
        return None

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        cycle = self.cycle
        if self._post_fns:
            fns, args = self._post_fns, self._post_args
            self._post_fns, self._post_args = (
                self._spare_post_fns, self._spare_post_args
            )
            for i in range(len(fns)):
                fns[i](args[i])
            fns.clear()
            args.clear()
            self._spare_post_fns, self._spare_post_args = fns, args
        while self._event_heap and self._event_heap[0][0] <= cycle:
            __, __, event = heapq.heappop(self._event_heap)
            if not event.cancelled:
                event.callback()
        if self.activity_tracking:
            tick = self._active_order
            if tick is None:
                tick = self._active_order = sorted(
                    self._active, key=lambda c: c._engine_index
                )
        else:
            tick = list(self._components)
        self.ticks += len(tick)
        for component in tick:
            if component._engine is self:
                component.evaluate(cycle)
        for component in tick:
            if component._engine is self:
                component.advance(cycle)
        if self.activity_tracking:
            for component in tick:
                if component._engine is self and component.is_idle():
                    self._active.discard(component)
                    self._active_order = None
        self.cycle = cycle + 1

    def _idle_skip(self, max_skip: int) -> int:
        """Fast-forward over a fully idle window; returns cycles skipped.

        Only jumps when activity tracking is on and the active set is
        empty: nothing can change until the next scheduled event, so the
        clock moves straight to it (or by ``max_skip`` if the event queue
        is empty too).
        """
        if (
            not self.activity_tracking
            or self._active
            or self._post_fns
            or max_skip <= 0
        ):
            # Pending posts pin the clock: they fire in the next executed
            # step, exactly like an event scheduled at cycle + 1 would.
            return 0
        next_event = self.peek_next_event_cycle()
        if next_event is None:
            skip = max_skip
        else:
            skip = min(max_skip, next_event - self.cycle)
        if skip > 0:
            self.cycle += skip
            self.fast_forwarded_cycles += skip
            return skip
        return 0

    def run(self, cycles: int) -> int:
        """Run for at most ``cycles`` cycles; returns cycles actually run.

        Fast-forwarded cycles count as run: the returned total and the
        final cycle counter match the naive kernel exactly.
        """
        self._stop_requested = False
        executed = 0
        while executed < cycles:
            if self._stop_requested:
                break
            executed += self._idle_skip(cycles - executed)
            if executed >= cycles:
                break
            self.step()
            executed += 1
        return executed

    def run_until(self, predicate: Callable[[], bool], max_cycles: int = 10_000_000) -> int:
        """Run until ``predicate()`` is true or ``max_cycles`` elapse.

        Returns the number of cycles executed.  Raises
        :class:`SimulationStallError` (a ``RuntimeError`` subclass carrying
        the engine name, cycle, and budget) if the predicate never became
        true, which almost always indicates deadlock in the modelled
        hardware.  Under activity tracking the predicate must be
        state-based (see the module docstring).
        """
        executed = 0
        while not predicate():
            if executed >= max_cycles:
                raise SimulationStallError(
                    f"{self.name}: run_until exceeded {max_cycles} cycles "
                    "(likely deadlock)",
                    engine_name=self.name,
                    cycle=self.cycle,
                    executed=executed,
                    max_cycles=max_cycles,
                )
            skipped = self._idle_skip(max_cycles - executed)
            if skipped:
                executed += skipped
                continue
            self.step()
            executed += 1
        return executed

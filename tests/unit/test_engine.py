"""Unit tests for the cycle-driven simulation engine."""

import pytest

from repro.sim.engine import ClockedComponent, Engine


class Recorder(ClockedComponent):
    """Records the cycles at which each phase ran."""

    def __init__(self):
        self.evaluated = []
        self.advanced = []

    def evaluate(self, cycle):
        self.evaluated.append(cycle)

    def advance(self, cycle):
        self.advanced.append(cycle)


def test_step_advances_cycle():
    engine = Engine()
    assert engine.cycle == 0
    engine.step()
    assert engine.cycle == 1


def test_components_called_each_cycle():
    engine = Engine()
    recorder = Recorder()
    engine.register(recorder)
    engine.run(3)
    assert recorder.evaluated == [0, 1, 2]
    assert recorder.advanced == [0, 1, 2]


def test_two_phase_order_within_cycle():
    engine = Engine()
    order = []

    class A(ClockedComponent):
        def evaluate(self, cycle):
            order.append("eval-a")

        def advance(self, cycle):
            order.append("adv-a")

    class B(ClockedComponent):
        def evaluate(self, cycle):
            order.append("eval-b")

        def advance(self, cycle):
            order.append("adv-b")

    engine.register(A())
    engine.register(B())
    engine.step()
    # All evaluations precede all advances.
    assert order == ["eval-a", "eval-b", "adv-a", "adv-b"]


def test_register_rejects_non_component():
    engine = Engine()
    with pytest.raises(TypeError):
        engine.register(object())


def test_unregister_stops_updates():
    engine = Engine()
    recorder = Recorder()
    engine.register(recorder)
    engine.run(1)
    engine.unregister(recorder)
    engine.run(1)
    assert recorder.evaluated == [0]


def test_event_fires_at_scheduled_cycle():
    engine = Engine()
    fired = []
    engine.schedule(3, lambda: fired.append(engine.cycle))
    engine.run(5)
    assert fired == [3]


def test_event_zero_delay_fires_on_current_cycle():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda: fired.append(engine.cycle))
    engine.step()
    assert fired == [0]


def test_event_cancellation():
    engine = Engine()
    fired = []
    event = engine.schedule(2, lambda: fired.append(1))
    event.cancel()
    engine.run(5)
    assert fired == []


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_events_fire_in_schedule_order_same_cycle():
    engine = Engine()
    fired = []
    engine.schedule(1, lambda: fired.append("first"))
    engine.schedule(1, lambda: fired.append("second"))
    engine.run(2)
    assert fired == ["first", "second"]


def test_events_fire_before_component_evaluate():
    engine = Engine()
    order = []

    class Watcher(ClockedComponent):
        def evaluate(self, cycle):
            order.append(f"eval@{cycle}")

    engine.register(Watcher())
    engine.schedule(1, lambda: order.append("event@1"))
    engine.run(2)
    assert order.index("event@1") < order.index("eval@1")


def test_run_until_predicate():
    engine = Engine()
    count = []

    class Counter(ClockedComponent):
        def advance(self, cycle):
            count.append(cycle)

    engine.register(Counter())
    executed = engine.run_until(lambda: len(count) >= 5)
    assert executed == 5


def test_run_until_deadlock_detection():
    engine = Engine()
    with pytest.raises(RuntimeError, match="deadlock"):
        engine.run_until(lambda: False, max_cycles=10)


def test_stop_interrupts_run():
    engine = Engine()

    class Stopper(ClockedComponent):
        def __init__(self, eng):
            self.engine = eng

        def advance(self, cycle):
            if cycle == 2:
                self.engine.stop()

    engine.register(Stopper(engine))
    executed = engine.run(100)
    assert executed == 3


def test_peek_next_event_cycle_skips_cancelled():
    engine = Engine()
    event = engine.schedule(2, lambda: None)
    engine.schedule(5, lambda: None)
    assert engine.peek_next_event_cycle() == 2
    event.cancel()
    assert engine.peek_next_event_cycle() == 5


def test_event_scheduled_during_advance_fires_next_cycle():
    engine = Engine()
    fired = []

    class Scheduler(ClockedComponent):
        def __init__(self, eng):
            self.engine = eng
            self.done = False

        def advance(self, cycle):
            if not self.done:
                self.done = True
                self.engine.schedule(1, lambda: fired.append(engine.cycle))

    engine.register(Scheduler(engine))
    engine.run(3)
    assert fired == [1]


# -- membership changes during a cycle (regression: list mutated mid-loop) --


class Unregisterer(ClockedComponent):
    """Unregisters a victim component (and optionally itself) mid-cycle."""

    def __init__(self, engine, victims, phase="evaluate"):
        self.engine = engine
        self.victims = victims
        self.phase = phase
        self.done = False

    def _fire(self):
        if not self.done:
            self.done = True
            for victim in self.victims:
                self.engine.unregister(victim)

    def evaluate(self, cycle):
        if self.phase == "evaluate":
            self._fire()

    def advance(self, cycle):
        if self.phase == "advance":
            self._fire()


@pytest.mark.parametrize("tracking", [False, True])
@pytest.mark.parametrize("phase", ["evaluate", "advance"])
def test_unregister_other_during_step(tracking, phase):
    engine = Engine(activity_tracking=tracking)
    remover = Unregisterer(engine, [], phase=phase)
    victims = [Recorder(), Recorder()]
    engine.register(remover)
    for victim in victims:
        engine.register(victim)
    remover.victims = victims
    engine.run(3)
    for victim in victims:
        # Unregistered during evaluate: skipped even for this cycle's
        # advance.  Unregistered during advance: evaluate already ran.
        assert victim.advanced == []
        assert victim.evaluated == ([0] if phase == "advance" else [])


@pytest.mark.parametrize("tracking", [False, True])
def test_unregister_self_during_step(tracking):
    engine = Engine(activity_tracking=tracking)
    remover = Unregisterer(engine, [], phase="advance")
    remover.victims = [remover]
    engine.register(remover)
    survivor = Recorder()
    engine.register(survivor)
    engine.run(2)
    # The self-removal must not disturb iteration over the remaining
    # components of the same cycle.
    assert survivor.evaluated == [0, 1]
    assert survivor.advanced == [0, 1]


def test_register_twice_rejected():
    engine = Engine()
    recorder = Recorder()
    engine.register(recorder)
    with pytest.raises(ValueError, match="already registered"):
        engine.register(recorder)
    with pytest.raises(ValueError, match="already registered"):
        Engine("other").register(recorder)


def test_register_during_step_ticks_next_cycle():
    engine = Engine()
    late = Recorder()

    class Adder(ClockedComponent):
        def __init__(self):
            self.done = False

        def advance(self, cycle):
            if not self.done:
                self.done = True
                engine.register(late)

    engine.register(Adder())
    engine.run(3)
    assert late.evaluated == [1, 2]


# -- activity tracking ------------------------------------------------------


class IdleAfterBudget(ClockedComponent):
    """Reports idle once it has been ticked ``budget`` times."""

    def __init__(self, budget=1):
        self.budget = budget
        self.evaluated = []

    def evaluate(self, cycle):
        self.evaluated.append(cycle)

    def is_idle(self):
        return len(self.evaluated) >= self.budget


def test_idle_component_retired_and_rewoken():
    engine = Engine(activity_tracking=True)
    component = IdleAfterBudget(budget=2)
    engine.register(component)
    engine.run(5)
    # Ticked on cycles 0 and 1, then retired; cycles 2-4 fast-forwarded.
    assert component.evaluated == [0, 1]
    assert engine.active_count == 0
    component.budget = 3
    component.wake()
    engine.run(2)
    assert component.evaluated == [0, 1, 5]


def test_naive_kernel_ignores_is_idle():
    engine = Engine(activity_tracking=False)
    component = IdleAfterBudget(budget=1)
    engine.register(component)
    engine.run(4)
    assert component.evaluated == [0, 1, 2, 3]
    assert engine.fast_forwarded_cycles == 0


def test_fast_forward_stops_at_next_event():
    engine = Engine(activity_tracking=True)
    fired = []
    engine.schedule(100, lambda: fired.append(engine.cycle))
    executed = engine.run(300)
    # Nothing is active: the clock jumps straight to the event, steps
    # through it, then jumps to the horizon.  Totals match the naive kernel.
    assert executed == 300
    assert engine.cycle == 300
    assert fired == [100]
    assert engine.fast_forwarded_cycles == 299


def test_wake_requires_registration():
    engine = Engine()
    stray = Recorder()
    with pytest.raises(ValueError, match="not registered"):
        engine.wake(stray)
    # The component-side helper is a safe no-op when unregistered.
    stray.wake()


def test_run_until_fast_forwards_to_event():
    engine = Engine(activity_tracking=True)
    done = []
    engine.schedule(1000, lambda: done.append(True))
    executed = engine.run_until(lambda: bool(done), max_cycles=5000)
    assert done and executed == 1001
    assert engine.fast_forwarded_cycles >= 999


# -- post queue (hot-path credit returns) -----------------------------------


def test_post_runs_at_top_of_next_step():
    engine = Engine()
    order = []

    class Poster(ClockedComponent):
        def __init__(self):
            self.done = False

        def evaluate(self, cycle):
            order.append(f"eval@{cycle}")

        def advance(self, cycle):
            if not self.done:
                self.done = True
                engine.post(order.append, "posted")

    engine.register(Poster())
    engine.run(2)
    # Posted during advance(0); applied before evaluate(1), like a
    # schedule(1, ...) event — never within the posting cycle.
    assert order == ["eval@0", "posted", "eval@1"]


def test_post_fires_before_events_of_same_step():
    engine = Engine()
    order = []
    engine.schedule(1, lambda: order.append("event"))
    engine.post(order.append, "posted")
    engine.run(2)
    assert order == ["posted", "event"]


def test_post_during_post_drains_next_step():
    engine = Engine()
    seen = []

    def reposter(value):
        seen.append((value, engine.cycle))
        if value == "first":
            engine.post(reposter, "second")

    engine.post(reposter, "first")
    engine.run(3)
    assert seen == [("first", 0), ("second", 1)]


def test_pending_post_blocks_fast_forward():
    engine = Engine(activity_tracking=True)
    fired = []
    engine.post(lambda __: fired.append(engine.cycle), None)
    engine.run(10)
    # The post pins cycle 0 (no skip), then the remaining window is idle.
    assert fired == [0]
    assert engine.cycle == 10
    assert engine.fast_forwarded_cycles == 9


# -- O(1) unregister --------------------------------------------------------


def test_unregister_never_registered_raises():
    engine = Engine()
    stray = Recorder()
    with pytest.raises(ValueError, match="not registered"):
        engine.unregister(stray)


def test_unregister_from_other_engine_raises():
    first = Engine("first")
    second = Engine("second")
    recorder = Recorder()
    first.register(recorder)
    with pytest.raises(ValueError, match="not registered with engine 'second'"):
        second.unregister(recorder)
    # Still registered with (and tickable by) the original engine.
    first.run(1)
    assert recorder.evaluated == [0]


def test_unregister_preserves_naive_tick_order():
    engine = Engine(activity_tracking=False)
    order = []

    class Tagged(ClockedComponent):
        def __init__(self, tag):
            self.tag = tag

        def evaluate(self, cycle):
            order.append(self.tag)

    components = [Tagged(tag) for tag in "abcd"]
    for component in components:
        engine.register(component)
    engine.unregister(components[1])  # remove "b" from the middle
    engine.step()
    assert order == ["a", "c", "d"]


def test_reregister_after_unregister():
    engine = Engine()
    recorder = Recorder()
    engine.register(recorder)
    engine.unregister(recorder)
    engine.register(recorder)
    engine.run(1)
    assert recorder.evaluated == [0]

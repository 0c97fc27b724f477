"""Fault injection: apply a resolved fault schedule to a live fabric.

The :class:`FaultInjector` turns the fully explicit schedule produced by
:meth:`FaultSpec.resolve` into engine events: each fault's onset (and,
for transients, its heal) fires at an exact engine cycle, before any
component evaluates that cycle — identical timing in the activity-tracked
and naive kernels.

:func:`install_network_faults` is the one-call wiring helper for a bare
:class:`~repro.noc.network.Network` (the cycle-accurate path); the
system layer composes the same pieces itself so bank faults can reach
the NUCA cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.noc.routing import Coord, Port
from repro.faults.spec import FaultEvent, FaultSpec, mesh_link_targets
from repro.faults.state import FaultState
from repro.faults.watchdog import LivenessWatchdog


class FaultInjector:
    """Schedules and applies the faults of one resolved schedule.

    Parameters
    ----------
    engine:
        The simulation engine; onsets/heals become its events.
    state:
        The live :class:`FaultState` the tolerance mechanisms consult.
    events:
        Resolved :class:`FaultEvent` tuple (explicit targets only).
    pillars:
        ``(x, y) -> PillarBus`` map for pillar faults (drain-then-die is
        bus-level mechanics, not just a set update).
    on_bank_change:
        Optional callback invoked after a bank fault injects or heals,
        so the cache layer can re-derive capacity.
    """

    def __init__(
        self,
        engine,
        state: FaultState,
        events: tuple[FaultEvent, ...],
        *,
        pillars: Optional[dict] = None,
        on_bank_change: Optional[Callable[[], None]] = None,
    ):
        self.engine = engine
        self.state = state
        self.events = tuple(events)
        self._pillars = pillars if pillars is not None else {}
        self._on_bank_change = on_bank_change
        for event in self.events:
            self._validate(event)
        for event in self.events:
            engine.schedule(
                max(0, event.onset - engine.cycle),
                lambda e=event: self._apply(e),
            )
            heal = event.heal_cycle
            if heal is not None:
                engine.schedule(
                    max(0, heal - engine.cycle),
                    lambda e=event: self._heal(e),
                )

    def _validate(self, event: FaultEvent) -> None:
        if event.kind == "pillar":
            if self._pillars and tuple(event.target) not in self._pillars:
                raise ValueError(
                    f"pillar fault targets unknown pillar {event.target}; "
                    f"pillars are at {sorted(self._pillars)}"
                )
        elif event.kind == "bank" and self._on_bank_change is None:
            raise ValueError(
                "bank faults need a cache layer (network-only install "
                f"cannot apply {event.target})"
            )

    # -- application ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        cycle = self.engine.cycle
        kind, target = event.kind, event.target
        if kind == "pillar":
            xy = (target[0], target[1])
            self.state.fail_pillar(xy, cycle)
            bus = self._pillars.get(xy)
            if bus is not None:
                bus.fail(cycle, self.state)
        elif kind == "link":
            self.state.fail_link(
                Coord(target[0], target[1], target[2]), Port(target[3]), cycle
            )
        elif kind == "router_port":
            self.state.jam_port(
                Coord(target[0], target[1], target[2]), Port(target[3]), cycle
            )
        elif kind == "bank":
            self.state.fail_bank((target[0], target[1]), cycle)
            if self._on_bank_change is not None:
                self._on_bank_change()

    def _heal(self, event: FaultEvent) -> None:
        cycle = self.engine.cycle
        kind, target = event.kind, event.target
        if kind == "pillar":
            xy = (target[0], target[1])
            self.state.heal_pillar(xy, cycle)
            bus = self._pillars.get(xy)
            if bus is not None:
                bus.heal(cycle)
        elif kind == "link":
            self.state.heal_link(
                Coord(target[0], target[1], target[2]), Port(target[3]), cycle
            )
        elif kind == "router_port":
            self.state.heal_port(
                Coord(target[0], target[1], target[2]), Port(target[3]), cycle
            )
        elif kind == "bank":
            self.state.heal_bank((target[0], target[1]), cycle)
            if self._on_bank_change is not None:
                self._on_bank_change()


@dataclass
class FaultHarness:
    """Everything installed on a simulation for one fault spec."""

    state: Optional[FaultState]
    injector: Optional[FaultInjector]
    watchdog: Optional[LivenessWatchdog]


def install_network_faults(
    network,
    spec: FaultSpec,
    seed: int,
    *,
    banks: tuple = (),
    on_bank_change: Optional[Callable[[], None]] = None,
    stats=None,
    tracer=None,
) -> FaultHarness:
    """Resolve ``spec`` against ``network`` and install the machinery.

    Zero-fault specs install nothing but the watchdog: no
    :class:`FaultState` is created, so the run — statistics snapshot
    included — is bit-identical to a fault-unaware one (the differential
    tests assert this).

    ``banks``/``on_bank_change`` extend the install to the cache layer
    (the system simulator passes its bank pool and the NUCA capacity
    hook); ``stats``/``tracer`` override where the fault counters and
    events land (default: the network's own registries).
    """
    cfg = network.config
    resolved = spec.resolve(
        seed,
        pillars=tuple(cfg.pillar_locations),
        links=mesh_link_targets(cfg.width, cfg.height, cfg.layers),
        banks=tuple(banks),
    )
    state = None
    injector = None
    if resolved:
        state = FaultState(
            stats=stats if stats is not None else network.stats,
            tracer=tracer if tracer is not None else network.tracer,
        )
        network.attach_fault_state(state)
        injector = FaultInjector(
            network.engine,
            state,
            resolved,
            pillars=network.pillars,
            on_bank_change=on_bank_change,
        )
    watchdog = None
    if spec.watchdog_window:
        watchdog = LivenessWatchdog(network, window=spec.watchdog_window)
    return FaultHarness(state=state, injector=injector, watchdog=watchdog)

"""Fault injection: install a fault spec on either timing back end.

:func:`install_faults` is the one entry point for both timing modes.  It
resolves a :class:`FaultSpec` against the back end's candidate pools,
builds the live :class:`FaultState`, attaches it to the back end (and to
the NUCA cache when one is given), and hands the schedule to a
:class:`FaultInjector`:

* on the cycle-accurate :class:`~repro.noc.network.Network` each fault's
  onset (and, for transients, its heal) becomes an engine event firing
  before any component evaluates that cycle — identical timing in the
  activity-tracked and naive kernels — and a liveness watchdog guards
  the run;
* the analytic :class:`~repro.core.latency_model.LatencyModel` has no
  clock and no per-link state, so it takes only permanent onset-0
  faults of the kinds whose :class:`~repro.faults.spec.FaultKind` is not
  ``mesh``, applied at install.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.spec import FAULTS, FaultEvent, FaultSpec, mesh_link_targets
from repro.faults.state import FaultState
from repro.faults.watchdog import LivenessWatchdog


class FaultInjector:
    """Applies the faults of one resolved schedule.

    Parameters
    ----------
    engine:
        The simulation engine; onsets/heals become its events.  ``None``
        (a back end without a clock) applies every fault at once.
    state:
        The live :class:`FaultState` the tolerance mechanisms consult.
    events:
        Resolved :class:`FaultEvent` tuple (explicit targets only).
    pillars:
        ``(x, y) -> PillarBus`` map for pillar faults (drain-then-die is
        bus-level mechanics, not just a set update).
    on_bank_change:
        Called after a bank fault injects or heals, so the cache layer
        can re-derive capacity.
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
            if engine is None:
                self._fire(event, "inject")
                continue
            engine.schedule(
                max(0, event.onset - engine.cycle),
                lambda e=event: self._fire(e, "inject"),
            )
            heal = event.heal_cycle
            if heal is not None:
                engine.schedule(
                    max(0, heal - engine.cycle),
                    lambda e=event: self._fire(e, "heal"),
                )

    def _fire(self, event: FaultEvent, phase: str) -> None:
        """Inject or heal ``event`` now, plus its kind's side effect."""
        cycle = 0 if self.engine is None else self.engine.cycle
        kind, target = event.kind, event.target
        if phase == "inject":
            self.state.inject(kind, target, cycle)
        else:
            self.state.heal(kind, target, cycle)
        if kind == "pillar":
            bus = self._pillars.get(target)
            if bus is not None:
                if phase == "inject":
                    bus.fail(cycle, self.state)
                else:
                    bus.heal(cycle)
        elif kind == "bank":
            self._on_bank_change()


@dataclass
class FaultHarness:
    """Everything installed on a simulation for one fault spec."""

    state: Optional[FaultState]
    injector: Optional[FaultInjector]
    watchdog: Optional[LivenessWatchdog]


def install_faults(
    backend,
    spec: FaultSpec,
    seed: int,
    *,
    l2=None,
    stats=None,
    tracer=None,
) -> FaultHarness:
    """Resolve ``spec`` against ``backend`` and install the machinery.

    ``backend`` is what prices packets: a :class:`~repro.noc.network.
    Network` (it has an ``engine``) or a :class:`~repro.core.latency_model.
    LatencyModel`.  ``l2`` extends the install to the NUCA cache: its
    banks become the bank-fault pool and its capacity hook runs on every
    bank fault.  ``stats``/``tracer`` say where the fault counters and
    events land (default: the network's own registries).

    Zero-fault specs install nothing but the watchdog: no
    :class:`FaultState` is created, so the run — statistics snapshot
    included — is bit-identical to a fault-unaware one (the differential
    tests assert this).
    """
    engine = getattr(backend, "engine", None)
    if engine is None:
        # Refuse mesh faults before resolution: the analytic model has no
        # link pool, and "cannot draw from 0 candidates" is a worse
        # diagnostic than naming the mode.
        if spec.dead_links or any(
            FAULTS[event.kind].mesh for event in spec.events
        ):
            mesh = "/".join(name for name, kind in FAULTS.items() if kind.mesh)
            raise ValueError(
                f"{mesh} faults require mode='cycle' (the analytic model "
                "carries no per-link state)"
            )
        pillars, links, buses = tuple(backend.topology.pillar_xys), (), None
    else:
        cfg = backend.config
        pillars = tuple(cfg.pillar_locations)
        links = mesh_link_targets(cfg.width, cfg.height, cfg.layers)
        buses = backend.pillars
        stats = backend.stats if stats is None else stats
        tracer = backend.tracer if tracer is None else tracer
    banks = () if l2 is None else tuple(
        (cluster.index, bank)
        for cluster in l2.topology.clusters
        for bank in range(len(cluster.bank_nodes))
    )
    resolved = spec.resolve(seed, pillars=pillars, links=links, banks=banks)
    for event in resolved:
        if engine is None and (event.onset or event.duration is not None):
            raise ValueError(
                "model mode supports only permanent onset-0 faults; "
                "use mode='cycle' for timed fault schedules"
            )
        if event.kind == "pillar" and pillars and event.target not in pillars:
            raise ValueError(
                f"pillar fault targets unknown pillar {event.target}; "
                f"pillars are at {sorted(pillars)}"
            )
        if event.kind == "bank" and l2 is None:
            raise ValueError(
                "bank faults need a cache layer (network-only install "
                f"cannot apply {event.target})"
            )
    state = injector = None
    if resolved:
        state = FaultState(stats=stats, tracer=tracer)
        backend.attach_fault_state(state)
        if l2 is not None:
            l2.attach_fault_state(state)
        injector = FaultInjector(
            engine,
            state,
            resolved,
            pillars=buses,
            on_bank_change=None if l2 is None else l2.apply_bank_faults,
        )
    watchdog = None
    if engine is not None and spec.watchdog_window:
        watchdog = LivenessWatchdog(backend, window=spec.watchdog_window)
    return FaultHarness(state=state, injector=injector, watchdog=watchdog)

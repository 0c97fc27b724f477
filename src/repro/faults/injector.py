"""Fault injection: install a fault spec on either timing back end.

:func:`install_faults` is the one entry point for both timing modes.  It
resolves a :class:`FaultSpec` against the back end's candidate pools
with :func:`resolve_faults`, builds the live :class:`FaultState`,
attaches it to the back end (and to the NUCA cache when one is given),
and hands the schedule to a :class:`FaultInjector`:

* on the cycle-accurate :class:`~repro.noc.network.Network` each fault's
  onset (and, for transients, its heal) becomes an engine event firing
  before any component evaluates that cycle — identical timing in the
  activity-tracked and naive kernels — and a liveness watchdog guards
  the run;
* the analytic :class:`~repro.core.latency_model.LatencyModel` has no
  clock and no per-link state, so it takes only permanent onset-0
  faults of the kinds whose :class:`~repro.faults.spec.FaultKind` is not
  ``mesh``, applied at install.

``SimSpec`` calls :func:`resolve_faults` on its placed chip when it is
built, so a cell whose faults its system cannot take is refused before
any worker runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.spec import FAULTS, FaultEvent, FaultSpec, mesh_link_targets
from repro.faults.state import FaultState
from repro.faults.watchdog import LivenessWatchdog
from repro.noc.routing import Port


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


def cache_banks(topology) -> tuple[tuple[int, int], ...]:
    """The ``(cluster, bank)`` pool of a placed chip's L2 cache."""
    return tuple(
        (cluster.index, bank)
        for cluster in topology.clusters
        for bank in range(len(cluster.bank_nodes))
    )


def resolve_faults(
    spec: FaultSpec,
    seed: int,
    *,
    clocked: bool,
    mesh: tuple[int, int, int],
    pillars: tuple[tuple[int, int], ...],
    banks: Optional[tuple[tuple[int, int], ...]],
) -> tuple[FaultEvent, ...]:
    """The schedule ``spec`` makes on one system, or ``ValueError``.

    ``clocked`` says whether the back end has a clock and per-link state
    (the fabric) or neither (the analytic model).  ``mesh`` is the
    ``(width, height, layers)`` of its mesh, ``pillars`` the locations
    of its pillars and ``banks`` its cache's ``(cluster, bank)`` pool,
    ``None`` with no cache.  Every explicit target must name a part of
    that system: a pillar, a directed mesh link, a router port (a link
    or a pillar router's ``vertical`` port) or a bank.
    """
    width, height, layers = mesh
    if clocked:
        links = mesh_link_targets(width, height, layers)
    else:
        # Refuse mesh faults before resolution: the analytic model has no
        # link pool, and "cannot draw from 0 candidates" is a worse
        # diagnostic than naming the mode.
        if spec.dead_links or any(
            FAULTS[event.kind].mesh for event in spec.events
        ):
            mesh_kinds = "/".join(
                name for name, kind in FAULTS.items() if kind.mesh
            )
            raise ValueError(
                f"{mesh_kinds} faults require mode='cycle' (the analytic "
                "model carries no per-link state)"
            )
        links = ()
    bank_pool = banks or ()
    resolved = spec.resolve(seed, pillars=pillars, links=links, banks=bank_pool)
    grid = f"the {width}x{height}x{layers} mesh"
    pools = {
        "pillar": (set(pillars), f"pillars are at {sorted(pillars)}"),
        "link": (set(links), f"links join neighbours on {grid}"),
        "router_port": (
            set(links).union(
                (x, y, z, Port.VERTICAL.value)
                for x, y in pillars
                for z in range(layers)
            ),
            f"ports are the links of {grid} and each pillar router's "
            "'vertical' port",
        ),
        "bank": (
            set(bank_pool),
            "banks are (cluster, bank) pairs from (0, 0) to "
            f"{max(bank_pool, default=None)}",
        ),
    }
    for event in resolved:
        if not clocked and (event.onset or event.duration is not None):
            raise ValueError(
                "model mode supports only permanent onset-0 faults; "
                "use mode='cycle' for timed fault schedules"
            )
        if event.kind == "bank" and banks is None:
            raise ValueError(
                "bank faults need a cache layer (network-only install "
                f"cannot apply {event.target})"
            )
        pool, where = pools[event.kind]
        if event.target not in pool:
            noun = "port" if event.kind == "router_port" else event.kind
            raise ValueError(
                f"{event.kind} fault targets unknown {noun} "
                f"{event.target}; {where}"
            )
    return resolved


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
        chip = backend.topology.config
        mesh = (*chip.mesh_dims, chip.num_layers)
        pillars, buses = tuple(backend.topology.pillar_xys), None
    else:
        cfg = backend.config
        mesh = (cfg.width, cfg.height, cfg.layers)
        pillars, buses = tuple(cfg.pillar_locations), backend.pillars
        stats = backend.stats if stats is None else stats
        tracer = backend.tracer if tracer is None else tracer
    resolved = resolve_faults(
        spec,
        seed,
        clocked=engine is not None,
        mesh=mesh,
        pillars=pillars,
        banks=None if l2 is None else cache_banks(l2.topology),
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

"""Declarative fault-injection specifications.

A :class:`FaultSpec` rides on :class:`~repro.experiments.spec.SimSpec`
exactly like ``TraceSpec``: it is frozen, serializes with defaults
omitted so spec hashes stay stable, and derives every random choice from
the spec seed via :func:`repro.sim.rng.derive_seed` — the same spec
always injects the same faults, in serial or parallel sweeps alike.

Fault taxonomy (``FaultEvent.kind``), one :data:`FAULTS` row per kind:

``"pillar"``
    A dTDMA pillar/TSV failure at ``target=(x, y)``.  The bus finishes
    any in-progress packet transfers (wormhole integrity), drops queued
    and subsequently arriving traffic with loss accounting, and the
    arbiter reclaims every slot (degraded vertical bandwidth).  New
    inter-layer traffic reroutes through surviving pillars.
``"link"``
    A directed mesh link failure at ``target=(x, y, z, port)``.  The
    link fails *for new traffic*: head flits not yet routed avoid it
    (minimal misroute onto the other productive dimension) while
    in-flight wormholes drain; destinations with no surviving
    productive port are dropped with unreachable accounting.
``"router_port"``
    A jammed router output port at ``target=(x, y, z, port)``: the port
    stops granting entirely, with no reroute.  Backpressure propagates —
    this is the deterministic deadlock seeder the liveness watchdog is
    tested against.
``"bank"``
    A NUCA bank failure at ``target=(cluster, bank)``.  Accesses remap
    to the cluster's surviving banks and the cluster's effective
    associativity degrades proportionally (capacity-degraded placement).

``duration=None`` means permanent; a transient fault heals at
``onset + duration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.codec import OMIT_DEFAULT, Record
from repro.sim.rng import make_rng
from repro.noc.routing import PORT_DELTA, Coord, Port


@dataclass(frozen=True)
class FaultKind:
    """What one fault kind is, for every layer that handles faults.

    ``arity`` is the target tuple's length.  ``port`` marks a target
    ``(x, y, z, port)`` naming a router output port; its live-set key is
    ``(Coord, Port)``, else the target itself.  ``mesh`` marks a kind
    that needs the per-link state only the cycle-accurate fabric has.
    ``live`` names the :class:`~repro.faults.state.FaultState` set that
    holds the kind's live targets.
    """

    name: str
    arity: int
    port: bool
    mesh: bool
    live: str

    def key(self, target: tuple) -> tuple:
        """``target`` as a member of the kind's live set."""
        if self.port:
            return (Coord(*target[:3]), Port(target[3]))
        return tuple(target)

    def target(self, key: tuple) -> tuple:
        """The event target a live-set member stands for."""
        if self.port:
            coord, port = key
            return (*coord, port.value)
        return key


FAULTS = {
    kind.name: kind
    for kind in (
        FaultKind("pillar", 2, port=False, mesh=False, live="dead_pillars"),
        FaultKind("link", 4, port=True, mesh=True, live="dead_links"),
        FaultKind("router_port", 4, port=True, mesh=True,
                  live="jammed_ports"),
        FaultKind("bank", 2, port=False, mesh=False, live="dead_banks"),
    )
}

_PORT_NAMES = tuple(port.value for port in Port if port is not Port.LOCAL)

DEFAULT_WATCHDOG_WINDOW = 20_000


@dataclass(frozen=True)
class FaultEvent(Record):
    """One concrete fault: what breaks, where, when, and for how long."""

    kind: str
    target: tuple
    onset: int = field(default=0, metadata=OMIT_DEFAULT)
    duration: Optional[int] = None  # None = permanent

    def __post_init__(self) -> None:
        if self.kind not in FAULTS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {list(FAULTS)}"
            )
        object.__setattr__(self, "target", tuple(self.target))
        kind = FAULTS[self.kind]
        if len(self.target) != kind.arity:
            raise ValueError(
                f"{self.kind} fault target must have {kind.arity} elements, "
                f"got {self.target!r}"
            )
        if kind.port:
            port = self.target[3]
            if port not in _PORT_NAMES:
                raise ValueError(
                    f"bad port {port!r} in {self.kind} target; "
                    f"choose from {list(_PORT_NAMES)}"
                )
        if self.onset < 0:
            raise ValueError("fault onset must be non-negative")
        if self.duration is not None and self.duration < 1:
            raise ValueError("transient fault duration must be positive")

    @property
    def heal_cycle(self) -> Optional[int]:
        if self.duration is None:
            return None
        return self.onset + self.duration


@dataclass(frozen=True)
class FaultSpec(Record):
    """Declarative fault-injection request, embeddable in a ``SimSpec``.

    ``events`` are explicit faults.  ``dead_pillars`` / ``dead_links`` /
    ``dead_banks`` additionally draw that many random targets at
    :meth:`resolve` time, deterministically from the spec seed, all with
    onset ``onset`` — the degradation-sweep axes ("IPC vs. number of
    dead pillars") without enumerating coordinates by hand.

    ``watchdog_window`` configures the liveness watchdog: a
    :class:`~repro.faults.watchdog.DeadlockError` is raised if packets
    are in flight but nothing moves for that many cycles.  ``0``
    disables the watchdog.

    Every field is serialized only away from its default.
    """

    events: tuple[FaultEvent, ...] = field(
        default=(), metadata=OMIT_DEFAULT
    )
    dead_pillars: int = field(default=0, metadata=OMIT_DEFAULT)
    dead_links: int = field(default=0, metadata=OMIT_DEFAULT)
    dead_banks: int = field(default=0, metadata=OMIT_DEFAULT)
    onset: int = field(default=0, metadata=OMIT_DEFAULT)
    watchdog_window: int = field(
        default=DEFAULT_WATCHDOG_WINDOW, metadata=OMIT_DEFAULT
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for name in ("dead_pillars", "dead_links", "dead_banks", "onset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.watchdog_window < 0:
            raise ValueError("watchdog_window must be non-negative")

    @property
    def is_zero(self) -> bool:
        """No faults requested (the watchdog alone does not count)."""
        return (
            not self.events
            and self.dead_pillars == 0
            and self.dead_links == 0
            and self.dead_banks == 0
        )

    # -- deterministic schedule resolution ------------------------------

    def resolve(
        self,
        seed: int,
        *,
        pillars: tuple[tuple[int, int], ...] = (),
        links: tuple[tuple, ...] = (),
        banks: tuple[tuple[int, int], ...] = (),
    ) -> tuple[FaultEvent, ...]:
        """Concretize the spec into a sorted, fully explicit schedule.

        Random targets are drawn without replacement from the sorted
        candidate pools via ``make_rng(derive_seed(seed, "faults"))``, so
        the schedule is a pure function of ``(spec, seed)`` — same spec
        hash ⇒ identical faults, regardless of process or order.
        """
        events = list(self.events)
        explicit = {(event.kind, event.target) for event in events}
        rng = make_rng(seed, "faults")

        def draw(kind: str, count: int, pool) -> None:
            if count == 0:
                return
            candidates = [
                tuple(target) for target in sorted(pool)
                if (kind, tuple(target)) not in explicit
            ]
            if count > len(candidates):
                raise ValueError(
                    f"cannot draw {count} random {kind} faults from "
                    f"{len(candidates)} candidates"
                )
            picks = rng.choice(len(candidates), size=count, replace=False)
            for index in sorted(int(i) for i in picks):
                events.append(
                    FaultEvent(kind, candidates[index], onset=self.onset)
                )

        draw("pillar", self.dead_pillars, pillars)
        draw("link", self.dead_links, links)
        draw("bank", self.dead_banks, banks)
        events.sort(key=lambda event: (event.onset, event.kind, event.target))
        return tuple(events)


def mesh_link_targets(
    width: int, height: int, layers: int
) -> tuple[tuple[int, int, int, str], ...]:
    """All directed mesh-link fault targets of a ``width x height x layers``
    topology, in deterministic order (the random-draw candidate pool)."""
    targets = []
    for z in range(layers):
        for y in range(height):
            for x in range(width):
                for port, (dx, dy) in PORT_DELTA.items():
                    if 0 <= x + dx < width and 0 <= y + dy < height:
                        targets.append((x, y, z, port.value))
    return tuple(sorted(targets))


def parse_fault_arg(text: str) -> FaultEvent:
    """Parse a CLI fault argument: ``kind:target[@onset][+duration]``.

    Examples: ``pillar:2,2``, ``link:2,1,0,east@1000``,
    ``router_port:1,1,0,north@500+2000``, ``bank:4,7``.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"bad fault {text!r}: expected kind:target[@onset][+duration]"
        )
    kind = head.strip()
    duration: Optional[int] = None
    onset = 0
    if "+" in rest:
        rest, __, dur_text = rest.rpartition("+")
        duration = int(dur_text)
    if "@" in rest:
        rest, __, onset_text = rest.rpartition("@")
        onset = int(onset_text)
    fields = [part.strip() for part in rest.split(",")]
    target = tuple(
        part if not part.lstrip("-").isdigit() else int(part)
        for part in fields
    )
    return FaultEvent(kind=kind, target=target, onset=onset, duration=duration)

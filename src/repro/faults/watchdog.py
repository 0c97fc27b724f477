"""Liveness watchdog: turn silent deadlocks into structured errors.

Fault-aware routing is only minimally adaptive and a jammed router port
is an intentional stall, so a faulted fabric can genuinely deadlock.
Without a watchdog that shows up as ``run_until`` spinning to its cycle
budget and raising a generic stall — uninformative and slow.  The
:class:`LivenessWatchdog` instead checks, every ``window`` cycles, that
*something* moved while packets were in flight (deliveries, losses, mesh
flit forwards, or bus transfers), and raises :class:`DeadlockError`
naming the stalled routers and pillars the moment a whole window passes
with zero progress.

The watchdog is a self-rescheduling engine *event*, not a clocked
component: it never perturbs the active set, per-cycle statistics, or
cycle counts, so a watched zero-fault run stays bit-identical to an
unwatched one (its events merely chunk the idle fast-forward windows).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import SimulationStallError
from repro.faults.spec import DEFAULT_WATCHDOG_WINDOW

if TYPE_CHECKING:
    from repro.noc.network import Network


class DeadlockError(SimulationStallError):
    """No forward progress for a full watchdog window.

    Carries the stalled component names (routers with buffered flits,
    pillars with occupied transceivers) so sweep failures are actionable
    without re-running under a tracer.
    """

    failure_kind = "deadlock"

    def __init__(
        self,
        message: str,
        *,
        stalled_components: tuple = (),
        in_flight: int = 0,
        window: int = 0,
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.stalled_components = tuple(stalled_components)
        self.in_flight = in_flight
        self.window = window


class LivenessWatchdog:
    """Detects no-progress windows on a :class:`~repro.noc.network.Network`."""

    def __init__(
        self,
        network: "Network",
        window: int = DEFAULT_WATCHDOG_WINDOW,
        start: bool = True,
    ):
        if window < 1:
            raise ValueError("watchdog window must be positive")
        self.network = network
        self.window = window
        self.checks = 0
        self._last_progress = None
        self._event = None
        if start:
            self.start()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._event is None:
            self._schedule()

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule(self) -> None:
        self._event = self.network.engine.schedule(self.window, self._check)

    # -- progress vector --------------------------------------------------

    def _progress(self) -> tuple:
        network = self.network
        # Fast-forwarded cycles count as progress: the engine only skips
        # a window after every registered component reported idle, and a
        # component holding undelivered traffic (buffered flits, occupied
        # transceivers, pending injections) never reports idle — so a
        # genuinely deadlocked fabric pins this counter while a
        # quiescent-but-watched one keeps it moving.  Without this term,
        # in-flight accounting held above the fabric (a requester waiting
        # out an idle gap) would read a fast-forwarded window as a stall.
        skipped = network.engine.fast_forwarded_cycles
        forwarded = sum(
            router.forwarded_flits for router in network.routers.values()
        )
        transfers = sum(
            pillar.transfers for pillar in network.pillars.values()
        )
        return (network.completed_packets, forwarded, transfers, skipped)

    def stalled_components(self) -> list[str]:
        """Names of components currently holding undelivered traffic."""
        network = self.network
        stalled = []
        for coord, router in sorted(network.routers.items()):
            if router.buffered_flits() > 0:
                stalled.append(f"router({coord.x},{coord.y},{coord.z})")
        for xy, pillar in sorted(network.pillars.items()):
            occupancy = sum(
                transceiver.occupancy
                for transceiver in pillar.transceivers.values()
            )
            if occupancy > 0:
                stalled.append(f"pillar({xy[0]},{xy[1]})")
        for coord, nic in sorted(network.nics.items()):
            if nic.pending_injections > 0:
                stalled.append(f"nic({coord.x},{coord.y},{coord.z})")
        return stalled

    # -- the check --------------------------------------------------------

    def _check(self) -> None:
        self.checks += 1
        network = self.network
        engine = network.engine
        if network.in_flight > 0:
            progress = self._progress()
            if progress == self._last_progress:
                stalled = self.stalled_components()
                shown = ", ".join(stalled[:8])
                if len(stalled) > 8:
                    shown += f", ... ({len(stalled)} total)"
                raise DeadlockError(
                    f"{engine.name}: deadlock — no progress for "
                    f"{self.window} cycles with {network.in_flight} "
                    f"packet(s) in flight; stalled: {shown}",
                    stalled_components=stalled,
                    in_flight=network.in_flight,
                    window=self.window,
                    engine_name=engine.name,
                    cycle=engine.cycle,
                )
            self._last_progress = progress
        else:
            self._last_progress = None
        self._schedule()

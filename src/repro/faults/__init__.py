"""Deterministic fault injection and graceful-degradation machinery.

See :mod:`repro.faults.spec` for the fault table (:data:`FAULTS`, one
row per kind) and the determinism contract, :mod:`repro.faults.state`
for the live fault map the tolerance mechanisms consult,
:mod:`repro.faults.injector` for :func:`install_faults`, the one install
path of both timing modes, and :mod:`repro.faults.watchdog` for
deadlock detection.
"""

from repro.faults.spec import (
    DEFAULT_WATCHDOG_WINDOW,
    FAULTS,
    FaultEvent,
    FaultKind,
    FaultSpec,
    mesh_link_targets,
    parse_fault_arg,
)
from repro.faults.state import FaultState
from repro.faults.injector import (
    FaultHarness,
    FaultInjector,
    install_faults,
)
from repro.faults.watchdog import DeadlockError, LivenessWatchdog

__all__ = [
    "DEFAULT_WATCHDOG_WINDOW",
    "FAULTS",
    "DeadlockError",
    "FaultEvent",
    "FaultHarness",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "FaultState",
    "LivenessWatchdog",
    "install_faults",
    "mesh_link_targets",
    "parse_fault_arg",
]

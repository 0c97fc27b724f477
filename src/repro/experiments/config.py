"""Experiment scale settings.

The paper samples 2 billion cycles after a 500M-cycle warm-up; our
synthetic traces are scaled down so a full figure sweep completes in
minutes of wall clock.  Two scales are provided:

* ``quick`` (the default) — used by the pytest benchmarks and for the
  EXPERIMENTS.md numbers: enough references for stable scheme orderings
  (a few percent run-to-run noise).
* ``full`` — 2x the references and proportionally longer warm-up.

Select with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.codec import REQUIRED, Record


@dataclass(frozen=True)
class ExperimentScale(Record):
    """Trace sizing for one experiment run."""

    name: str
    refs_per_cpu: int
    # Of total events, across all CPUs.
    warmup_fraction: float = field(default=0.6, metadata=REQUIRED)
    seed: int = field(default=2006, metadata=REQUIRED)

    def __post_init__(self) -> None:
        # Every CPU needs a trace; checked here so that a bad size fails
        # before a cell builds its system, and a submitted spec gets a 400.
        refs = self.refs_per_cpu
        if isinstance(refs, bool) or not isinstance(refs, int) or refs < 1:
            raise ValueError(
                f"refs_per_cpu must be an int of at least 1, got {refs!r}"
            )
        # At 1 or above the whole trace is warm-up and nothing is
        # measured; below 0 the warm-up count goes negative.
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                "warmup_fraction must be in [0, 1), got "
                f"{self.warmup_fraction!r}"
            )

    def warmup_events_for(self, num_cpus: int) -> int:
        """Warm-up event count for a topology with ``num_cpus`` CPUs.

        Warm-up counts total events across all CPUs, so it must scale
        with the actual CPU count of the simulated system.
        """
        return int(num_cpus * self.refs_per_cpu * self.warmup_fraction)


QUICK = ExperimentScale(name="quick", refs_per_cpu=30_000)
FULL = ExperimentScale(name="full", refs_per_cpu=60_000)

_SCALES = {"quick": QUICK, "full": FULL}


def current_scale() -> ExperimentScale:
    """Scale selected by ``REPRO_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_SCALE", "quick").lower()
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; choose from {sorted(_SCALES)}"
        ) from None

"""Experiment scale settings.

The paper samples 2 billion cycles after a 500M-cycle warm-up; our
synthetic traces are scaled down so a full figure sweep completes in
minutes of wall clock.  Two scales are provided:

* ``quick`` — used by the pytest benchmarks: enough references for stable
  scheme orderings (a few percent run-to-run noise).
* ``full``  — used for the EXPERIMENTS.md numbers: ~2x the references and
  proportionally longer warm-up.

Select with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """Trace sizing for one experiment run."""

    name: str
    refs_per_cpu: int
    warmup_fraction: float = 0.6   # of total events, across all CPUs
    seed: int = 2006

    def warmup_events_for(self, num_cpus: int) -> int:
        """Warm-up event count for a topology with ``num_cpus`` CPUs.

        Warm-up counts total events across all CPUs, so it must scale
        with the actual CPU count of the simulated system.
        """
        return int(num_cpus * self.refs_per_cpu * self.warmup_fraction)

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "refs_per_cpu": self.refs_per_cpu,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentScale":
        return cls(
            name=data["name"],
            refs_per_cpu=data["refs_per_cpu"],
            warmup_fraction=data["warmup_fraction"],
            seed=data["seed"],
        )


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

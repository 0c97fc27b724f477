"""Reproduction harness: one module per table/figure in the paper.

Run them from the command line::

    python -m repro experiments --jobs 4   # all ten tables/figures
    python -m repro experiments fig13      # avg L2 hit latency
    python -m repro experiments fig14      # migration counts
    python -m repro experiments fig15      # IPC
    python -m repro experiments fig16      # cache-size scaling
    python -m repro experiments fig17      # pillar count sweep
    python -m repro experiments fig18      # layer count sweep
    python -m repro experiments table1     # component area/power
    python -m repro experiments table2     # via-pitch pillar area
    python -m repro experiments table3     # thermal profiles
    python -m repro experiments table5     # workload characterization

Scale knobs live in :mod:`repro.experiments.config`; the ``REPRO_SCALE``
environment variable selects ``quick`` (default) or ``full``.

Each module exposes the uniform experiment interface — ``cells()``
returning the grid of :class:`~repro.experiments.spec.SimSpec` cells,
``tabulate(results)`` for a simulated experiment's numbers, and
``render(results)`` producing the paper-style text.  The registry
(:mod:`repro.experiments.registry`: ``table`` and ``run_experiment``)
runs every grid through one code path, the :mod:`repro.api` sweep, with
process parallelism and an on-disk result cache.  The analytic tables
1-3 compute with ``run()`` and simulate nothing.
"""

from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.orchestrator import (
    ResultCache,
    SweepSummary,
    run_sweep,
)
from repro.experiments.registry import (
    EXPERIMENT_NAMES,
    SCHEME_ORDER,
    run_experiment,
)
from repro.experiments.spec import SimSpec, run_spec

__all__ = [
    "ExperimentScale",
    "current_scale",
    "run_spec",
    "run_sweep",
    "run_experiment",
    "ResultCache",
    "SweepSummary",
    "SimSpec",
    "SCHEME_ORDER",
    "EXPERIMENT_NAMES",
]

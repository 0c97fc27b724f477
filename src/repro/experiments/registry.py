"""One driver for all ten table/figure reproductions.

Every experiment module exposes the same interface:

* ``cells() -> list[SimSpec]`` — the simulation grid the experiment
  needs (empty for the analytic tables, which need no simulation),
* ``tabulate(results)`` — a simulated experiment's numbers, keyed as
  its figure is, and
* ``render(results: Mapping[SimSpec, RunStats]) -> str`` — the
  paper-style text output given those cells' results.

The grid reaches the simulator by one path: :func:`table` and
:func:`run_experiment` both hand the cells to the :mod:`repro.api`
facade (parallelism, result cache, failure records).  The CLI's
``experiments`` and ``sweep`` commands and the paper-shape checks under
``benchmarks/`` all land there, so cells shared between experiments
(Figs 13/14/15 and Table 5 overlap heavily) are simulated exactly once
per cache.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping, Optional

from repro import api
from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.orchestrator import SweepSummary, results_by_spec
from repro.experiments.spec import SimSpec

#: Paper presentation order; also the CLI's ``experiments`` choices.
EXPERIMENT_NAMES: tuple[str, ...] = (
    "table1", "table2", "table3", "table5",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
)

#: The paper's scheme presentation order (Fig 13/15 legends).
SCHEME_ORDER: tuple[Scheme, ...] = (
    Scheme.CMP_DNUCA,
    Scheme.CMP_DNUCA_2D,
    Scheme.CMP_SNUCA_3D,
    Scheme.CMP_DNUCA_3D,
)


def get_experiment(name: str):
    """The experiment module for ``name`` (validated against the registry)."""
    if name not in EXPERIMENT_NAMES:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}"
        )
    return importlib.import_module(f"repro.experiments.{name}")


def _results(
    name: str, specs: list[SimSpec], **sweep_kwargs
) -> tuple[Mapping[SimSpec, RunStats], SweepSummary]:
    """Sweep ``specs`` through :func:`repro.api.sweep`; raise on failure."""
    summary = api.sweep(specs, **sweep_kwargs)
    if summary.failures:
        details = "; ".join(
            f"{failure.spec.label()}: {failure.kind}"
            for failure in summary.failures
        )
        raise RuntimeError(f"{name}: {summary.failed} cell(s) failed: {details}")
    return results_by_spec(summary, specs), summary


def table(name: str, **cell_kwargs) -> dict:
    """Simulate a figure's grid and return its ``tabulate`` numbers.

    ``cell_kwargs`` go to the module's ``cells()`` (a benchmark subset, a
    scale); the sweep runs with :func:`repro.api.sweep`'s defaults.
    Raises ``RuntimeError`` if any cell failed, as
    :func:`run_experiment` does.
    """
    module = get_experiment(name)
    results, __ = _results(name, module.cells(**cell_kwargs))
    return module.tabulate(results)


def run_experiment(
    name: str,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[str, SweepSummary]:
    """Execute one experiment end to end; returns (rendered text, summary).

    Raises ``RuntimeError`` if any cell failed — the failure records are
    in the exception message (and in the returned summary of a direct
    :func:`~repro.experiments.orchestrator.run_sweep` call).
    """
    module = get_experiment(name)
    results, summary = _results(
        name,
        module.cells(),
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
        progress=progress,
    )
    return module.render(results), summary

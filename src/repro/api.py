"""``repro.api``: the one submission facade over every way to simulate.

Several entry points grew organically as the repo scaled — ``simulate``
(system + stats), ``run_spec`` (stats only), and ``run_sweep``
(parallel cached grids).  This module consolidates them behind three
verbs that every surface — the CLI, the figure/table registry, and the
``repro serve`` HTTP server — calls through:

* :func:`run` — one cell, synchronously, optionally through the
  content-addressed result cache; returns a typed :class:`CellResult`.
* :func:`sweep` — a grid of cells through the orchestrator (process
  fan-out, cache, structured failures), or — with ``server=`` — through
  a running ``repro serve`` head over HTTP; returns a
  :class:`~repro.experiments.orchestrator.SweepSummary` either way.
* :func:`submit` — asynchronous submission of a grid to a
  :class:`~repro.serve.scheduler.JobStore` (the multi-tenant sweep
  service core); returns a :class:`~repro.serve.scheduler.Job` handle
  with in-flight dedup against every other tenant's cells.

:func:`simulate` is re-exported for the few callers that need the live
simulated system (energy reports, trace export); everything else should
stay at this facade.  (The historical ``run_scheme`` kwargs shim was
retired in PR 9 — build a :class:`SimSpec` and call :func:`run`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.codec import Record
from repro.core.system import RunStats
from repro.experiments.orchestrator import (
    ResultCache,
    SweepSummary,
    run_sweep,
)
from repro.experiments.spec import SimSpec, run_spec, simulate

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.scheduler import Job, JobStore

__all__ = [
    "CellResult",
    "run",
    "sweep",
    "submit",
    "simulate",
    "SimSpec",
    "SweepSummary",
]


@dataclass(frozen=True)
class CellResult(Record):
    """Typed result of one :func:`run` call."""

    spec: SimSpec
    stats: RunStats
    #: True when the result came from the on-disk cache (no simulation).
    cached: bool


def run(
    spec: Optional[SimSpec] = None,
    *,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
    **spec_kwargs,
) -> CellResult:
    """Run one simulation cell and return its typed result.

    Pass either a prebuilt :class:`SimSpec`, or ``scheme=``/``benchmark=``
    (plus any :meth:`SimSpec.make` overrides) to build one here.  With
    ``use_cache`` the cell goes through the same content-addressed store
    the orchestrator uses: a hit skips the simulation (``cached=True``),
    a miss simulates and persists.
    """
    if spec is None:
        spec = SimSpec.make(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError(
            "pass either a prebuilt SimSpec or SimSpec.make() keywords, "
            f"not both (got spec and {sorted(spec_kwargs)})"
        )
    cache = ResultCache(cache_dir) if use_cache else None
    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            return CellResult(spec, hit, cached=True)
    stats = run_spec(spec)
    if cache is not None:
        cache.put(spec, stats)
    return CellResult(spec, stats, cached=False)


def sweep(
    specs: Sequence[SimSpec],
    *,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    runner: Optional[Callable[[SimSpec], RunStats]] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[str] = None,
    server: Optional[str] = None,
    tenant: str = "default",
    outage_grace_s: float = 0.0,
) -> SweepSummary:
    """Run a grid of cells through the sweep orchestrator.

    Thin, stable facade over
    :func:`repro.experiments.orchestrator.run_sweep` — same semantics
    (process fan-out, result cache, per-cell timeout/retry, structured
    :class:`~repro.experiments.orchestrator.CellFailure` records).

    With ``server="http://host:port"`` the grid is instead submitted to
    a running ``repro serve`` head under ``tenant`` and the service's
    results are folded back into the same
    :class:`~repro.experiments.orchestrator.SweepSummary` shape; the
    orchestrator knobs (``jobs``, cache, timeout, retries) are then
    server-side concerns and ignored here.  Service failures raise the
    typed :class:`~repro.serve.client.ServeError` hierarchy; a positive
    ``outage_grace_s`` keeps the client retrying through a head outage
    (e.g. a restart) for that long instead of failing fast.
    """
    if server is not None:
        from repro.serve.client import ServeClient

        client = ServeClient.from_url(
            server, tenant=tenant, outage_grace_s=outage_grace_s
        )
        return client.sweep(specs, progress=progress)
    return run_sweep(
        specs,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
        runner=runner,
        progress=progress,
        trace_dir=trace_dir,
    )


async def submit(
    specs: Sequence[SimSpec],
    *,
    tenant: str = "default",
    store: Optional["JobStore"] = None,
) -> "Job":
    """Submit a grid asynchronously; returns the :class:`Job` handle.

    The job resolves cache hits immediately, dedupes against cells
    already in flight for any tenant, and fair-queues the rest onto the
    store's worker pool.  Raises
    :class:`~repro.serve.scheduler.QueueFullError` when the store's
    pending-cell limit is reached (the HTTP layer maps this to
    429 + Retry-After).  Without an explicit ``store`` a process-wide
    default store (bound to the running event loop) is created on first
    use.
    """
    if store is None:
        store = await default_store()
    return await store.submit(specs, tenant=tenant)


_DEFAULT_STORE: Optional["JobStore"] = None


async def default_store() -> "JobStore":
    """The lazily created process-wide job store used by bare submit()."""
    global _DEFAULT_STORE
    from repro.serve.scheduler import JobStore

    if _DEFAULT_STORE is None or not _DEFAULT_STORE.is_running:
        _DEFAULT_STORE = JobStore()
        await _DEFAULT_STORE.start()
    return _DEFAULT_STORE

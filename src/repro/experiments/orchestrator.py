"""Parallel, cache-backed sweep runner for experiment grids.

The paper's evaluation is embarrassingly parallel: every figure/table is
a grid of independent :class:`~repro.experiments.spec.SimSpec` cells.
:func:`run_sweep` executes such a grid with

* **process parallelism** — cells fan out across ``jobs`` worker
  processes; because each cell's RNG seed is a pure function of its spec
  (:meth:`SimSpec.cell_seed`), parallel results are bit-identical to a
  serial run regardless of scheduling,
* **an on-disk result cache** — artifacts live under ``.repro_cache/``
  keyed by the spec's content hash; a hit skips the simulation entirely,
  so overlapping grids (Figs 13/14/15 and Table 5 share most cells) pay
  for each cell once,
* **robustness plumbing** — a per-cell wall-clock timeout, bounded retry
  on worker crash, and a structured :class:`CellFailure` record instead
  of aborting the whole sweep.

The sweep returns a :class:`SweepSummary` whose counters (``simulated``,
``cached``, ``failed``) make cache behaviour auditable: a warm-cache
rerun reports ``simulated == 0``.

:func:`run_in_processes` is the one place cells leave this process —
one fresh worker process per cell, per-cell timeout, bounded
crash/timeout retry.  ``run_sweep(jobs > 1)`` fans a grid out through
it, and the ``repro serve`` head's pool and remote workers run one
cell at a time through it (:func:`repro.serve.scheduler.cell_outcome`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Mapping, Optional, Sequence

from repro.core.system import RunStats
from repro.experiments.spec import SimSpec, run_spec, simulate
from repro.sim.trace import write_trace

#: Bump when the artifact layout changes; mismatched artifacts are misses.
CACHE_VERSION = 1

#: Default cache root (override with ``REPRO_CACHE_DIR`` or ``cache_dir=``).
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class ResultCache:
    """Content-addressed store of finished cell results.

    One JSON artifact per spec hash, sharded by the first two hex digits
    (``.repro_cache/ab/ab12...json``).  Artifacts embed the full spec so
    a hit can be validated against the requesting spec; any mismatch,
    parse error, or version skew is treated as a miss and the artifact is
    rewritten after re-simulation (self-healing on corruption).
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()

    def _path(self, spec_hash: str) -> str:
        return os.path.join(self.root, spec_hash[:2], f"{spec_hash}.json")

    def get(self, spec: SimSpec) -> Optional[RunStats]:
        """The cached result for ``spec``, or None on any kind of miss."""
        path = self._path(spec.spec_hash())
        try:
            with open(path, encoding="utf-8") as handle:
                artifact = json.load(handle)
            if artifact.get("cache_version") != CACHE_VERSION:
                return None
            if artifact.get("spec") != spec.to_dict():
                return None
            return RunStats.from_dict(artifact["stats"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def read_artifact(self, spec_hash: str) -> Optional[dict]:
        """The raw artifact dict for a spec hash, or None if absent/torn.

        Used by the sweep service's artifact endpoint, which addresses
        results by hash alone (no spec to validate against); version skew
        and parse errors are misses, exactly like :meth:`get`.
        """
        try:
            with open(self._path(spec_hash), encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError):
            return None
        if artifact.get("cache_version") != CACHE_VERSION:
            return None
        return artifact

    def put(self, spec: SimSpec, stats: RunStats) -> None:
        """Atomically persist a result (tmp file + rename).

        ``mkstemp`` gives every writer a private temp file and
        ``os.replace`` swaps it in atomically, so concurrent workers —
        including workers of *different* server jobs racing on the same
        ``spec_hash`` — can never leave a torn artifact: readers see
        either a previous complete artifact or the new one.
        """
        path = self._path(spec.spec_hash())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        artifact = {
            "cache_version": CACHE_VERSION,
            "spec": spec.to_dict(),
            "stats": stats.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that could not produce a result."""

    spec: SimSpec
    # "error" | "timeout" | "crash", plus the structured simulation
    # failure kinds: "stall" (run_until budget exhausted) and
    # "deadlock" (the liveness watchdog detected no forward progress).
    kind: str
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class SweepSummary:
    """Results and accounting for one sweep invocation."""

    results: dict[SimSpec, RunStats] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    simulated: int = 0     # cells that actually ran a simulation
    cached: int = 0        # cells satisfied from the on-disk cache
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def total(self) -> int:
        return len(self.results) + self.failed

    def describe(self) -> str:
        return (
            f"{self.total} cells: {self.simulated} simulated, "
            f"{self.cached} cached, {self.failed} failed "
            f"({self.elapsed_s:.1f}s)"
        )

    def to_dict(self) -> dict:
        return {
            "cells": [
                {"spec": spec.to_dict(), "stats": stats.to_dict()}
                for spec, stats in self.results.items()
            ],
            "failures": [failure.to_dict() for failure in self.failures],
            "simulated": self.simulated,
            "cached": self.cached,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
        }


def trace_path(spec: SimSpec, trace_dir: str) -> str:
    """Where a traced cell's export lands: ``trace_dir/<spec_hash><suffix>``."""
    assert spec.trace is not None
    return os.path.join(
        trace_dir, f"{spec.spec_hash()}{spec.trace.filename_suffix()}"
    )


def _run_cell(spec: SimSpec, trace_dir: Optional[str]) -> RunStats:
    """Simulate one cell; export its trace when the spec opts in."""
    if spec.trace is None or trace_dir is None:
        return run_spec(spec)
    system, stats = simulate(spec)
    os.makedirs(trace_dir, exist_ok=True)
    write_trace(
        system.tracer, trace_path(spec, trace_dir), spec.trace.format
    )
    return stats


def _failure_kind(exc: BaseException) -> str:
    """Structured failure classification for a cell exception.

    Simulation errors that carry a ``failure_kind`` attribute
    (:class:`~repro.sim.engine.SimulationStallError` and its
    :class:`~repro.faults.watchdog.DeadlockError` subclass) surface it;
    everything else is a generic ``"error"``.
    """
    kind = getattr(exc, "failure_kind", "error")
    return kind if isinstance(kind, str) else "error"


def _cell_entry(spec_dict: dict, conn, trace_dir: Optional[str] = None) -> None:
    """Worker-process entry: simulate one cell, ship the result back."""
    try:
        spec = SimSpec.from_dict(spec_dict)
        stats = _run_cell(spec, trace_dir)
        conn.send(("ok", stats.to_dict()))
    except BaseException as exc:  # report, don't die silently
        conn.send(("error", _failure_kind(exc),
                   f"{type(exc).__name__}: {exc}",
                   traceback.format_exc(limit=8)))
    finally:
        conn.close()


def _silent(message: str) -> None:
    pass


def run_sweep(
    specs: Sequence[SimSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    runner: Optional[Callable[[SimSpec], RunStats]] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[str] = None,
) -> SweepSummary:
    """Run every cell of a grid, in parallel, through the result cache.

    ``jobs <= 1`` runs cells inline in this process (the determinism
    reference; ``timeout_s`` does not apply).  ``jobs > 1`` runs every
    cell that misses the cache through :func:`run_in_processes`, however
    few there are, with per-cell timeout and up to ``retries``
    re-executions after a crash or timeout.  Duplicate specs are
    simulated once.  ``runner`` overrides the cell function for the
    inline path (tests inject failing runners); worker processes always
    execute :func:`run_spec`.

    Cells whose spec carries a :class:`~repro.sim.trace.TraceSpec` export
    their event trace to ``trace_dir/<spec_hash><suffix>`` (requires
    ``trace_dir``; the export happens only when the cell actually
    simulates — a cache hit reuses the stats without re-tracing).
    """
    summary = SweepSummary()
    started = time.monotonic()
    cache = ResultCache(cache_dir) if use_cache else None
    say = progress or _silent

    # Resolve cache hits up front; deduplicate the remainder.
    pending: list[SimSpec] = []
    seen: set[SimSpec] = set()
    for spec in specs:
        if spec in seen or spec in summary.results:
            continue
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            summary.results[spec] = hit
            summary.cached += 1
        else:
            pending.append(spec)
            seen.add(spec)
    if summary.cached:
        say(f"cache: {summary.cached} hit(s), {len(pending)} to simulate")

    def finish(spec: SimSpec, stats: RunStats) -> None:
        summary.results[spec] = stats
        summary.simulated += 1
        if cache is not None:
            cache.put(spec, stats)
        say(f"done {spec.label()} ({len(summary.results)} ready)")

    if jobs > 1:
        failures = run_in_processes(
            pending, finish, jobs=jobs, timeout_s=timeout_s,
            retries=retries, say=say, trace_dir=trace_dir,
        )
    else:
        cell = runner or (lambda spec: _run_cell(spec, trace_dir))
        failures = run_inline(pending, finish, cell, say=say)
    summary.failures.extend(failures)
    summary.elapsed_s = time.monotonic() - started
    return summary


def run_inline(
    specs: Sequence[SimSpec],
    finish: Callable[[SimSpec, RunStats], None],
    runner: Callable[[SimSpec], RunStats],
    say: Callable[[str], None] = _silent,
) -> list[CellFailure]:
    """Run each cell through ``runner`` in this process, one at a time.

    ``finish`` receives each result; an exception becomes the cell's
    :class:`CellFailure`.  Returns the failures.
    """
    failures: list[CellFailure] = []
    for spec in specs:
        try:
            finish(spec, runner(spec))
        except Exception as exc:
            failures.append(
                CellFailure(spec, _failure_kind(exc),
                            f"{type(exc).__name__}: {exc}", attempts=1)
            )
            say(f"FAILED {spec.label()}: {exc}")
    return failures


@dataclass
class _Slot:
    """One in-flight worker process."""

    index: int
    process: multiprocessing.Process
    conn: object
    deadline: Optional[float]


def run_in_processes(
    specs: Sequence[SimSpec],
    finish: Callable[[SimSpec, RunStats], None],
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    say: Callable[[str], None] = _silent,
    trace_dir: Optional[str] = None,
) -> list[CellFailure]:
    """Run each cell in a fresh worker process, ``jobs`` at a time.

    The one way a cell leaves this process.  A worker that outlives
    ``timeout_s`` is killed, and one that dies without reporting is a
    crash; either cell runs again, up to ``retries`` times.  A failure
    the worker reports (error, stall, deadlock) is a deterministic
    function of the spec and is not retried.  ``finish`` receives each
    result as it lands.  Returns the failures.
    """
    ctx = multiprocessing.get_context()
    queue: list[tuple[int, int]] = [(i, 1) for i in range(len(specs))]
    slots: dict[int, _Slot] = {}
    attempts: dict[int, int] = {}
    failures: list[CellFailure] = []

    def launch(index: int, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_cell_entry,
            args=(specs[index].to_dict(), child_conn, trace_dir),
            daemon=True,
        )
        process.start()
        child_conn.close()
        attempts[index] = attempt
        slots[index] = _Slot(
            index=index,
            process=process,
            conn=parent_conn,
            deadline=(
                time.monotonic() + timeout_s if timeout_s is not None else None
            ),
        )

    def reap(slot: _Slot) -> None:
        slot.conn.close()
        slot.process.join()
        del slots[slot.index]

    def retry_or_fail(slot: _Slot, kind: str, message: str) -> None:
        spec = specs[slot.index]
        attempt = attempts[slot.index]
        if attempt <= retries:
            say(f"retrying {spec.label()} after {kind} "
                f"(attempt {attempt + 1})")
            queue.append((slot.index, attempt + 1))
        else:
            failures.append(
                CellFailure(spec, kind, message, attempts=attempt)
            )
            say(f"FAILED {spec.label()}: {kind}: {message}")

    try:
        while queue or slots:
            while queue and len(slots) < jobs:
                index, attempt = queue.pop(0)
                launch(index, attempt)

            ready = connection_wait(
                [slot.conn for slot in slots.values()], timeout=0.05
            )
            for slot in [s for s in slots.values() if s.conn in ready]:
                try:
                    payload = slot.conn.recv()
                except (EOFError, OSError):
                    # The worker died before sending anything.
                    reap(slot)
                    code = slot.process.exitcode
                    retry_or_fail(
                        slot, "crash", f"worker exited with code {code}"
                    )
                    continue
                reap(slot)
                if payload[0] == "ok":
                    finish(specs[slot.index],
                           RunStats.from_dict(payload[1]))
                else:
                    __, kind, message, trace = payload
                    spec = specs[slot.index]
                    failures.append(
                        CellFailure(
                            spec, kind, f"{message}\n{trace}",
                            attempts=attempts[slot.index],
                        )
                    )
                    say(f"FAILED {spec.label()}: {message}")

            now = time.monotonic()
            for slot in [
                s for s in slots.values()
                if s.deadline is not None and now > s.deadline
            ]:
                slot.process.terminate()
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():
                    slot.process.kill()
                reap(slot)
                retry_or_fail(
                    slot, "timeout", f"exceeded {timeout_s:.1f}s"
                )
    finally:
        for slot in list(slots.values()):
            slot.process.terminate()
            slot.process.join(timeout=5.0)
            if slot.process.is_alive():
                slot.process.kill()
            slot.conn.close()
            del slots[slot.index]
    return failures


def results_by_spec(
    summary: SweepSummary, specs: Sequence[SimSpec]
) -> Mapping[SimSpec, RunStats]:
    """The sweep's results restricted (and checked) against a cell list."""
    missing = [spec.label() for spec in specs if spec not in summary.results]
    if missing:
        raise KeyError(
            f"sweep produced no result for: {', '.join(sorted(set(missing)))}"
        )
    return {spec: summary.results[spec] for spec in specs}

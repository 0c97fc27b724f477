"""Multi-tenant job store: the scheduling core of ``repro serve``.

The PR-2 orchestrator made every cell a pure function of its
``spec_hash`` with a content-addressed result cache — exactly the shape
of a shardable service.  This module turns that batch tool into an
async-submittable store:

* **submission** — a :class:`Job` is one tenant's grid of
  :class:`~repro.experiments.spec.SimSpec` cells; cache hits resolve at
  submit time, the rest enter the tenant's FIFO queue.
* **in-flight dedup** — cells are identified by ``spec_hash``; a spec
  already queued or running (for *any* tenant, or earlier in the same
  grid) is not enqueued again — the new cell subscribes to the in-flight
  execution and receives the same result (origin ``"deduped"``).
* **fair scheduling** — queued cells are leased round-robin across
  tenants, so one tenant's 10,000-cell grid cannot starve another's
  smoke test.
* **backpressure** — :meth:`JobStore.submit` raises
  :class:`QueueFullError` once the number of *distinct* pending cells
  reaches ``max_pending``; the HTTP layer maps it to 429 + Retry-After.
* **one execution path** — every cell runs under a lease:
  :meth:`JobStore.grant_lease` pops queued cells, :func:`cell_outcome`
  runs one and maps any failure to ``{kind, message, attempts}`` (the
  orchestrator's ``CellFailure`` kinds), and
  :meth:`JobStore.push_results` folds the outcome in.  Remote workers (:mod:`repro.serve.worker`) drive it
  over HTTP; the head's ``workers`` pool slots drive it in process
  under the empty worker id.  Such *local* leases are never journaled,
  reaped, or charged a ``worker_lost`` attempt.  A remote lease expires
  ``lease_ttl_s`` after its last heartbeat or push; the reaper requeues
  its cells exactly once and turns retry exhaustion into ``worker_lost``
  failures.  ``workers=0`` runs the store head-only.
* **durability** — with a result cache attached, submissions, remote
  lease grants, releases, and terminal folds are appended to a JSONL
  write-ahead log (:mod:`repro.serve.journal`), one builder per record
  kind.  :meth:`JobStore.recover` (run by :meth:`start`) replays it
  after a head crash: resolved cells are re-served from the cache, open
  remote leases are restored with their tokens, and every other
  unresolved cell — the local pool's included — is requeued at once.
  ``journal=False`` keeps the store purely in memory.

Everything runs on one asyncio event loop; the only threads are the
local pool's.  A cell runs in a worker process through
:func:`repro.experiments.orchestrator.run_in_processes`, the sweep's
own process runner, unless ``runner`` (e.g. ``run_spec``, in-thread)
is given.
"""

from __future__ import annotations

import asyncio
import functools
import math
import os
import re
import secrets
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable, Optional, Sequence

from repro.core.system import RunStats
from repro.experiments.orchestrator import (
    ResultCache,
    run_in_processes,
    run_inline,
)
from repro.experiments.spec import SimSpec
from repro.serve.journal import JOURNAL_NAME, Journal
from repro.serve.protocol import CellOutcome, is_failure_body

#: Cell origins: how a delivered result was produced.
ORIGIN_CACHED = "cached"        # satisfied from the on-disk cache at submit
ORIGIN_SIMULATED = "simulated"  # this cell's job triggered the simulation
ORIGIN_DEDUPED = "deduped"      # rode along on another in-flight cell

_ORIGIN_TOTALS = {
    ORIGIN_CACHED: "cells_cached",
    ORIGIN_SIMULATED: "cells_simulated",
    ORIGIN_DEDUPED: "cells_deduped",
}

#: Counters that describe the last recovery pass rather than history.
RECOVERY_COUNTERS = (
    "jobs_recovered", "cells_requeued_on_recovery", "leases_restored"
)

#: Default lease TTL; a worker heartbeats at a fraction of this.
DEFAULT_LEASE_TTL_S = 15.0


def cell_outcome(
    spec: SimSpec,
    *,
    runner: Optional[Callable[[SimSpec], RunStats]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> CellOutcome:
    """Run one cell, head-local or on a remote worker; never raises.

    ``runner`` runs it in this thread when given; otherwise it runs in a
    fresh process through the sweep's own
    :func:`~repro.experiments.orchestrator.run_in_processes`
    (``timeout_s``, ``retries``).  A failed cell becomes an error
    outcome.
    """
    done: dict[SimSpec, RunStats] = {}
    if runner is None:
        failures = run_in_processes(
            [spec], done.__setitem__, timeout_s=timeout_s, retries=retries
        )
    else:
        failures = run_inline([spec], done.__setitem__, runner)
    spec_hash = spec.spec_hash()
    if failures:
        (failure,) = failures
        return CellOutcome(spec_hash=spec_hash, error={
            "kind": failure.kind,
            "message": failure.message,
            "attempts": failure.attempts,
        })
    return CellOutcome(spec_hash=spec_hash, stats=done[spec])


def _max_serial(floor: int, prefix: str, ids) -> int:
    """The highest serial among ids shaped ``<prefix><serial>-<hex>``."""
    serials = (re.match(rf"{prefix}(\d+)-", item) for item in ids)
    return max([floor, *(int(m.group(1)) for m in serials if m)])


class QueueFullError(RuntimeError):
    """Backpressure signal: the store's pending-cell limit is reached."""

    def __init__(self, pending: int, limit: int, retry_after_s: float):
        super().__init__(
            f"{pending} cell(s) pending >= limit {limit}; "
            f"retry after {retry_after_s:.1f}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


class UnknownLeaseError(RuntimeError):
    """Heartbeat/push for a lease the head no longer tracks (or a bad
    token): it expired and was reaped, completed, or never existed."""

    def __init__(self, lease_id: str):
        super().__init__(f"no live lease {lease_id!r}")
        self.lease_id = lease_id


@dataclass
class CellRecord:
    """One cell of one job, through its lifecycle."""

    index: int
    spec: SimSpec
    spec_hash: str
    state: str = "queued"  # "queued" | "running" | "done" | "failed"
    origin: Optional[str] = None
    stats: Optional[RunStats] = None
    error: Optional[dict] = None  # {"kind", "message", "attempts"}
    worker: Optional[str] = None  # remote worker currently leasing it

    def status_dict(self) -> dict:
        data = {
            "index": self.index,
            "spec_hash": self.spec_hash,
            "label": self.spec.label(),
            "state": self.state,
        }
        if self.origin is not None:
            data["origin"] = self.origin
        if self.error is not None:
            data["error"] = dict(self.error)
        if self.worker is not None:
            data["worker"] = self.worker
        return data


class Job:
    """Handle to one submitted grid; all methods run on the store's loop."""

    def __init__(self, job_id: str, tenant: str, specs: Sequence[SimSpec]):
        self.job_id = job_id
        self.tenant = tenant
        self.cells = [
            CellRecord(index=i, spec=spec, spec_hash=spec.spec_hash())
            for i, spec in enumerate(specs)
        ]
        self.created_at = time.time()
        self._started = time.monotonic()
        self.elapsed_s: Optional[float] = None
        self.failure_kinds: dict[str, int] = {}
        self.event_log: list[dict] = []
        self._done = asyncio.Event()
        self._changed = asyncio.Event()

    # -- state -----------------------------------------------------------------

    @property
    def is_done(self) -> bool:
        return self._done.is_set()

    def _count(self, *states: str) -> int:
        return sum(1 for cell in self.cells if cell.state in states)

    def _count_origin(self, origin: str) -> int:
        return sum(1 for cell in self.cells if cell.origin == origin)

    def snapshot(self, detail: bool = True) -> dict:
        data = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": "done" if self.is_done else "running",
            "cells": len(self.cells),
            "queued": self._count("queued"),
            "running": self._count("running"),
            "done": self._count("done"),
            "failed": self._count("failed"),
            "cached": self._count_origin(ORIGIN_CACHED),
            "deduped": self._count_origin(ORIGIN_DEDUPED),
            "simulated": self._count_origin(ORIGIN_SIMULATED),
            "failure_kinds": dict(self.failure_kinds),
            "created_at": self.created_at,
            "elapsed_s": (
                self.elapsed_s
                if self.elapsed_s is not None
                else time.monotonic() - self._started
            ),
        }
        if detail:
            data["cells_detail"] = [cell.status_dict() for cell in self.cells]
        return data

    def results_dict(self) -> dict:
        """Full results body: delivered stats plus structured failures."""
        results = []
        failures = []
        for cell in self.cells:
            if cell.state == "done" and cell.stats is not None:
                results.append({
                    "index": cell.index,
                    "spec": cell.spec.to_dict(),
                    "spec_hash": cell.spec_hash,
                    "origin": cell.origin,
                    "stats": cell.stats.to_dict(),
                })
            elif cell.state == "failed":
                failures.append({
                    "index": cell.index,
                    "spec": cell.spec.to_dict(),
                    "spec_hash": cell.spec_hash,
                    "error": dict(cell.error),
                })
        data = self.snapshot(detail=False)
        data["results"] = results
        data["failures"] = failures
        return data

    # -- events ----------------------------------------------------------------

    def emit(self, event: dict) -> None:
        self.event_log.append(event)
        self._changed.set()

    def _cell_event(self, cell: CellRecord) -> dict:
        event = {"event": "cell", "job_id": self.job_id}
        event.update(cell.status_dict())
        if cell.stats is not None:
            event["stats"] = cell.stats.to_dict()
        return event

    async def wait(self) -> dict:
        """Block until every cell resolved; returns the final snapshot."""
        await self._done.wait()
        return self.snapshot(detail=False)

    async def events(self) -> AsyncIterator[dict]:
        """Replay the event log, then follow live until the job is done."""
        index = 0
        while True:
            self._changed.clear()
            while index < len(self.event_log):
                yield self.event_log[index]
                index += 1
            if self.is_done:
                return
            await self._changed.wait()

    def _maybe_finish(self) -> None:
        if self.is_done or self._count("queued", "running"):
            return
        self.elapsed_s = time.monotonic() - self._started
        self.emit({"event": "done", **self.snapshot(detail=False)})
        self._done.set()


@dataclass
class _InFlight:
    """One distinct spec being executed; fan-in point for deduped cells."""

    spec: SimSpec
    spec_hash: str
    tenant: str  # tenant whose queue carries the execution
    subscribers: list[tuple[Job, int]] = field(default_factory=list)
    #: 1-based count of remote workers this cell has been leased to;
    #: drives the ``worker_lost`` retry budget when leases are reaped.
    worker_attempts: int = 0


@dataclass
class Lease:
    """A batch of leased cells with a deadline (none for a local lease,
    held by one of the head's own pool slots under ``worker_id=""``)."""

    lease_id: str
    token: str
    worker_id: str
    ttl_s: float
    deadline: float  # time.monotonic()
    entries: dict[str, _InFlight] = field(default_factory=dict)

    @property
    def local(self) -> bool:
        return not self.worker_id

    def renew(self) -> None:
        """Push the deadline a full TTL out (a no-op for local leases)."""
        if not self.local:
            self.deadline = time.monotonic() + self.ttl_s


class JobStore:
    """Async-submittable, multi-tenant front of the sweep orchestrator."""

    def __init__(
        self,
        *,
        workers: int = 2,
        max_pending: int = 1024,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        runner: Optional[Callable[[SimSpec], RunStats]] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        worker_retries: int = 1,
        journal: bool = True,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        #: 0 = head-only: no local execution, cells wait for remote leases.
        self.workers = workers
        self.max_pending = max_pending
        self.timeout_s = timeout_s
        self.retries = retries
        self.cache = ResultCache(cache_dir) if use_cache else None
        self._runner = runner
        self.lease_ttl_s = lease_ttl_s
        self.worker_retries = max(0, worker_retries)
        self._reset_state()
        self._work = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._running = False
        self._job_counter = 0
        self._lease_counter = 0
        #: The durable WAL (only with a cache: stats live in its artifacts).
        self._journal: Optional[Journal] = None
        self._journal_enabled = journal and self.cache is not None
        self._recovered = False

    def _reset_state(self) -> None:
        """Empty every piece of replayable state (and the totals)."""
        self._inflight: dict[str, _InFlight] = {}
        self._queues: dict[str, deque[_InFlight]] = {}
        self._tenant_order: deque[str] = deque()
        self._jobs: dict[str, Job] = {}
        self._leases: dict[str, Lease] = {}
        self.totals = self._zero_totals()

    @staticmethod
    def _zero_totals() -> dict:
        return {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "submissions_rejected": 0,
            "cells_delivered": 0,
            "cells_simulated": 0,
            "cells_cached": 0,
            "cells_deduped": 0,
            "cells_failed": 0,
            "cells_remote": 0,
            "cells_requeued": 0,
            "cells_released": 0,
            "leases_granted": 0,
            "leases_reaped": 0,
            "results_stale": 0,
            "jobs_recovered": 0,
            "cells_requeued_on_recovery": 0,
            "leases_restored": 0,
            "failure_kinds": {},
        }

    @property
    def executor_kind(self) -> str:
        """``"process"`` (a worker process) or ``"inline"`` (a runner)."""
        return "process" if self._runner is None else "inline"

    # -- lifecycle -------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    async def start(self) -> "JobStore":
        if self._running:
            return self
        self._running = True
        if self._journal_enabled and not self._recovered:
            self.recover()
            self.compact_journal()
        if self.workers > 0:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve"
            )
            self._tasks = [
                asyncio.create_task(
                    self._local_worker(), name=f"serve-worker-{i}"
                )
                for i in range(self.workers)
            ]
        self._tasks.append(
            asyncio.create_task(self._reaper(), name="serve-lease-reaper")
        )
        return self

    async def close(self) -> None:
        self._running = False
        self._work.set()  # wake idle workers so they observe the stop
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._journal is not None:
            self._journal.close()

    # -- durability ------------------------------------------------------------

    @property
    def journal_path(self) -> Optional[str]:
        """Where the WAL lives (under the cache root), or None if disabled."""
        if not self._journal_enabled:
            return None
        return os.path.join(self.cache.root, JOURNAL_NAME)

    def _journal_append(self, *records: dict) -> None:
        if self._journal is not None:
            self._journal.append(*records)

    @staticmethod
    def _job_record(job: Job) -> dict:
        return {
            "rec": "job",
            "job_id": job.job_id,
            "tenant": job.tenant,
            "created_at": job.created_at,
            "specs": [cell.spec.to_dict() for cell in job.cells],
        }

    @staticmethod
    def _resolve_record(
        spec_hash: str,
        cells: Sequence[tuple[Job, CellRecord]],
        error: Optional[dict] = None,
        remote: bool = False,
    ) -> dict:
        """A terminal fold of ``spec_hash`` (stats live in the cache)."""
        record: dict = {
            "rec": "resolve",
            "spec_hash": spec_hash,
            "ok": error is None,
            "cells": [],
        }
        for job, cell in cells:
            ref = {"job": job.job_id, "index": cell.index, "origin": cell.origin}
            if cell.worker:
                ref["worker"] = cell.worker
            record["cells"].append(ref)
        if error is not None:
            record["error"] = dict(error)
        if remote:
            record["remote"] = True
        return record

    @staticmethod
    def _lease_record(lease: Lease) -> dict:
        # The token is what lets a restarted head accept the worker's
        # pushes as if nothing happened.
        return {
            "rec": "lease",
            "lease_id": lease.lease_id,
            "token": lease.token,
            "worker_id": lease.worker_id,
            "ttl_s": lease.ttl_s,
            "cells": {
                spec_hash: entry.worker_attempts
                for spec_hash, entry in lease.entries.items()
            },
        }

    def _close_lease(self, lease: Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        if not lease.local:
            self._journal_append(
                {"rec": "lease_closed", "lease_id": lease.lease_id}
            )

    @staticmethod
    def _merge_totals(target: dict, source: dict, sign: int = 1) -> None:
        for key, value in source.items():
            if key == "failure_kinds" and isinstance(value, dict):
                kinds = target.setdefault("failure_kinds", {})
                for kind, count in value.items():
                    kinds[kind] = kinds.get(kind, 0) + sign * int(count)
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                target[key] = target.get(key, 0) + sign * value

    def recover(self) -> dict:
        """Rebuild the store's state from the journal (head failover).

        Replays every journaled record into a *fresh* in-memory state:
        jobs are re-registered under their original ids, resolved cells
        are re-served from the content-addressed cache (a resolve whose
        artifact went missing is requeued instead — never trusted
        blindly), open remote leases are restored with their journaled
        tokens and a fresh full TTL — so a fast head restart neither
        double-executes a slow worker's batch nor rejects its late
        pushes — and every other unresolved cell re-enters its tenant's
        queue immediately with its ``worker_attempts`` budget intact.
        ``/stats`` totals are rebuilt cumulatively (compaction baselines
        included), so counters like ``cells_simulated`` keep meaning
        "ever" across restarts.

        Replay starts from scratch every call, which makes it
        idempotent: recovering twice — or from a journal with
        duplicated records or a torn tail — lands in the same state as
        recovering once.  Returns the recovery counters (also surfaced
        in ``/stats``).
        """
        if not self._journal_enabled:
            return dict.fromkeys(RECOVERY_COUNTERS, 0)
        if self._journal is None:
            self._journal = Journal(self.journal_path)
        records = self._journal.load()
        self._recovered = True
        self._reset_state()
        counters = self._replay(records)
        self.totals.update(counters)
        return counters

    def _replay(self, records: Sequence[dict]) -> dict:
        # Pass 1: sort the log into per-kind views (last duplicate wins
        # for jobs/leases; resolves stay ordered).
        job_records: dict[str, dict] = {}
        resolves: list[dict] = []
        lease_records: dict[str, dict] = {}
        closed: set[str] = set()
        released: set[tuple[str, str]] = set()  # (lease_id, spec_hash)
        attempt_floors: dict[str, int] = {}
        totals_merged = False
        for record in records:
            kind = record.get("rec")
            if kind == "totals":
                # Compaction writes exactly one baseline; any further
                # copy is a duplicated record and must not double it.
                if not totals_merged:
                    self._merge_totals(
                        self.totals, record.get("totals") or {}
                    )
                    totals_merged = True
            elif kind == "job":
                if record.get("job_id") and isinstance(
                    record.get("specs"), list
                ):
                    job_records[record["job_id"]] = record
            elif kind == "resolve":
                resolves.append(record)
            elif kind == "lease":
                if record.get("lease_id"):
                    lease_records[record["lease_id"]] = record
            elif kind == "lease_closed":
                closed.add(record.get("lease_id"))
            elif kind == "release":
                # Keyed by (lease, hash): a lease can only release a
                # cell once, so duplicated records collapse here.
                for spec_hash in record.get("spec_hashes") or ():
                    released.add((record.get("lease_id"), spec_hash))
            elif kind == "attempts":
                for spec_hash, count in (record.get("cells") or {}).items():
                    attempt_floors[spec_hash] = max(
                        attempt_floors.get(spec_hash, 0), int(count)
                    )
            # unknown record kinds are skipped (forward compatibility)

        # Pass 2: rebuild jobs under their original ids.
        for job_id, record in job_records.items():
            try:
                specs = [
                    SimSpec.from_dict(item) for item in record["specs"]
                ]
            except (KeyError, TypeError, ValueError):
                continue  # unreadable job record: drop the whole job
            job = Job(job_id, record.get("tenant") or "default", specs)
            job.created_at = record.get("created_at", job.created_at)
            self._jobs[job_id] = job
            self.totals["jobs_submitted"] += 1
            job.emit({
                "event": "job",
                "job_id": job_id,
                "tenant": job.tenant,
                "cells": len(job.cells),
                "recovered": True,
            })

        # Pass 3: apply terminal folds; stats come from the cache, and a
        # missing artifact leaves the cell unresolved (requeued below).
        for record in resolves:
            error = None
            if not record.get("ok"):
                error = record.get("error")
                if not is_failure_body(error):
                    error = {
                        "kind": "error",
                        "message": "journaled failure with no error body",
                        "attempts": 1,
                    }
            stats: Optional[RunStats] = None
            counted_remote = False
            for ref in record.get("cells") or ():
                job = self._jobs.get(ref.get("job"))
                index = ref.get("index")
                if (
                    job is None
                    or not isinstance(index, int)
                    or not 0 <= index < len(job.cells)
                ):
                    continue
                cell = job.cells[index]
                if cell.state in ("done", "failed"):
                    continue  # duplicate record: replay stays idempotent
                if error is None:
                    if stats is None:
                        stats = self.cache.get(cell.spec)
                    if stats is None:
                        continue  # artifact lost: re-execute instead
                    if ref.get("worker"):
                        cell.worker = ref["worker"]
                self._settle(
                    job, cell, ref.get("origin") or ORIGIN_DEDUPED,
                    stats, error,
                )
                if record.get("remote") and not counted_remote:
                    self.totals["cells_remote"] += 1
                    counted_remote = True

        # Pass 4: per-hash retry budgets — one attempt per granted lease,
        # minus graceful releases, floored by compaction snapshots.
        attempts: dict[str, int] = {}
        for record in lease_records.values():
            self.totals["leases_granted"] += 1
            for spec_hash in record.get("cells") or {}:
                attempts[spec_hash] = attempts.get(spec_hash, 0) + 1
        for __, spec_hash in released:
            attempts[spec_hash] = max(0, attempts.get(spec_hash, 0) - 1)
        # Compaction folds dropped release records into its baseline, so
        # counting the journaled ones here keeps the total cumulative.
        self.totals["cells_released"] += len(released)
        for spec_hash, floor in attempt_floors.items():
            attempts[spec_hash] = max(attempts.get(spec_hash, 0), floor)

        leased_hashes: dict[str, str] = {}
        for lease_id, record in lease_records.items():
            if lease_id in closed:
                continue
            for spec_hash in record.get("cells") or {}:
                leased_hashes[spec_hash] = lease_id

        # Pass 5: unresolved cells -> in-flight entries; cells of an open
        # lease stay leased (fresh full TTL), the rest are requeued.
        requeued = 0
        restored: dict[str, Lease] = {}
        for job in self._jobs.values():
            for cell in job.cells:
                if cell.state in ("done", "failed"):
                    continue
                entry = self._inflight.get(cell.spec_hash)
                if entry is None:
                    entry = _InFlight(
                        spec=cell.spec,
                        spec_hash=cell.spec_hash,
                        tenant=job.tenant,
                    )
                    entry.worker_attempts = attempts.get(cell.spec_hash, 0)
                    self._inflight[cell.spec_hash] = entry
                    lease_id = leased_hashes.get(cell.spec_hash)
                    if lease_id is not None:
                        lease = restored.get(lease_id)
                        if lease is None:
                            record = lease_records[lease_id]
                            ttl_s = float(
                                record.get("ttl_s") or self.lease_ttl_s
                            )
                            lease = restored[lease_id] = Lease(
                                lease_id=lease_id,
                                token=str(record.get("token") or ""),
                                worker_id=str(record.get("worker_id") or ""),
                                ttl_s=ttl_s,
                                deadline=time.monotonic() + ttl_s,
                            )
                        lease.entries[cell.spec_hash] = entry
                    else:
                        self._enqueue(job.tenant, entry)
                        requeued += 1
                entry.subscribers.append((job, cell.index))
        for lease in restored.values():
            self._leases[lease.lease_id] = lease
            for entry in lease.entries.values():
                self._mark(entry, "running", lease.worker_id)

        # Pass 6: restore id counters past everything journaled, close
        # out fully-resolved jobs, and report.
        self._job_counter = _max_serial(self._job_counter, "j", self._jobs)
        self._lease_counter = _max_serial(
            self._lease_counter, "l", lease_records
        )
        for job in self._jobs.values():
            self._finish(job)
        return {
            "jobs_recovered": len(self._jobs),
            "cells_requeued_on_recovery": requeued,
            "leases_restored": len(restored),
        }

    def compact_journal(self) -> int:
        """Rewrite the journal as just the records the open state needs.

        Open jobs keep their job record plus one resolve record per
        terminal cell; open remote leases keep their grant records
        (tokens included); queued cells with a spent retry budget keep
        it via an ``attempts`` record.  Everything else folds into one
        leading ``totals`` baseline: the live totals minus what replaying
        the kept records adds back, so recovery after compaction reports
        the same cumulative ``/stats`` totals.  Returns the number of
        records written.
        """
        if self._journal is None:
            return 0
        kept = [job for job in self._jobs.values() if not job.is_done]
        records = [self._job_record(job) for job in kept]
        records.extend(
            self._resolve_record(cell.spec_hash, [(job, cell)], cell.error)
            for job in kept
            for cell in job.cells
            if cell.state in ("done", "failed")
        )
        leases = [
            lease for lease in self._leases.values()
            if lease.entries and not lease.local
        ]
        records.extend(self._lease_record(lease) for lease in leases)
        leased = {spec_hash for lease in leases for spec_hash in lease.entries}
        spent = {
            spec_hash: entry.worker_attempts
            for spec_hash, entry in self._inflight.items()
            if entry.worker_attempts > 0 and spec_hash not in leased
        }
        if spent:
            records.append({"rec": "attempts", "cells": spent})

        replayed = JobStore(
            workers=0, use_cache=False, journal=False,
            lease_ttl_s=self.lease_ttl_s,
        )
        replayed.cache = self.cache
        replayed._replay(records)
        baseline = self._zero_totals()
        self._merge_totals(baseline, self.totals)
        self._merge_totals(baseline, replayed.totals, sign=-1)
        for key in RECOVERY_COUNTERS:
            baseline[key] = 0
        baseline["failure_kinds"] = {
            kind: count
            for kind, count in baseline["failure_kinds"].items()
            if count
        }
        if any(baseline.values()):
            records.insert(0, {"rec": "totals", "totals": baseline})
        self._journal.rewrite(records)
        return len(records)

    # -- submission ------------------------------------------------------------

    @property
    def pending_cells(self) -> int:
        """Distinct cells queued or running (the backpressure measure)."""
        return len(self._inflight)

    @property
    def leases_open(self) -> int:
        """Live remote leases (the head's own pool slots are not counted)."""
        return sum(1 for lease in self._leases.values() if not lease.local)

    def retry_after_s(self) -> float:
        """Crude drain estimate used for the 429 Retry-After header."""
        drain = max(1, self.workers)  # head-only: assume one remote worker
        backlog = max(1, self.pending_cells - drain)
        return min(60.0, max(1.0, backlog / drain))

    def get_job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    async def submit(
        self, specs: Sequence[SimSpec], tenant: str = "default"
    ) -> Job:
        """Register a grid for ``tenant``; resolves/queues every cell.

        Raises :class:`QueueFullError` (leaving no state behind) when the
        cells that would *newly* enter the queue exceed the pending
        limit.  Cache hits and dedup subscriptions are always accepted —
        they consume no worker capacity.
        """
        if not self._running:
            raise RuntimeError("JobStore is not running; call start() first")
        self._job_counter += 1
        job = Job(
            f"j{self._job_counter:06d}-{secrets.token_hex(3)}",
            tenant,
            specs,
        )

        # Plan first (no mutation), so a full queue rejects atomically.
        cached: list[tuple[CellRecord, RunStats]] = []
        subscribe: list[CellRecord] = []
        fresh: dict[str, list[CellRecord]] = {}
        for cell in job.cells:
            hit = self.cache.get(cell.spec) if self.cache else None
            if hit is not None:
                cached.append((cell, hit))
            elif cell.spec_hash in self._inflight:
                subscribe.append(cell)
            else:
                fresh.setdefault(cell.spec_hash, []).append(cell)
        if self.pending_cells + len(fresh) > self.max_pending:
            self.totals["submissions_rejected"] += 1
            raise QueueFullError(
                self.pending_cells, self.max_pending, self.retry_after_s()
            )

        # Commit.
        self._jobs[job.job_id] = job
        self.totals["jobs_submitted"] += 1
        job.emit({
            "event": "job",
            "job_id": job.job_id,
            "tenant": tenant,
            "cells": len(job.cells),
            "cached_at_submit": len(cached),
        })
        hits: dict[str, list[tuple[Job, CellRecord]]] = {}
        for cell, stats in cached:
            self._settle(job, cell, ORIGIN_CACHED, stats)
            hits.setdefault(cell.spec_hash, []).append((job, cell))
        for cell in subscribe:
            self._inflight[cell.spec_hash].subscribers.append(
                (job, cell.index)
            )
        for spec_hash, cells in fresh.items():
            entry = _InFlight(
                spec=cells[0].spec, spec_hash=spec_hash, tenant=tenant
            )
            entry.subscribers.extend((job, cell.index) for cell in cells)
            self._inflight[spec_hash] = entry
            self._enqueue(tenant, entry)
        # Fully cache-hit grids are done before the 202 returns: there is
        # nothing to recover (the content-addressed cache IS their
        # durability) and compaction would drop them at the next boot
        # anyway, so skip the WAL — this keeps the warm submit path as
        # fast as an in-memory store.
        if self._journal is not None and (fresh or subscribe):
            self._journal.append(self._job_record(job), *(
                self._resolve_record(spec_hash, cells)
                for spec_hash, cells in hits.items()
            ))
        self._finish(job)  # fully cache-hit grids complete immediately
        return job

    # -- scheduling ------------------------------------------------------------

    def _enqueue(self, tenant: str, entry: _InFlight) -> None:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._tenant_order.append(tenant)
        queue.append(entry)
        self._work.set()

    def _next_entry(self) -> Optional[_InFlight]:
        """Round-robin pop across tenants with queued work."""
        for __ in range(len(self._tenant_order)):
            tenant = self._tenant_order[0]
            self._tenant_order.rotate(-1)
            queue = self._queues[tenant]
            if queue:
                entry = queue.popleft()
                if not queue:
                    del self._queues[tenant]
                    self._tenant_order.remove(tenant)
                return entry
        return None

    def _remove_queued(self, entry: _InFlight) -> None:
        """Drop an entry from its tenant queue, if it is still queued."""
        queue = self._queues.get(entry.tenant)
        if queue is None:
            return
        try:
            queue.remove(entry)
        except ValueError:
            return
        if not queue:
            del self._queues[entry.tenant]
            self._tenant_order.remove(entry.tenant)

    @staticmethod
    def _mark(
        entry: _InFlight, state: str, worker: Optional[str] = None
    ) -> None:
        """Move every subscriber cell of ``entry`` to ``state``."""
        for job, index in entry.subscribers:
            cell = job.cells[index]
            cell.state = state
            cell.worker = worker
            job.emit(job._cell_event(cell))

    def _requeue(self, entry: _InFlight) -> None:
        self._mark(entry, "queued")
        self._enqueue(entry.tenant, entry)

    async def _local_worker(self) -> None:
        """One slot of the head's pool: an in-process lease consumer."""
        loop = asyncio.get_running_loop()
        run = functools.partial(
            cell_outcome,
            runner=self._runner,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )
        while self._running:
            lease = self.grant_lease("", max_cells=1)
            if lease is None:
                self._work.clear()
                await self._work.wait()
                continue
            (entry,) = lease.entries.values()
            outcome = await loop.run_in_executor(self._pool, run, entry.spec)
            self.push_results(lease.lease_id, lease.token, [outcome])

    # -- leases ----------------------------------------------------------------

    def grant_lease(
        self, worker_id: str, max_cells: int = 4
    ) -> Optional[Lease]:
        """Pop up to ``max_cells`` queued cells into a new lease.

        Returns ``None`` when no work is queued.  Granted cells leave the
        tenant queues but stay in ``_inflight`` so later submissions
        still dedup onto them.  A remote grant is journaled, expires
        ``lease_ttl_s`` after its last heartbeat, and charges one
        ``worker_attempts`` against each cell's ``worker_retries``
        budget; a local grant (``worker_id=""``) does none of that.
        """
        entries: list[_InFlight] = []
        while len(entries) < max(1, max_cells):
            entry = self._next_entry()
            if entry is None:
                break
            entries.append(entry)
        if not entries:
            return None
        self._lease_counter += 1
        lease = Lease(
            lease_id=f"l{self._lease_counter:06d}-{secrets.token_hex(3)}",
            token=secrets.token_hex(8),
            worker_id=worker_id,
            ttl_s=self.lease_ttl_s,
            deadline=math.inf,
        )
        lease.renew()
        for entry in entries:
            if not lease.local:
                entry.worker_attempts += 1
            lease.entries[entry.spec_hash] = entry
            self._mark(entry, "running", worker_id or None)
        self._leases[lease.lease_id] = lease
        if not lease.local:
            self.totals["leases_granted"] += 1
            self._journal_append(self._lease_record(lease))
        return lease

    def _check_lease(self, lease_id: str, token: str) -> Lease:
        lease = self._leases.get(lease_id)
        if lease is None or lease.token != token:
            raise UnknownLeaseError(lease_id)
        return lease

    def heartbeat(self, lease_id: str, token: str) -> Lease:
        """Extend a live lease's deadline by a full TTL."""
        lease = self._check_lease(lease_id, token)
        lease.renew()
        return lease

    def push_results(
        self,
        lease_id: str,
        token: str,
        outcomes: Sequence[CellOutcome],
        worker_id: str = "",
    ) -> dict:
        """Fold executed cells back in, from a remote worker or a local slot.

        Outcomes are keyed by ``spec_hash`` and accepted whenever the
        cell is still unresolved — even if the lease already expired and
        was reaped (the work is done; discarding it would only waste the
        retry budget).  Outcomes for cells that resolved elsewhere in
        the meantime are counted stale.  ``lease_open=False`` in the
        reply tells the worker to abandon the rest of its batch.
        """
        lease = self._leases.get(lease_id)
        if lease is not None and lease.token != token:
            raise UnknownLeaseError(lease_id)
        worker_id = worker_id or (lease.worker_id if lease else "")
        accepted = 0
        for outcome in outcomes:
            entry = self._inflight.get(outcome.spec_hash)
            if entry is not None:
                self._resolve(entry, outcome, worker_id)
                accepted += 1
        stale = len(outcomes) - accepted
        self.totals["results_stale"] += stale
        if lease is not None:
            lease.renew()
            if not lease.entries:
                self._close_lease(lease)
                lease = None
        return {
            "accepted": accepted,
            "stale": stale,
            "lease_open": lease is not None,
        }

    def release_cells(
        self,
        lease_id: str,
        token: str,
        spec_hashes: Optional[Sequence[str]] = None,
    ) -> dict:
        """Give unstarted cells of a live lease back to the head.

        The graceful-drain counterpart of :meth:`reap_expired`: a worker
        shutting down cleanly releases the cells it never started, which
        requeues them immediately (no TTL wait) and *refunds* the
        ``worker_attempts`` the grant charged — a drained worker must
        not burn a cell's retry budget.  ``spec_hashes=None`` releases
        every remaining cell of the lease.  Raises
        :class:`UnknownLeaseError` for a dead lease or a bad token.
        """
        lease = self._check_lease(lease_id, token)
        hashes = (
            list(lease.entries)
            if spec_hashes is None
            else list(spec_hashes)
        )
        released: list[str] = []
        for spec_hash in hashes:
            entry = lease.entries.pop(spec_hash, None)
            if entry is None or spec_hash not in self._inflight:
                continue
            entry.worker_attempts = max(0, entry.worker_attempts - 1)
            self._requeue(entry)
            released.append(spec_hash)
        self.totals["cells_released"] += len(released)
        if released:
            self._journal_append({
                "rec": "release",
                "lease_id": lease_id,
                "spec_hashes": released,
            })
        if not lease.entries:
            self._close_lease(lease)
        return {"released": len(released), "lease_open": bool(lease.entries)}

    def reap_expired(self, now: Optional[float] = None) -> int:
        """Requeue (or fail) the cells of every lease past its deadline.

        Each expired lease's cells are requeued exactly once — back onto
        their tenants' queues with state reset to ``queued`` — unless
        their ``worker_retries`` budget is spent, in which case they
        resolve as structured ``worker_lost`` failures.  Local leases
        never expire.  Returns the number of cells requeued.
        """
        now = time.monotonic() if now is None else now
        requeued = 0
        for lease in [
            lease for lease in self._leases.values() if lease.deadline <= now
        ]:
            self._close_lease(lease)
            self.totals["leases_reaped"] += 1
            for entry in lease.entries.values():
                if entry.spec_hash not in self._inflight:
                    continue  # resolved by a late push; nothing to redo
                if entry.worker_attempts <= self.worker_retries:
                    self._requeue(entry)
                    self.totals["cells_requeued"] += 1
                    requeued += 1
                else:
                    self._resolve(entry, CellOutcome(
                        spec_hash=entry.spec_hash,
                        error={
                            "kind": "worker_lost",
                            "message": (
                                f"worker {lease.worker_id!r} lost lease "
                                f"{lease.lease_id} after "
                                f"{entry.worker_attempts} attempt(s)"
                            ),
                            "attempts": entry.worker_attempts,
                        },
                    ))
        return requeued

    async def _reaper(self) -> None:
        """Background sweep converting expired leases into requeues."""
        interval = max(0.05, min(1.0, self.lease_ttl_s / 4))
        while self._running:
            await asyncio.sleep(interval)
            try:
                self.reap_expired()
            except Exception:
                pass  # never let a reap error kill the loop

    # -- resolution ------------------------------------------------------------

    def _resolve(
        self, entry: _InFlight, outcome: CellOutcome, worker_id: str = ""
    ) -> None:
        """Fold one outcome into every subscriber, the cache, and the WAL
        (``worker_id``: the remote worker that produced it, or "")."""
        if outcome.error is None and self.cache is not None:
            # Artifact replication: the head's cache now serves this
            # cell to every future submission and cache-warming worker.
            # A result the head cannot persist is a failed cell, never a
            # half-folded one.
            try:
                self.cache.put(entry.spec, outcome.stats)
            except OSError as exc:
                outcome = CellOutcome(spec_hash=entry.spec_hash, error={
                    "kind": "error",
                    "message": f"result cache write failed: {exc}",
                    "attempts": 1,
                })
        self._inflight.pop(entry.spec_hash, None)
        self._remove_queued(entry)
        for lease in self._leases.values():
            lease.entries.pop(entry.spec_hash, None)
        if worker_id:
            self.totals["cells_remote"] += 1
        for position, (job, index) in enumerate(entry.subscribers):
            cell = job.cells[index]
            if outcome.simulated and outcome.error is None:
                cell.worker = worker_id or None
            self._settle(
                job,
                cell,
                ORIGIN_SIMULATED if position == 0 else ORIGIN_DEDUPED,
                outcome.stats,
                outcome.error,
            )
            self._finish(job)
        self._journal_append(self._resolve_record(
            entry.spec_hash,
            [(job, job.cells[index]) for job, index in entry.subscribers],
            outcome.error,
            remote=bool(worker_id),
        ))

    def _settle(
        self,
        job: Job,
        cell: CellRecord,
        origin: str,
        stats: Optional[RunStats] = None,
        error: Optional[dict] = None,
    ) -> None:
        """Resolve one cell (live, at submit, or on replay) and count it."""
        if error is None:
            cell.state = "done"
            cell.origin = origin
            cell.stats = stats
            self.totals[_ORIGIN_TOTALS.get(origin, "cells_deduped")] += 1
            self.totals["cells_delivered"] += 1
        else:
            cell.state = "failed"
            cell.error = dict(error)
            kind = error["kind"]
            job.failure_kinds[kind] = job.failure_kinds.get(kind, 0) + 1
            kinds = self.totals["failure_kinds"]
            kinds[kind] = kinds.get(kind, 0) + 1
            self.totals["cells_failed"] += 1
        job.emit(job._cell_event(cell))

    def _finish(self, job: Job) -> None:
        if not job.is_done:
            job._maybe_finish()
            if job.is_done:
                self.totals["jobs_done"] += 1

    # -- introspection ---------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            **{k: (dict(v) if isinstance(v, dict) else v)
               for k, v in self.totals.items()},
            "pending_cells": self.pending_cells,
            "max_pending": self.max_pending,
            "workers": self.workers,
            "executor": self.executor_kind,
            "tenants_queued": len(self._queues),
            "jobs_open": sum(
                1 for job in self._jobs.values() if not job.is_done
            ),
            "leases_open": self.leases_open,
            "lease_ttl_s": self.lease_ttl_s,
            "worker_retries": self.worker_retries,
            "cache_enabled": self.cache is not None,
            "journal_enabled": self._journal_enabled,
            "journal_path": self.journal_path,
        }

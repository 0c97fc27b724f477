"""Remote sweep worker: ``python -m repro serve --role worker --head URL``.

A worker node owns no queues and no jobs — it is a pull loop against a
head's lease API (:mod:`repro.serve.server`):

1. **lease** — ``POST /leases`` asks for a batch of up to
   ``lease_cells`` queued cells; an empty grant sleeps ``poll_s`` (the
   head's jittered ``retry_after_s`` hint, if longer) and retries.
2. **heartbeat** — a daemon thread extends the lease every ``ttl / 3``
   seconds while any cell of the batch is still executing.  A
   *rejected* heartbeat (head reaped the lease) flips the batch's
   ``lost`` flag: in-flight cells finish and still push — the head
   accepts late results for unresolved cells — but no new cell of the
   batch starts.  An *unreachable* head is different: connection
   failures are tolerated for ``head_outage_grace`` seconds, because a
   restarted head restores the lease from its journal.  Any other
   heartbeat exception marks the grant at-risk (instead of silently
   killing the thread) so unstarted cells are released for an early
   re-lease.
3. **execute** — each cell first tries the worker's *local* result
   cache, then ``GET /cells/<hash>`` on the head (cache warming), and
   only then simulates through
   :func:`~repro.serve.scheduler.cell_outcome` — the same execution
   body as the head's own pool (process isolation, timeout, retries) —
   on a small thread pool.
4. **push** — every completed cell is pushed promptly
   (``POST /leases/<id>/results``), one outcome per call, so a worker
   killed mid-batch loses at most the cells it had not finished; the
   head replicates pushed artifacts into its own cache, which is what
   makes the next ``GET /cells/<hash>`` — and every future submission —
   a hit.  While the head is down, completed outcomes are buffered
   locally and re-pushed after reconnect (the journaled lease token is
   what makes a restarted head accept them).  An ack with
   ``lease_open=False`` means the head reaped the lease and requeued
   the leftovers: the worker abandons the batch.

Every head RPC rides out restarts with full-jitter exponential backoff
(:mod:`repro.serve.backoff`) bounded by ``--head-outage-grace``.
Shutdown is graceful: ``SIGTERM`` (or :meth:`WorkerNode.drain`)
finishes in-flight cells, pushes their results, and gives unstarted
lease cells back via ``POST /leases/<id>/release`` so the head requeues
them immediately instead of waiting out the lease TTL; ``--drain-on-idle
SECS`` exits the same way after the head has had no work for that long.

Failures ride the same wire: a cell that exhausts its local retries
pushes a structured error (PR-5 ``CellFailure`` kinds), and a worker
that dies without pushing is handled entirely head-side (lease expiry →
requeue → ``worker_lost`` after the retry budget).  The worker refuses
to start against a head speaking a different ``protocol_version``.
"""

from __future__ import annotations

import secrets
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.system import RunStats
from repro.experiments.orchestrator import ResultCache
from repro.experiments.spec import SimSpec
from repro.serve.backoff import Backoff, jittered
from repro.serve.client import ServeClient, ServeConnectionError, ServeError
from repro.serve.protocol import CellOutcome, LeaseGrant, ResultPush
from repro.serve.scheduler import cell_outcome


def default_worker_id() -> str:
    """Host-qualified, collision-proof default worker name."""
    return f"{socket.gethostname()}-{secrets.token_hex(3)}"


@dataclass
class _BatchState:
    """Shared flag set by the heartbeat thread when the lease is gone."""

    lost: threading.Event = field(default_factory=threading.Event)


class WorkerNode:
    """One worker process: lease / heartbeat / execute / push."""

    def __init__(
        self,
        head_url: str,
        *,
        worker_id: Optional[str] = None,
        jobs: int = 2,
        lease_cells: int = 4,
        poll_s: float = 0.5,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        head_outage_grace: float = 60.0,
        drain_on_idle: Optional[float] = None,
        runner: Optional[Callable[[SimSpec], RunStats]] = None,
        client: Optional[ServeClient] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.client = (
            client if client is not None
            else ServeClient.from_url(head_url, tenant="worker")
        )
        self.worker_id = worker_id or default_worker_id()
        self.jobs = max(1, jobs)
        self.lease_cells = max(1, lease_cells)
        self.poll_s = poll_s
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.timeout_s = timeout_s
        self.retries = retries
        self.head_outage_grace = max(0.0, head_outage_grace)
        self.drain_on_idle = drain_on_idle
        self._runner = runner
        self._log = log or (lambda message: None)
        self._stop = threading.Event()
        self._head_down = threading.Event()
        self._unpushed: list[tuple[str, str, CellOutcome]] = []
        self._unpushed_lock = threading.Lock()
        #: Lifetime counters, mirrored into the CLI's shutdown line.
        self.counters = {
            "leases": 0,
            "cells_done": 0,
            "cells_failed": 0,
            "cells_local_cache": 0,
            "cells_head_cache": 0,
            "cells_simulated": 0,
            "cells_released": 0,
            "leases_lost": 0,
            "heartbeat_errors": 0,
            "push_rejected": 0,
            "results_buffered": 0,
            "results_repushed": 0,
        }

    def stop(self) -> None:
        self._stop.set()

    def drain(self) -> None:
        """Graceful shutdown: finish in-flight cells, push their results,
        release unstarted lease cells, then exit the run loop."""
        self._stop.set()

    # -- resilient transport ---------------------------------------------------

    def _rpc(self, what: str, fn: Callable, grace_s: Optional[float] = None):
        """Call ``fn``, riding out head outages with jittered backoff.

        Connection failures retry until ``grace_s`` (default
        ``head_outage_grace``) of wall clock has elapsed, then re-raise.
        Every other :class:`ServeError` passes straight through — those
        are answers, not outages.  A success clears the shared
        head-down latch that short-circuits in-batch pushes.
        """
        grace = self.head_outage_grace if grace_s is None else grace_s
        backoff = Backoff(base_s=0.2, cap_s=5.0)
        deadline: Optional[float] = None
        while True:
            try:
                result = fn()
            except ServeConnectionError:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + grace
                if now >= deadline:
                    self._head_down.set()
                    raise
                delay = min(backoff.next_delay(), max(0.01, deadline - now))
                self._log(f"{what}: head unreachable; retrying in {delay:.1f}s")
                time.sleep(delay)
            else:
                self._head_down.clear()
                return result

    # -- cell execution --------------------------------------------------------

    def _resolve_cell(self, spec: SimSpec, spec_hash: str) -> CellOutcome:
        """Local cache -> head artifact -> simulate; never raises."""
        if self.cache is not None:
            hit = self.cache.get(spec)
            if hit is not None:
                self.counters["cells_local_cache"] += 1
                return CellOutcome(
                    spec_hash=spec_hash, stats=hit, simulated=False
                )
            try:
                artifact = self.client.artifact(spec_hash)
                stats = RunStats.from_dict(artifact["stats"])
            except (ServeError, KeyError, TypeError, ValueError):
                pass  # not on the head either; simulate below
            else:
                self.cache.put(spec, stats)
                self.counters["cells_head_cache"] += 1
                return CellOutcome(
                    spec_hash=spec_hash, stats=stats, simulated=False
                )
        outcome = cell_outcome(
            spec,
            runner=self._runner,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )
        if outcome.error is None:
            if self.cache is not None:
                self.cache.put(spec, outcome.stats)
            self.counters["cells_simulated"] += 1
        return outcome

    # -- lease handling --------------------------------------------------------

    def _heartbeat_loop(self, grant: LeaseGrant, state: _BatchState) -> None:
        interval = max(0.05, grant.ttl_s / 3)
        failing_since: Optional[float] = None
        while not state.lost.wait(interval):
            try:
                self.client.heartbeat(grant.lease_id, grant.token)
            except ServeConnectionError:
                # The head is down, not the lease: a restarted head
                # restores the lease (fresh TTL) from its journal, so
                # keep executing and tolerate this within the grace.
                now = time.monotonic()
                if failing_since is None:
                    failing_since = now
                if now - failing_since >= self.head_outage_grace:
                    self.counters["leases_lost"] += 1
                    state.lost.set()
                    return
            except ServeError:
                # Definitive rejection (reaped lease, token mismatch):
                # stop starting new cells; cells already executing
                # still push (late results are accepted while the cell
                # is unresolved head-side).
                self.counters["leases_lost"] += 1
                state.lost.set()
                return
            except Exception as exc:
                # A heartbeat crash must not die silently: mark the
                # grant at-risk so the batch stops expanding and its
                # unstarted cells are released for an early re-lease.
                self.counters["heartbeat_errors"] += 1
                self._log(
                    f"heartbeat for {grant.lease_id} crashed: "
                    f"{type(exc).__name__}: {exc}; marking lease at risk"
                )
                state.lost.set()
                return
            else:
                failing_since = None

    def _buffer(self, grant: LeaseGrant, outcome: CellOutcome) -> None:
        with self._unpushed_lock:
            self._unpushed.append((grant.lease_id, grant.token, outcome))
        self.counters["results_buffered"] += 1
        self._log(
            f"buffered result for {outcome.spec_hash[:12]} "
            f"(head down; will re-push after reconnect)"
        )

    def _push_once(self, lease_id: str, token: str, outcome: CellOutcome):
        """One push and its counters: the ack, or None if rejected.
        Raises :class:`ServeConnectionError` while the head is down."""
        push = ResultPush(
            token=token, outcomes=(outcome,), worker_id=self.worker_id
        )
        try:
            ack = self.client.push_results(lease_id, push)
        except ServeConnectionError:
            raise
        except ServeError as exc:
            self._log(f"push rejected for {outcome.spec_hash[:12]}: {exc}")
            self.counters["push_rejected"] += 1
            return None
        key = "cells_done" if outcome.error is None else "cells_failed"
        self.counters[key] += 1
        return ack

    def _push(self, grant: LeaseGrant, outcome: CellOutcome,
              state: _BatchState) -> None:
        if self._head_down.is_set():
            return self._buffer(grant, outcome)
        try:
            ack = self._rpc(
                f"push {outcome.spec_hash[:12]}",
                lambda: self._push_once(grant.lease_id, grant.token, outcome),
            )
        except ServeConnectionError:
            return self._buffer(grant, outcome)
        if ack is None or not ack.lease_open:
            state.lost.set()

    def _flush_unpushed(self) -> None:
        """Re-push outcomes buffered while the head was unreachable."""
        while True:
            with self._unpushed_lock:
                if not self._unpushed:
                    return
                lease_id, token, outcome = self._unpushed[0]
            try:
                if self._push_once(lease_id, token, outcome) is not None:
                    self.counters["results_repushed"] += 1
            except ServeConnectionError:
                return  # still down; the lease loop keeps retrying
            with self._unpushed_lock:
                self._unpushed.pop(0)

    def _release(self, grant: LeaseGrant, spec_hashes: list[str]) -> None:
        """Give unstarted cells back so the head requeues them now."""
        try:
            ack = self._rpc(
                f"release {len(spec_hashes)} cell(s)",
                lambda: self.client.release(
                    grant.lease_id, grant.token, spec_hashes
                ),
                grace_s=min(5.0, self.head_outage_grace),
            )
        except ServeError as exc:
            # Reaped, restarted without this lease, or still down: the
            # head's lease TTL requeues these cells on its own.
            self._log(f"release failed for lease {grant.lease_id}: {exc}")
            return
        self.counters["cells_released"] += ack.released
        self._log(
            f"lease {grant.lease_id}: released {ack.released} "
            f"unstarted cell(s)"
        )

    def _run_batch(self, grant: LeaseGrant) -> None:
        self.counters["leases"] += 1
        state = _BatchState()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(grant, state),
            name=f"{self.worker_id}-heartbeat",
            daemon=True,
        )
        beat.start()
        unstarted: list[str] = []

        def run_cell(cell):
            # The pool may pick a queued cell up after the batch began
            # draining; refuse to start it (None = "never ran") so it is
            # released instead of racing future.cancel().
            if state.lost.is_set() or self._stop.is_set():
                return None
            return self._resolve_cell(cell.spec, cell.spec_hash)

        try:
            with ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix=f"{self.worker_id}-cell",
            ) as pool:
                submitted = []
                for cell in grant.cells:
                    if state.lost.is_set() or self._stop.is_set():
                        unstarted.append(cell.spec_hash)
                        continue
                    submitted.append((cell, pool.submit(run_cell, cell)))
                for cell, future in submitted:
                    draining = state.lost.is_set() or self._stop.is_set()
                    if draining and future.cancel():
                        unstarted.append(cell.spec_hash)
                        continue
                    outcome = future.result()
                    if outcome is None:
                        unstarted.append(cell.spec_hash)
                        continue
                    self._push(grant, outcome, state)
        finally:
            state.lost.set()  # stops the heartbeat thread
            beat.join(timeout=5.0)
        if unstarted:
            self._release(grant, unstarted)

    # -- main loop -------------------------------------------------------------

    def run(self, max_batches: Optional[int] = None) -> dict:
        """Pull-execute-push until stopped; returns the counters.

        ``max_batches`` bounds the number of *non-empty* grants (tests);
        None runs until :meth:`stop`/:meth:`drain`, ``drain_on_idle``
        seconds of continuous idleness, a head outage longer than
        ``head_outage_grace``, or the process dies.
        """
        health = self._rpc("protocol check", self.client.check_protocol)
        self._log(
            f"worker {self.worker_id}: attached to head "
            f"{self.client.host}:{self.client.port} "
            f"(protocol {health.get('protocol_version')}, "
            f"{self.jobs} local job(s), batch={self.lease_cells})"
        )
        batches = 0
        idle_since: Optional[float] = None
        try:
            while not self._stop.is_set():
                self._flush_unpushed()
                try:
                    grant = self._rpc("lease", lambda: self.client.lease(
                        self.worker_id, self.lease_cells
                    ))
                except ServeConnectionError as exc:
                    self._log(
                        f"head unreachable beyond the "
                        f"{self.head_outage_grace:.0f}s outage grace: "
                        f"{exc}; exiting"
                    )
                    break
                except ServeError as exc:
                    self._log(f"lease request failed: {exc}; retrying")
                    if self._stop.wait(max(self.poll_s, 1.0)):
                        break
                    continue
                if grant.is_empty:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.drain_on_idle is not None
                        and now - idle_since >= self.drain_on_idle
                        and not self._unpushed
                    ):
                        self._log(
                            f"idle for {self.drain_on_idle:.0f}s; draining"
                        )
                        break
                    wait_s = max(self.poll_s, jittered(grant.retry_after_s))
                    if self._stop.wait(wait_s):
                        break
                    continue
                idle_since = None
                self._log(
                    f"lease {grant.lease_id}: {len(grant.cells)} cell(s), "
                    f"ttl {grant.ttl_s:.1f}s"
                )
                self._run_batch(grant)
                batches += 1
                if max_batches is not None and batches >= max_batches:
                    break
        finally:
            self._flush_unpushed()
        return dict(self.counters)


def run_worker(head_url: str, **kwargs) -> dict:
    """Build and run one :class:`WorkerNode` (the CLI body).

    Installs a ``SIGTERM`` handler (main thread only) that drains the
    node gracefully: in-flight cells finish and push, unstarted lease
    cells are released back to the head's queue.
    """
    node = WorkerNode(head_url, **kwargs)
    previous = None
    try:
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: node.drain()
        )
    except ValueError:
        pass  # not on the main thread (embedded use): no handler
    try:
        return node.run()
    except KeyboardInterrupt:
        node.stop()
        return dict(node.counters)
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:
                pass

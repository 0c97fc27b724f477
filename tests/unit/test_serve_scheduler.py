"""Unit tests for the multi-tenant JobStore scheduler.

Cells are stubbed with injected runners (the head's pool threads call
them directly), so these tests pin the scheduling semantics — in-flight
dedup, per-tenant fairness, backpressure, structured failure kinds —
without simulating anything.  The HTTP layer is covered by
``tests/integration/test_serve.py``.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments import orchestrator
from repro.experiments.config import ExperimentScale
from repro.experiments.orchestrator import ResultCache
from repro.experiments.spec import SimSpec
from repro.serve.protocol import CellOutcome
from repro.serve.scheduler import JobStore, QueueFullError, cell_outcome

TINY = ExperimentScale(name="tiny", refs_per_cpu=50)


def make_spec(benchmark="art", **overrides) -> SimSpec:
    return SimSpec.make(
        Scheme.CMP_DNUCA_3D, benchmark, scale=TINY, **overrides
    )


def fake_stats(spec: SimSpec, latency: float = 42.0) -> RunStats:
    return RunStats(
        scheme=spec.scheme,
        avg_l2_hit_latency=latency,
        avg_l2_miss_latency=300.0,
        l2_hits=10,
        l2_misses=2,
        migrations=1,
        ipc=0.5,
        per_cpu_ipc=[0.5] * 8,
        l1_miss_rate=0.1,
        flit_hops=100.0,
        bus_flits=10.0,
        invalidations=0,
        instructions=1000.0,
        cycles=2000.0,
    )


class CountingRunner:
    """Thread-safe runner stub with an optional release gate."""

    def __init__(self, gated: bool = False, fail_for: str = ""):
        self.calls: list[SimSpec] = []
        self.order: list[str] = []
        self._lock = threading.Lock()
        self._gate = threading.Event()
        self.fail_for = fail_for
        if not gated:
            self._gate.set()

    def release(self):
        self._gate.set()

    def __call__(self, spec: SimSpec) -> RunStats:
        with self._lock:
            self.calls.append(spec)
            self.order.append(spec.benchmark)
        assert self._gate.wait(timeout=30.0), "gate never released"
        if self.fail_for and spec.benchmark == self.fail_for:
            raise RuntimeError(f"boom on {spec.benchmark}")
        return fake_stats(spec)


def run(coro):
    return asyncio.run(coro)


async def started_store(**kwargs) -> JobStore:
    defaults = dict(workers=1, use_cache=False)
    defaults.update(kwargs)
    store = JobStore(**defaults)
    await store.start()
    return store


class TestLifecycle:
    def test_submit_before_start_rejected(self):
        async def scenario():
            store = JobStore(runner=fake_stats)
            with pytest.raises(RuntimeError, match="not running"):
                await store.submit([make_spec()])

        run(scenario())

    def test_job_completes_with_counters(self):
        async def scenario():
            runner = CountingRunner()
            store = await started_store(runner=runner)
            try:
                job = await store.submit(
                    [make_spec(), make_spec(benchmark="swim")], tenant="a"
                )
                snapshot = await job.wait()
            finally:
                await store.close()
            return snapshot, runner

        snapshot, runner = run(scenario())
        assert snapshot["state"] == "done"
        assert snapshot["cells"] == 2
        assert snapshot["simulated"] == 2
        assert (snapshot["failed"], snapshot["deduped"]) == (0, 0)
        assert len(runner.calls) == 2

    def test_empty_grid_completes_immediately(self):
        async def scenario():
            store = await started_store(runner=fake_stats)
            try:
                job = await store.submit([], tenant="a")
                assert job.is_done
                return store.totals["jobs_done"]
            finally:
                await store.close()

        assert run(scenario()) == 1


class TestCacheIntegration:
    def test_cache_hits_resolve_at_submit(self, tmp_path):
        spec = make_spec()
        ResultCache(str(tmp_path)).put(spec, fake_stats(spec))

        async def scenario():
            runner = CountingRunner()
            store = await started_store(
                runner=runner, use_cache=True, cache_dir=str(tmp_path)
            )
            try:
                job = await store.submit([spec], tenant="a")
                assert job.is_done  # resolved synchronously at submit
                return job.snapshot(), runner
            finally:
                await store.close()

        snapshot, runner = run(scenario())
        assert snapshot["cached"] == 1
        assert runner.calls == []
        assert snapshot["cells_detail"][0]["origin"] == "cached"

    def test_simulated_cells_are_persisted(self, tmp_path):
        spec = make_spec()

        async def scenario():
            store = await started_store(
                runner=fake_stats, use_cache=True, cache_dir=str(tmp_path)
            )
            try:
                job = await store.submit([spec], tenant="a")
                await job.wait()
            finally:
                await store.close()

        run(scenario())
        hit = ResultCache(str(tmp_path)).get(spec)
        assert hit is not None
        assert hit.to_dict() == fake_stats(spec).to_dict()


class TestInFlightDedup:
    def test_two_tenants_identical_grid_simulates_once(self):
        """The satellite contract: one simulated cell, two delivered results."""
        grid = [make_spec(), make_spec(benchmark="swim")]

        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner, workers=2)
            try:
                job_a = await store.submit(grid, tenant="tenant-a")
                job_b = await store.submit(grid, tenant="tenant-b")
                runner.release()
                snap_a, snap_b = await asyncio.gather(
                    job_a.wait(), job_b.wait()
                )
                totals = dict(store.totals)
            finally:
                await store.close()
            return snap_a, snap_b, totals, runner

        snap_a, snap_b, totals, runner = run(scenario())
        # Exactly one execution per distinct spec...
        assert len(runner.calls) == 2
        assert totals["cells_simulated"] == 2
        assert totals["cells_deduped"] == 2
        # ...and both tenants got every result.
        for snapshot in (snap_a, snap_b):
            assert snapshot["state"] == "done"
            assert snapshot["done"] == 2
            assert snapshot["failed"] == 0
        assert snap_a["simulated"] + snap_b["simulated"] == 2
        assert snap_a["deduped"] + snap_b["deduped"] == 2

    def test_duplicate_specs_within_one_job(self):
        async def scenario():
            runner = CountingRunner()
            store = await started_store(runner=runner)
            try:
                job = await store.submit(
                    [make_spec(), make_spec()], tenant="a"
                )
                snapshot = await job.wait()
            finally:
                await store.close()
            return snapshot, runner

        snapshot, runner = run(scenario())
        assert len(runner.calls) == 1
        assert snapshot["done"] == 2
        assert snapshot["simulated"] == 1
        assert snapshot["deduped"] == 1

    def test_deduped_failure_reaches_all_subscribers(self):
        async def scenario():
            runner = CountingRunner(gated=True, fail_for="art")
            store = await started_store(runner=runner)
            try:
                job_a = await store.submit([make_spec()], tenant="a")
                job_b = await store.submit([make_spec()], tenant="b")
                runner.release()
                await asyncio.gather(job_a.wait(), job_b.wait())
                return job_a.results_dict(), job_b.results_dict()
            finally:
                await store.close()

        results_a, results_b = run(scenario())
        for body in (results_a, results_b):
            assert body["failed"] == 1
            assert body["failures"][0]["error"]["kind"] == "error"
            assert "boom" in body["failures"][0]["error"]["message"]


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self):
        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner, max_pending=1)
            try:
                await store.submit([make_spec()], tenant="a")
                with pytest.raises(QueueFullError) as excinfo:
                    await store.submit(
                        [make_spec(benchmark="swim")], tenant="b"
                    )
                rejected = store.totals["submissions_rejected"]
                # Dedup submissions are always admitted: no new capacity.
                job = await store.submit([make_spec()], tenant="c")
                runner.release()
                await job.wait()
                # Queue drained: the spec that was rejected now fits.
                retry = await store.submit(
                    [make_spec(benchmark="swim")], tenant="b"
                )
                await retry.wait()
            finally:
                await store.close()
            return excinfo.value, rejected

        error, rejected = run(scenario())
        assert error.retry_after_s >= 1.0
        assert error.limit == 1
        assert rejected == 1

    def test_rejected_submission_leaves_no_state(self):
        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner, max_pending=1)
            try:
                await store.submit([make_spec()], tenant="a")
                jobs_before = store.totals["jobs_submitted"]
                with pytest.raises(QueueFullError):
                    await store.submit(
                        [make_spec(benchmark="swim"),
                         make_spec(benchmark="mgrid")],
                        tenant="b",
                    )
                runner.release()
                return (
                    store.totals["jobs_submitted"] - jobs_before,
                    store.pending_cells,
                    len(runner.calls),
                )
            finally:
                await store.close()

        new_jobs, pending, started = run(scenario())
        assert new_jobs == 0
        assert pending == 1  # only tenant a's cell


class TestFairQueuing:
    def test_round_robin_across_tenants(self):
        """A small tenant's cell runs before a big tenant's backlog."""

        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner, workers=1)
            try:
                big = await store.submit(
                    [make_spec(), make_spec(benchmark="swim"),
                     make_spec(benchmark="mgrid")],
                    tenant="big",
                )
                small = await store.submit(
                    [make_spec(benchmark="applu")], tenant="small"
                )
                runner.release()
                await asyncio.gather(big.wait(), small.wait())
            finally:
                await store.close()
            return runner.order

        order = run(scenario())
        # big's first cell starts immediately (the worker was idle); the
        # rotation then grants small's cell before big's backlog.
        assert order[0] == "art"
        assert order.index("applu") < order.index("swim")
        assert order.index("applu") < order.index("mgrid")


class TestFailureKinds:
    def test_structured_kind_propagates(self):
        class Stalled(RuntimeError):
            failure_kind = "deadlock"

        def deadlocking(spec):
            raise Stalled("no forward progress")

        async def scenario():
            store = await started_store(runner=deadlocking)
            try:
                job = await store.submit([make_spec()], tenant="a")
                snapshot = await job.wait()
                return snapshot, job.results_dict(), dict(store.totals)
            finally:
                await store.close()

        snapshot, results, totals = run(scenario())
        assert snapshot["failure_kinds"] == {"deadlock": 1}
        assert results["failures"][0]["error"]["kind"] == "deadlock"
        assert totals["failure_kinds"] == {"deadlock": 1}
        assert totals["cells_failed"] == 1


def _exploding(spec):
    raise ValueError("bad cell")


def _crashing(spec):
    os._exit(3)


def _hanging(spec):
    time.sleep(60.0)


class TestCellOutcomeInProcesses:
    """``cell_outcome`` without a runner: the worker-process path.

    The child is forked, so it sees ``run_spec`` patched in the
    orchestrator module, as the sweep's process tests do.
    """

    def test_raising_cell_is_an_error(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "run_spec", _exploding)
        outcome = cell_outcome(make_spec())
        assert outcome.stats is None
        assert outcome.error["kind"] == "error"
        assert "bad cell" in outcome.error["message"]
        assert outcome.error["attempts"] == 1

    def test_exiting_cell_is_a_crash_after_every_retry(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "run_spec", _crashing)
        outcome = cell_outcome(make_spec(), retries=2)
        assert outcome.error["kind"] == "crash"
        assert outcome.error["attempts"] == 3

    def test_hanging_cell_times_out(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "run_spec", _hanging)
        outcome = cell_outcome(make_spec(), timeout_s=0.5, retries=0)
        assert outcome.error["kind"] == "timeout"
        assert outcome.error["attempts"] == 1

    def test_result_comes_back(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "run_spec", fake_stats)
        spec = make_spec()
        outcome = cell_outcome(spec)
        assert outcome.error is None
        assert outcome.spec_hash == spec.spec_hash()
        assert outcome.stats.to_dict() == fake_stats(spec).to_dict()


class TestEvents:
    def test_stream_replays_then_follows(self):
        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner)
            try:
                job = await store.submit([make_spec()], tenant="a")

                async def collect():
                    return [event async for event in job.events()]

                collector = asyncio.create_task(collect())
                await asyncio.sleep(0.05)
                runner.release()
                await job.wait()
                return await asyncio.wait_for(collector, timeout=10.0)
            finally:
                await store.close()

        events = run(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job"
        assert kinds[-1] == "done"
        states = [
            event["state"] for event in events if event["event"] == "cell"
        ]
        assert states == ["running", "done"]
        done_cell = [
            event for event in events
            if event["event"] == "cell" and event["state"] == "done"
        ][0]
        assert done_cell["origin"] == "simulated"
        assert "stats" in done_cell

    def test_stream_after_completion_replays_everything(self):
        async def scenario():
            store = await started_store(runner=fake_stats)
            try:
                job = await store.submit([make_spec()], tenant="a")
                await job.wait()
                return [event async for event in job.events()]
            finally:
                await store.close()

        events = run(scenario())
        assert events[0]["event"] == "job"
        assert events[-1]["event"] == "done"


class TestLocalLeases:
    """The head's own pool runs cells as local leases: never reaped,
    never charged a worker attempt, invisible to the remote counters."""

    def test_slow_local_cell_outlives_the_lease_ttl(self):
        def slow(spec):
            time.sleep(0.5)  # ten reaper sweeps at this TTL
            return fake_stats(spec)

        async def scenario():
            store = await started_store(runner=slow, lease_ttl_s=0.1)
            try:
                job = await store.submit([make_spec()], tenant="a")
                snapshot = await asyncio.wait_for(job.wait(), timeout=10.0)
                return snapshot, store.stats_dict()
            finally:
                await store.close()

        snapshot, stats = run(scenario())
        assert (snapshot["simulated"], snapshot["failed"]) == (1, 0)
        assert stats["failure_kinds"] == {}
        assert stats["leases_reaped"] == stats["cells_requeued"] == 0
        assert stats["leases_granted"] == stats["cells_remote"] == 0
        assert stats["leases_open"] == 0

    def test_local_slot_does_not_charge_worker_attempts(self):
        async def scenario():
            runner = CountingRunner(gated=True)
            store = await started_store(runner=runner)
            try:
                await store.submit([make_spec()], tenant="a")
                for __ in range(100):
                    if runner.calls:
                        break
                    await asyncio.sleep(0.01)
                (entry,) = store._inflight.values()
                running = entry.worker_attempts, store.stats_dict()
                runner.release()
                return running
            finally:
                await store.close()

        attempts, stats = run(scenario())
        assert attempts == 0
        assert stats["leases_open"] == 0  # local slots are not leases_open
        assert stats["pending_cells"] == 1


    def test_unwritable_cache_fails_the_cell_instead_of_hanging(
        self, tmp_path
    ):
        async def scenario():
            store = await started_store(
                runner=fake_stats, use_cache=True, cache_dir=str(tmp_path)
            )

            def full_disk(spec, stats):
                raise OSError(28, "No space left on device")

            store.cache.put = full_disk
            try:
                job = await store.submit([make_spec()], tenant="a")
                await asyncio.wait_for(job.wait(), timeout=10.0)
                return job.results_dict()
            finally:
                await store.close()

        results = run(scenario())
        assert results["failed"] == 1
        error = results["failures"][0]["error"]
        assert error["kind"] == "error"
        assert "cache write failed" in error["message"]


def outcome_for(spec: SimSpec, error: dict = None) -> CellOutcome:
    """A remote-worker outcome as push_results consumes it."""
    if error is not None:
        return CellOutcome(spec_hash=spec.spec_hash(), error=error)
    return CellOutcome(spec_hash=spec.spec_hash(), stats=fake_stats(spec))


async def head_only_store(**kwargs) -> JobStore:
    """A store with no local execution: cells wait for remote leases."""
    defaults = dict(workers=0, use_cache=False, lease_ttl_s=30.0)
    defaults.update(kwargs)
    store = JobStore(**defaults)
    await store.start()
    return store


class TestLeases:
    def test_grant_pops_queue_and_marks_running(self):
        async def scenario():
            store = await head_only_store()
            try:
                grid = [make_spec(), make_spec(benchmark="swim")]
                job = await store.submit(grid, tenant="a")
                lease = store.grant_lease("w1", max_cells=8)
                assert lease is not None
                assert len(lease.entries) == 2
                assert store.grant_lease("w1") is None  # queue drained
                states = [
                    (cell.state, cell.worker) for cell in job.cells
                ]
                return states, dict(store.totals), store.stats_dict()
            finally:
                await store.close()

        states, totals, stats = run(scenario())
        assert states == [("running", "w1"), ("running", "w1")]
        assert totals["leases_granted"] == 1
        assert stats["leases_open"] == 1

    def test_push_results_completes_job_and_replicates(self, tmp_path):
        async def scenario():
            store = await head_only_store(
                use_cache=True, cache_dir=str(tmp_path)
            )
            try:
                spec = make_spec()
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                ack = store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec)], worker_id="w1",
                )
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
                return ack, job.snapshot(), dict(store.totals)
            finally:
                await store.close()

        ack, snapshot, totals = run(scenario())
        assert ack == {"accepted": 1, "stale": 0, "lease_open": False}
        assert snapshot["state"] == "done"
        assert snapshot["simulated"] == 1
        assert totals["cells_remote"] == 1
        # Artifact replication: the pushed result is now in the head's
        # cache and serves future submissions without simulation.
        hit = ResultCache(str(tmp_path)).get(make_spec())
        assert hit is not None

    def test_reaped_lease_requeues_cells_exactly_once(self):
        """The satellite contract: one reap -> one requeue per cell."""

        async def scenario():
            store = await head_only_store(worker_retries=1)
            try:
                grid = [make_spec(), make_spec(benchmark="swim")]
                job = await store.submit(grid, tenant="a")
                lease = store.grant_lease("w1", max_cells=8)
                deadline = lease.deadline

                requeued = store.reap_expired(now=deadline + 1.0)
                assert requeued == 2
                # A second sweep past the same deadline must be a no-op:
                # the lease is gone, the cells are queued, not leased.
                assert store.reap_expired(now=deadline + 2.0) == 0

                states = [cell.state for cell in job.cells]
                assert states == ["queued", "queued"]
                assert all(cell.worker is None for cell in job.cells)

                # The requeued cells are grantable again, with the
                # attempt counter advanced.
                retry = store.grant_lease("w2", max_cells=8)
                assert len(retry.entries) == 2
                attempts = [
                    entry.worker_attempts
                    for entry in retry.entries.values()
                ]
                return dict(store.totals), attempts
            finally:
                await store.close()

        totals, attempts = run(scenario())
        assert totals["cells_requeued"] == 2
        assert totals["leases_reaped"] == 1
        assert attempts == [2, 2]

    def test_worker_lost_after_retry_exhaustion(self):
        async def scenario():
            store = await head_only_store(worker_retries=1)
            try:
                job = await store.submit([make_spec()], tenant="a")
                for worker in ("w1", "w2"):
                    lease = store.grant_lease(worker)
                    assert lease is not None
                    store.reap_expired(now=lease.deadline + 1.0)
                snapshot = await asyncio.wait_for(job.wait(), timeout=5.0)
                return snapshot, job.results_dict(), dict(store.totals)
            finally:
                await store.close()

        snapshot, results, totals = run(scenario())
        assert snapshot["failed"] == 1
        error = results["failures"][0]["error"]
        assert error["kind"] == "worker_lost"
        assert error["attempts"] == 2
        assert "w2" in error["message"]
        assert snapshot["failure_kinds"] == {"worker_lost": 1}
        assert totals["failure_kinds"] == {"worker_lost": 1}
        assert totals["cells_requeued"] == 1  # only the first reap requeued

    def test_late_push_from_reaped_lease_still_resolves(self):
        """A worker that outlives its lease does not waste its work."""

        async def scenario():
            store = await head_only_store(worker_retries=5)
            try:
                spec = make_spec()
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.reap_expired(now=lease.deadline + 1.0)  # requeued

                ack = store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec)], worker_id="w1",
                )
                snapshot = await asyncio.wait_for(job.wait(), timeout=5.0)
                # The requeued copy must be gone: nothing left to grant.
                assert store.grant_lease("w2") is None
                return ack, snapshot
            finally:
                await store.close()

        ack, snapshot = run(scenario())
        assert ack["accepted"] == 1
        assert ack["lease_open"] is False  # reaped leases stay closed
        assert snapshot["state"] == "done"
        assert snapshot["failed"] == 0

    def test_duplicate_push_is_stale(self):
        async def scenario():
            store = await head_only_store()
            try:
                spec = make_spec()
                await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                first = store.push_results(
                    lease.lease_id, lease.token, [outcome_for(spec)]
                )
                second = store.push_results(
                    lease.lease_id, lease.token, [outcome_for(spec)]
                )
                return first, second, dict(store.totals)
            finally:
                await store.close()

        first, second, totals = run(scenario())
        assert first["accepted"] == 1
        assert second == {"accepted": 0, "stale": 1, "lease_open": False}
        assert totals["results_stale"] == 1

    def test_heartbeat_extends_and_validates_token(self):
        from repro.serve.scheduler import UnknownLeaseError

        async def scenario():
            store = await head_only_store()
            try:
                await store.submit([make_spec()], tenant="a")
                lease = store.grant_lease("w1")
                before = lease.deadline
                await asyncio.sleep(0.01)
                extended = store.heartbeat(lease.lease_id, lease.token)
                assert extended.deadline > before
                with pytest.raises(UnknownLeaseError):
                    store.heartbeat(lease.lease_id, "forged-token")
                with pytest.raises(UnknownLeaseError):
                    store.heartbeat("l-nope", lease.token)
            finally:
                await store.close()

        run(scenario())

    def test_remote_failure_outcome_is_structured(self):
        async def scenario():
            store = await head_only_store()
            try:
                spec = make_spec()
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec, error={
                        "kind": "timeout",
                        "message": "cell exceeded 1.0s",
                        "attempts": 2,
                    })],
                )
                snapshot = await asyncio.wait_for(job.wait(), timeout=5.0)
                return snapshot, job.results_dict()
            finally:
                await store.close()

        snapshot, results = run(scenario())
        assert snapshot["failure_kinds"] == {"timeout": 1}
        assert results["failures"][0]["error"]["attempts"] == 2

    def test_head_only_store_validates_and_idles(self):
        with pytest.raises(ValueError, match=">= 0"):
            JobStore(workers=-1)
        with pytest.raises(ValueError, match="lease_ttl_s"):
            JobStore(lease_ttl_s=0)

        async def scenario():
            store = await head_only_store()
            try:
                job = await store.submit([make_spec()], tenant="a")
                await asyncio.sleep(0.05)  # no local workers may run it
                return [cell.state for cell in job.cells], store.workers
            finally:
                await store.close()

        states, workers = run(scenario())
        assert workers == 0
        assert states == ["queued"]

    def test_reaper_task_requeues_in_background(self):
        """The asyncio reaper converts expiry to requeue without help."""

        async def scenario():
            store = await head_only_store(lease_ttl_s=0.1)
            try:
                await store.submit([make_spec()], tenant="a")
                lease = store.grant_lease("w1")
                assert lease is not None
                for __ in range(100):
                    if store.totals["leases_reaped"]:
                        break
                    await asyncio.sleep(0.05)
                return dict(store.totals)
            finally:
                await store.close()

        totals = run(scenario())
        assert totals["leases_reaped"] == 1
        assert totals["cells_requeued"] == 1

"""Unit tests for the durable head journal and JobStore recovery.

Every scenario builds a store on a temp cache dir, mutates it, tears it
down (or leaves the journal mid-flight), and boots a *fresh* store on
the same dir — recovery must rebuild jobs, queues, leases, and
cumulative totals from the journal plus the content-addressed cache,
and compaction must shrink the journal without changing any of it.
"""

import asyncio
import json
import os
import shutil
import threading

import pytest

from repro.serve.journal import JOURNAL_NAME, Journal
from repro.serve.scheduler import (
    RECOVERY_COUNTERS,
    JobStore,
    UnknownLeaseError,
)
from tests.unit.test_serve_scheduler import (
    fake_stats,
    make_spec,
    outcome_for,
    run,
)


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def journal_path(tmp_path) -> str:
    return str(tmp_path / JOURNAL_NAME)


def read_records(tmp_path) -> list:
    with open(journal_path(tmp_path)) as handle:
        return [json.loads(line) for line in handle if line.strip()]


async def fresh_store(tmp_path, **kwargs) -> JobStore:
    """Boot (or re-boot) a journaled head-only store on tmp_path."""
    defaults = dict(
        workers=0, use_cache=True, cache_dir=str(tmp_path), lease_ttl_s=30.0
    )
    defaults.update(kwargs)
    store = JobStore(**defaults)
    await store.start()
    return store


class TestJournalFile:
    def test_append_load_roundtrip(self, tmp_path):
        journal = Journal(journal_path(tmp_path), fsync_every=2)
        journal.append({"rec": "a", "n": 1})
        journal.append({"rec": "b"}, {"rec": "c"})
        journal.close()
        assert Journal(journal_path(tmp_path)).load() == [
            {"rec": "a", "n": 1}, {"rec": "b"}, {"rec": "c"},
        ]

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(journal_path(tmp_path))
        assert journal.load() == []
        journal.close()

    def test_torn_tail_truncated_with_warning(self, tmp_path):
        journal = Journal(journal_path(tmp_path))
        journal.append({"rec": "a"}, {"rec": "b"})
        journal.close()
        with open(journal_path(tmp_path), "ab") as handle:
            handle.write(b'{"rec": "torn", "x"')  # crash mid-append
        reloaded = Journal(journal_path(tmp_path))
        with pytest.warns(RuntimeWarning, match="torn or corrupt tail"):
            records = reloaded.load()
        assert records == [{"rec": "a"}, {"rec": "b"}]
        # The file itself was repaired: a second load is clean.
        reloaded.close()
        assert Journal(journal_path(tmp_path)).load() == records

    def test_garbage_line_drops_line_and_rest(self, tmp_path):
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(b'{"rec": "a"}\nnot json\n{"rec": "b"}\n')
        journal = Journal(journal_path(tmp_path))
        with pytest.warns(RuntimeWarning):
            records = journal.load()
        journal.close()
        assert records == [{"rec": "a"}]

    def test_rewrite_replaces_contents(self, tmp_path):
        journal = Journal(journal_path(tmp_path))
        journal.append({"rec": "old"})
        journal.rewrite([{"rec": "new"}])
        journal.append({"rec": "tail"})
        journal.close()
        assert [r["rec"] for r in read_records(tmp_path)] == ["new", "tail"]
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]


class TestRecovery:
    def test_resolved_cells_reserved_from_cache(self, tmp_path):
        """A done job survives a restart without re-execution."""
        spec = make_spec()

        async def before():
            store = await fresh_store(tmp_path)
            try:
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec)], worker_id="w1",
                )
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
                return job.job_id
            finally:
                await store.close()

        async def after(job_id):
            store = await fresh_store(tmp_path)
            try:
                job = store._jobs[job_id]
                snapshot = job.snapshot()
                return snapshot, dict(store.totals), job.results_dict()
            finally:
                await store.close()

        job_id = run(before())
        snapshot, totals, results = run(after(job_id))
        assert snapshot["state"] == "done"
        assert snapshot["failed"] == 0
        assert totals["jobs_recovered"] == 1
        assert totals["cells_requeued_on_recovery"] == 0
        # Cumulative across the restart: the cell still counts once.
        assert totals["cells_simulated"] == 1
        assert totals["jobs_submitted"] == 1
        assert results["results"][0]["stats"] is not None

    def test_unresolved_cells_requeued(self, tmp_path):
        specs = [make_spec(), make_spec(benchmark="swim")]

        async def before():
            store = await fresh_store(tmp_path)
            try:
                await store.submit(specs, tenant="a")
            finally:
                await store.close()

        async def after():
            store = await fresh_store(tmp_path)
            try:
                lease = store.grant_lease("w2", max_cells=8)
                leased = len(lease.entries) if lease else 0
                return dict(store.totals), leased, store.stats_dict()
            finally:
                await store.close()

        run(before())
        totals, leased, stats = run(after())
        assert totals["jobs_recovered"] == 1
        assert totals["cells_requeued_on_recovery"] == 2
        assert leased == 2  # requeued cells are leasable immediately
        assert stats["journal_enabled"] is True

    def test_job_holding_a_chip_that_does_not_place_is_dropped(
        self, tmp_path
    ):
        # A journal written before specs checked their chip can hold a
        # three-layer cell; recovery drops its job as unreadable.
        async def before():
            store = await fresh_store(tmp_path)
            try:
                return (await store.submit([make_spec()], tenant="a")).job_id
            finally:
                await store.close()

        job_id = run(before())
        records = read_records(tmp_path)
        for record in records:
            for spec in record.get("specs") or ():
                spec["layers"] = 3
        with open(journal_path(tmp_path), "w") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in records)

        async def after():
            store = await fresh_store(tmp_path)
            try:
                return job_id in store._jobs, dict(store.totals)
            finally:
                await store.close()

        recovered, totals = run(after())
        assert not recovered
        assert totals["jobs_recovered"] == 0

    def test_failed_cells_recover_as_failed(self, tmp_path):
        spec = make_spec()
        error = {"kind": "worker_crash", "message": "boom", "attempts": 2}

        async def before():
            store = await fresh_store(tmp_path, worker_retries=0)
            try:
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec, error=error)], worker_id="w1",
                )
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
                return job.job_id
            finally:
                await store.close()

        async def after(job_id):
            store = await fresh_store(tmp_path, worker_retries=0)
            try:
                snapshot = store._jobs[job_id].snapshot()
                return snapshot, dict(store.totals)
            finally:
                await store.close()

        job_id = run(before())
        snapshot, totals = run(after(job_id))
        assert snapshot["state"] == "done"
        assert snapshot["failed"] == 1
        assert totals["cells_failed"] == 1
        assert totals["failure_kinds"].get("worker_crash") == 1

    def test_missing_artifact_requeues_cell(self, tmp_path):
        """A journaled ok-resolve whose artifact vanished re-executes."""
        spec = make_spec()

        async def before():
            store = await fresh_store(tmp_path)
            try:
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec)], worker_id="w1",
                )
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
                return store.cache._path(spec.spec_hash())
            finally:
                await store.close()

        async def after():
            store = await fresh_store(tmp_path)
            try:
                return dict(store.totals)
            finally:
                await store.close()

        artifact = run(before())
        os.unlink(artifact)
        totals = run(after())
        assert totals["cells_requeued_on_recovery"] == 1

    def test_open_lease_restored_and_late_push_accepted(self, tmp_path):
        spec = make_spec()

        async def before():
            store = await fresh_store(tmp_path)
            try:
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                return job.job_id, lease.lease_id, lease.token
            finally:
                await store.close()

        async def after(job_id, lease_id, token):
            store = await fresh_store(tmp_path)
            try:
                restored = dict(store.totals)
                # The pre-restart worker pushes with its old credentials.
                ack = store.push_results(
                    lease_id, token, [outcome_for(spec)], worker_id="w1"
                )
                job = store._jobs[job_id]
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
                return restored, ack, job.snapshot()
            finally:
                await store.close()

        job_id, lease_id, token = run(before())
        restored, ack, snapshot = run(after(job_id, lease_id, token))
        assert restored["leases_restored"] == 1
        assert restored["cells_requeued_on_recovery"] == 0
        assert ack["accepted"] == 1
        assert snapshot["state"] == "done"

    def test_local_cell_running_at_crash_requeues_at_once(self, tmp_path):
        """The head's own pool journals no lease, so a cell it was
        running when the head died is requeued by recovery right away —
        no lease TTL to wait out, no retry attempt spent."""
        spec = make_spec()
        crashed = tmp_path / "crashed"

        async def scenario():
            gate = threading.Event()

            def blocked(spec):
                gate.wait(timeout=30.0)
                return fake_stats(spec)

            head = await fresh_store(
                tmp_path / "live", workers=1, runner=blocked
            )
            try:
                job = await head.submit([spec], tenant="a")
                for __ in range(100):
                    if job.cells[0].state == "running":
                        break
                    await asyncio.sleep(0.01)
                # The crash: a new head boots from the journal exactly
                # as the running one left it.
                shutil.copytree(tmp_path / "live", crashed)
                journaled = [r["rec"] for r in read_records(crashed)]
                restarted = await fresh_store(crashed, lease_ttl_s=3600.0)
                try:
                    lease = restarted.grant_lease("w2")
                    return job.cells[0].state, journaled, restarted, lease
                finally:
                    await restarted.close()
            finally:
                gate.set()
                await head.close()

        state, journaled, restarted, lease = run(scenario())
        totals = restarted.totals
        assert state == "running"
        assert journaled == ["job"]
        assert totals["cells_requeued_on_recovery"] == 1
        assert totals["leases_restored"] == 0
        assert lease is not None and len(lease.entries) == 1
        (entry,) = lease.entries.values()
        assert entry.worker_attempts == 1  # w2's grant is the first charge

    def test_recovery_survives_torn_tail(self, tmp_path):
        spec = make_spec()

        async def before():
            store = await fresh_store(tmp_path)
            try:
                await store.submit([spec], tenant="a")
            finally:
                await store.close()

        async def after():
            store = JobStore(
                workers=0, use_cache=True, cache_dir=str(tmp_path),
                lease_ttl_s=30.0,
            )
            with pytest.warns(RuntimeWarning, match="torn or corrupt"):
                await store.start()
            try:
                return dict(store.totals)
            finally:
                await store.close()

        run(before())
        with open(journal_path(tmp_path), "ab") as handle:
            handle.write(b'{"rec": "resolve", "spec_hash')  # torn append
        totals = run(after())
        assert totals["jobs_recovered"] == 1
        assert totals["cells_requeued_on_recovery"] == 1

    def test_journal_disabled_without_cache(self):
        async def scenario():
            store = JobStore(workers=0, use_cache=False)
            await store.start()
            try:
                return store.stats_dict()
            finally:
                await store.close()

        stats = run(scenario())
        assert stats["journal_enabled"] is False
        assert stats["journal_path"] is None


class TestJournalFormatCompatibility:
    """``fixtures/journal_v1`` is a head directory (journal plus cache
    artifacts) written by the head revision that predates the shared
    codec and the lease-consuming local pool.  It holds every record kind
    — a compaction ``totals`` baseline and ``attempts`` floor, an open
    lease, remote, local, cached, deduped and failed resolves, a release
    and a closed lease — and ``journal_v1_expected.json`` records the
    ``/stats`` and job snapshots that revision recovered from it."""

    @staticmethod
    def boot(cache_dir) -> tuple:
        async def scenario():
            store = await fresh_store(cache_dir, worker_retries=1)
            try:
                stats = store.stats_dict()
                stats.pop("journal_path")
                jobs = {
                    job_id: {
                        key: value
                        for key, value in job.snapshot(detail=False).items()
                        if key not in ("created_at", "elapsed_s")
                    }
                    for job_id, job in store._jobs.items()
                }
                return stats, jobs
            finally:
                await store.close()

        return run(scenario())

    def test_recovers_to_the_recorded_stats(self, tmp_path):
        shutil.copytree(os.path.join(FIXTURES, "journal_v1"), tmp_path / "h")
        with open(os.path.join(FIXTURES, "journal_v1_expected.json")) as f:
            expected = json.load(f)
        stats, jobs = self.boot(tmp_path / "h")
        assert stats == expected["stats"]
        assert jobs == expected["jobs"]
        # The new head compacted the journal at boot; booting again from
        # its rewrite keeps every cumulative total.
        again, __ = self.boot(tmp_path / "h")
        for key in RECOVERY_COUNTERS:
            again.pop(key), stats.pop(key)
        assert again == stats


class TestCompaction:
    def test_start_compacts_resolved_jobs_but_keeps_totals(self, tmp_path):
        spec = make_spec()

        async def before():
            store = await fresh_store(tmp_path)
            try:
                job = await store.submit([spec], tenant="a")
                lease = store.grant_lease("w1")
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(spec)], worker_id="w1",
                )
                assert await asyncio.wait_for(job.wait(), timeout=5.0)
            finally:
                await store.close()

        async def boot():
            store = await fresh_store(tmp_path)
            try:
                return dict(store.totals)
            finally:
                await store.close()

        run(before())
        totals_1 = run(boot())  # start() recovers, then compacts
        records = read_records(tmp_path)
        # The done job was dropped: only the totals baseline remains.
        assert [r["rec"] for r in records] == ["totals"]
        totals_2 = run(boot())  # and the baseline keeps counting
        for totals in (totals_1, totals_2):
            assert totals["cells_simulated"] == 1
            assert totals["jobs_submitted"] == 1
            assert totals["cells_remote"] == 1
        assert totals_2["jobs_recovered"] == 0

    def test_open_jobs_survive_compaction(self, tmp_path):
        done_spec = make_spec()
        open_spec = make_spec(benchmark="swim")

        async def before():
            store = await fresh_store(tmp_path)
            try:
                done_job = await store.submit([done_spec], tenant="a")
                await store.submit([open_spec], tenant="a")
                lease = store.grant_lease("w1", max_cells=1)
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(done_spec)], worker_id="w1",
                )
                assert await asyncio.wait_for(done_job.wait(), timeout=5.0)
            finally:
                await store.close()

        async def after():
            store = await fresh_store(tmp_path)
            try:
                return dict(store.totals), len(store._jobs)
            finally:
                await store.close()

        run(before())
        totals, jobs_alive = run(after())
        # Both jobs recovered into memory (the done one stays
        # queryable), but the compacted journal only carries the open
        # one forward — the done job is now baseline totals.
        assert jobs_alive == 2
        assert totals["jobs_recovered"] == 2
        assert totals["cells_requeued_on_recovery"] == 1
        assert totals["cells_simulated"] == 1
        assert totals["jobs_submitted"] == 2
        records = read_records(tmp_path)
        assert [r["rec"] for r in records].count("job") == 1
        kept = [r for r in records if r["rec"] == "job"]
        assert kept[0]["specs"][0]["benchmark"] == "swim"


class TestReleaseCells:
    def test_release_requeues_and_refunds_attempt(self, tmp_path):
        async def scenario():
            store = await fresh_store(tmp_path)
            try:
                specs = [make_spec(), make_spec(benchmark="swim")]
                job = await store.submit(specs, tenant="a")
                lease = store.grant_lease("w1", max_cells=8)
                done_spec = specs[0]
                store.push_results(
                    lease.lease_id, lease.token,
                    [outcome_for(done_spec)], worker_id="w1",
                )
                outcome = store.release_cells(lease.lease_id, lease.token)
                requeued = store.grant_lease("w2", max_cells=8)
                states = [cell.state for cell in job.cells]
                attempts = [
                    entry.worker_attempts
                    for entry in requeued.entries.values()
                ]
                return outcome, states, attempts, dict(store.totals)
            finally:
                await store.close()

        outcome, states, attempts, totals = run(scenario())
        assert outcome == {"released": 1, "lease_open": False}
        assert states == ["done", "running"]
        # The release refunded w1's grant, so w2's grant is attempt 1.
        assert attempts == [1]
        assert totals["cells_released"] == 1

    def test_release_unknown_lease_raises(self, tmp_path):
        async def scenario():
            store = await fresh_store(tmp_path)
            try:
                with pytest.raises(UnknownLeaseError):
                    store.release_cells("l1-nope", "tok")
            finally:
                await store.close()

        run(scenario())

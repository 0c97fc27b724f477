"""End-to-end tests for distributed sweep workers over real HTTP.

A head (``workers=0`` — no local execution) is booted per test via
:class:`~repro.serve.chaos.RestartableHead`; remote :class:`WorkerNode`
instances lease cells from it, execute injected runners, and push
results back.  The
headline failover test runs one worker in a separate OS process, wedges
it mid-batch, and ``kill -9``\\ s it: the head's lease reaper must
requeue its cells and a healthy worker must still complete the grid
with ``failed == 0``.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments.orchestrator import ResultCache
from repro.serve.chaos import RestartableHead
from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.protocol import PROTOCOL_VERSION, CellOutcome, ResultPush
from repro.serve.worker import WorkerNode
from tests.integration.test_serve import fake_stats, make_spec

GRID_BENCHMARKS = ("art", "swim", "mgrid", "applu")


def make_grid():
    return [make_spec(benchmark=name) for name in GRID_BENCHMARKS]


def wait_for(predicate, timeout_s=30.0, interval_s=0.02, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def head():
    """Head-only store: every cell must travel through a remote lease."""
    server = RestartableHead(
        workers=0, use_cache=False, lease_ttl_s=0.5, worker_retries=3
    ).start()
    yield server
    server.stop()


class RecordingRunner:
    """Per-worker runner that records which specs it simulated."""

    def __init__(self, gate=None):
        self.specs = []
        self._lock = threading.Lock()
        self.gate = gate

    def __call__(self, spec):
        with self._lock:
            self.specs.append(spec)
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        return fake_stats(spec)


class TestTwoWorkers:
    def test_grid_simulated_exactly_once_across_workers(self, head):
        """The acceptance contract: 4 cells, 2 workers, no duplicates."""
        gate = threading.Event()
        runners = [RecordingRunner(gate=gate), RecordingRunner(gate=gate)]
        nodes = [
            WorkerNode(
                f"http://127.0.0.1:{head.port}",
                worker_id=f"w{i}",
                jobs=2,
                lease_cells=2,
                poll_s=0.05,
                use_cache=False,
                runner=runners[i],
            )
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=node.run, daemon=True) for node in nodes
        ]

        client = head.client()
        snapshot = client.submit(make_grid())
        for thread in threads:
            thread.start()
        try:
            # Hold the gate until both workers own a lease, so the work
            # is genuinely split rather than drained by whoever is fast.
            wait_for(
                lambda: client.stats()["leases_granted"] >= 2,
                what="both workers to lease",
            )
            gate.set()
            results = client.wait(snapshot.job_id)
        finally:
            gate.set()
            for node in nodes:
                node.stop()
            for thread in threads:
                thread.join(timeout=10.0)

        assert results.snapshot.failed == 0
        assert len(results.results) == 4
        # Each distinct cell simulated exactly once, across both workers.
        simulated = [
            spec.spec_hash() for runner in runners for spec in runner.specs
        ]
        assert sorted(simulated) == sorted(
            spec.spec_hash() for spec in make_grid()
        )
        per_worker = {f"w{i}": len(runners[i].specs) for i in range(2)}
        assert sum(per_worker.values()) == 4
        assert all(count >= 1 for count in per_worker.values()), per_worker
        totals = client.stats()
        assert totals["cells_remote"] == 4
        assert totals["failure_kinds"] == {}
        # The delivered cells carry which worker ran them.
        detail = client.job(results.snapshot.job_id).cells_detail
        workers_seen = {row.get("worker") for row in detail}
        assert workers_seen <= {"w0", "w1"}

    def test_worker_remote_failure_surfaces_kind(self, head):
        def crashing(spec):
            raise RuntimeError("sim exploded")

        node = WorkerNode(
            f"http://127.0.0.1:{head.port}",
            worker_id="crashy",
            lease_cells=4,
            poll_s=0.05,
            use_cache=False,
            runner=crashing,
        )
        thread = threading.Thread(target=node.run, daemon=True)
        client = head.client()
        snapshot = client.submit([make_spec()])
        thread.start()
        try:
            results = client.wait(snapshot.job_id)
        finally:
            node.stop()
            thread.join(timeout=10.0)
        assert results.snapshot.failed == 1
        assert results.failures[0].error["kind"] == "error"
        assert "exploded" in results.failures[0].error["message"]


class TestPushValidation:
    def test_malformed_failure_body_is_bad_request(self, head):
        """A pushed failure must be a {kind, message, attempts} object."""
        client = head.client()
        snapshot = client.submit([make_spec()])
        grant = client.lease("w1")
        (cell,) = grant.cells
        path = f"/leases/{grant.lease_id}/results"
        good = {"kind": "timeout", "message": "cell exceeded 1s",
                "attempts": 2}
        for bad in ({}, {"knd": "timeout"},
                    {"kind": "timeout", "message": "x"},
                    {**good, "attempts": True},
                    {**good, "extra": 1}):
            status, __, body = client._request("POST", path, {
                "token": grant.token,
                "worker_id": "w1",
                "outcomes": [{"spec_hash": cell.spec_hash, "error": bad}],
                "protocol_version": PROTOCOL_VERSION,
            })
            assert status == 400, bad
            assert body["error"]["kind"] == "bad_request"
        # The lease still stands, and a well-formed failure settles it.
        push = ResultPush(token=grant.token, worker_id="w1", outcomes=(
            CellOutcome(spec_hash=cell.spec_hash, error=good),
        ))
        assert client.push_results(grant.lease_id, push).accepted == 1
        results = client.wait(snapshot.job_id)
        assert [item.error for item in results.failures] == [good]


class TestCacheSync:
    def test_worker_warms_local_cache_from_head(self, tmp_path):
        """A worker fetches known artifacts instead of resimulating."""
        head_cache = tmp_path / "head-cache"
        server = RestartableHead(head_cache, lease_ttl_s=5.0).start()
        try:
            spec = make_spec()
            ResultCache(str(head_cache)).put(spec, fake_stats(spec))

            must_not_run = RecordingRunner()
            node = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="warm",
                use_cache=True,
                cache_dir=str(tmp_path / "worker-cache"),
                runner=must_not_run,
            )
            outcome = node._resolve_cell(spec, spec.spec_hash())
            assert outcome.error is None
            assert outcome.simulated is False  # served, not simulated
            assert must_not_run.specs == []
            assert node.counters["cells_head_cache"] == 1
            # ...and the artifact is now local: the next hit is free.
            outcome2 = node._resolve_cell(spec, spec.spec_hash())
            assert node.counters["cells_local_cache"] == 1
            assert outcome2.stats.to_dict() == outcome.stats.to_dict()
        finally:
            server.stop()

    def test_pushed_results_replicate_to_head_cache(self, tmp_path):
        """A cell simulated on a worker becomes a head artifact."""
        head_cache = tmp_path / "head-cache"
        server = RestartableHead(head_cache, lease_ttl_s=5.0).start()
        try:
            spec = make_spec()
            node = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="pusher",
                lease_cells=4,
                poll_s=0.05,
                use_cache=False,
                runner=RecordingRunner(),
            )
            client = server.client()
            snapshot = client.submit([spec])
            node.run(max_batches=1)
            results = client.wait(snapshot.job_id)
            assert results.snapshot.failed == 0
            # GET /cells/<hash> now serves it straight off the head.
            artifact = client.artifact(spec.spec_hash())
            assert artifact["spec"] == spec.to_dict()
            # A warm resubmission is a submit-time cache hit: no lease.
            warm = client.submit([spec])
            assert warm.cached == 1
            assert warm.state == "done"
        finally:
            server.stop()


def _wedged_worker_main(port: int) -> None:
    """Subprocess body: lease the whole grid, then hang forever."""

    def wedge(spec):
        time.sleep(3600.0)

    WorkerNode(
        f"http://127.0.0.1:{port}",
        worker_id="doomed",
        jobs=4,
        lease_cells=8,
        poll_s=0.05,
        use_cache=False,
        runner=wedge,
    ).run()


class TestWorkerFailover:
    def test_kill_dash_nine_mid_sweep_still_converges(self, head):
        """The headline failover contract.

        Worker A leases every cell and wedges; ``kill -9`` removes it
        without any goodbye to the head.  Its heartbeats stop, the lease
        expires, the reaper requeues the cells, and worker B completes
        the grid — ``failed == 0``, with the requeue recorded.
        """
        client = head.client()
        snapshot = client.submit(make_grid())

        ctx = multiprocessing.get_context("fork")
        doomed = ctx.Process(
            target=_wedged_worker_main, args=(head.port,), daemon=True
        )
        doomed.start()
        try:
            # Wait until A owns the whole grid ...
            wait_for(
                lambda: (
                    client.stats()["leases_granted"] >= 1
                    and client.stats()["pending_cells"] == 4
                ),
                what="doomed worker to lease the grid",
            )
            # ... then kill it the unfriendly way, mid-heartbeat.
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.join(timeout=10.0)
            assert doomed.exitcode == -signal.SIGKILL

            rescue_runner = RecordingRunner()
            rescue = WorkerNode(
                f"http://127.0.0.1:{head.port}",
                worker_id="rescue",
                jobs=2,
                lease_cells=8,
                poll_s=0.05,
                use_cache=False,
                runner=rescue_runner,
            )
            thread = threading.Thread(target=rescue.run, daemon=True)
            thread.start()
            try:
                results = client.wait(snapshot.job_id)
            finally:
                rescue.stop()
                thread.join(timeout=10.0)
        finally:
            if doomed.is_alive():
                doomed.kill()
                doomed.join(timeout=10.0)

        assert results.snapshot.failed == 0
        assert len(results.results) == 4
        assert len(rescue_runner.specs) == 4  # B simulated the whole grid
        totals = client.stats()
        assert totals["leases_reaped"] >= 1
        assert totals["cells_requeued"] >= 4  # the worker_lost retry path
        assert totals["failure_kinds"].get("worker_lost") is None
        # The retried cells' delivered records point at the survivor.
        detail = client.job(results.snapshot.job_id).cells_detail
        assert {row.get("worker") for row in detail} == {"rescue"}

    def test_retry_exhaustion_fails_structured(self):
        """With no healthy worker, the budget runs out as worker_lost."""
        server = RestartableHead(
            workers=0, use_cache=False, lease_ttl_s=0.2, worker_retries=1
        ).start()
        try:
            client = server.client()
            snapshot = client.submit([make_spec()])
            # Two grants, two expiries, no pushes: attempts exhausted.
            for round_ in range(2):
                wait_for(
                    lambda: not client.lease(
                        f"ghost-{round_}", max_cells=4
                    ).is_empty,
                    what=f"grant {round_} to a ghost worker",
                )
            results = client.wait(snapshot.job_id)
            assert results.snapshot.failed == 1
            error = results.failures[0].error
            assert error["kind"] == "worker_lost"
            assert error["attempts"] == 2
            assert client.stats()["failure_kinds"] == {"worker_lost": 1}
        finally:
            server.stop()


class _CrashingHeartbeatClient(ServeClient):
    """Heartbeats raise a bare (non-Serve) exception — the bug class the
    heartbeat loop must survive instead of dying silently."""

    def heartbeat(self, lease_id, token):
        raise RuntimeError("heartbeat thread bug")


class TestHeartbeatResilience:
    def test_heartbeat_crash_marks_lease_at_risk(self):
        """A crashing heartbeat thread must record the error, stop the
        batch from expanding, and release unstarted cells for an early
        re-lease — not die silently and leave the lease to rot."""
        # TTL 6s: the reaper cannot help here — any requeue within the
        # test window must come from the early-release path.
        server = RestartableHead(
            workers=0, use_cache=False, lease_ttl_s=6.0, worker_retries=3
        ).start()
        try:
            gate = threading.Event()
            runner = RecordingRunner(gate=gate)
            node = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="flaky-beat",
                jobs=1,
                lease_cells=4,
                poll_s=0.05,
                use_cache=False,
                runner=runner,
                client=_CrashingHeartbeatClient(
                    port=server.port, tenant="worker", timeout_s=60.0
                ),
            )
            thread = threading.Thread(target=node.run, daemon=True)
            client = server.client()
            snapshot = client.submit(make_grid())
            thread.start()
            try:
                # The first beat fires while cell 1 is gated mid-run.
                wait_for(
                    lambda: node.counters["heartbeat_errors"] >= 1,
                    what="the heartbeat crash to be recorded",
                )
                gate.set()
                results = client.wait(snapshot.job_id)
            finally:
                gate.set()
                node.stop()
                thread.join(timeout=10.0)

            assert results.snapshot.failed == 0
            assert len(results.results) == 4
            assert node.counters["heartbeat_errors"] >= 1
            # The at-risk batch gave its unstarted cells back early ...
            assert node.counters["cells_released"] >= 1
            totals = client.stats()
            assert totals["cells_released"] >= 1
            assert totals["leases_reaped"] == 0
            # ... and nothing was executed twice after the re-lease.
            simulated = [spec.spec_hash() for spec in runner.specs]
            assert sorted(simulated) == sorted(
                spec.spec_hash() for spec in make_grid()
            )
        finally:
            server.stop()


class TestGracefulDrain:
    def test_drain_pushes_inflight_and_releases_rest(self, tmp_path):
        """drain(): in-flight cells finish and push; unstarted cells go
        back via POST /leases/<id>/release, not by waiting out the TTL."""
        server = RestartableHead(
            workers=0, use_cache=False, lease_ttl_s=30.0, worker_retries=3
        ).start()
        try:
            gate = threading.Event()
            runner = RecordingRunner(gate=gate)
            node = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="draining",
                jobs=1,
                lease_cells=4,
                poll_s=0.05,
                use_cache=False,
                runner=runner,
            )
            thread = threading.Thread(target=node.run, daemon=True)
            client = server.client()
            snapshot = client.submit(make_grid())
            thread.start()
            try:
                # Drain once a cell is in flight: the head counts the
                # grant before the worker has decoded it, and a drain in
                # that window leaves no cell started.
                wait_for(
                    lambda: runner.specs,
                    what="the worker to start a leased cell",
                )
                node.drain()
                gate.set()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            finally:
                gate.set()
                node.stop()
                thread.join(timeout=10.0)

            # Every leased cell was either pushed or released — none
            # left to the 30s lease TTL.
            done = node.counters["cells_done"]
            released = node.counters["cells_released"]
            assert done >= 1
            assert released >= 1
            assert done + released == 4
            totals = client.stats()
            assert totals["cells_released"] == released
            assert totals["leases_reaped"] == 0
            assert totals["pending_cells"] == released  # requeued now

            # A rescue worker finishes the requeued cells immediately.
            rescue = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="rescue",
                jobs=2,
                lease_cells=8,
                poll_s=0.05,
                use_cache=False,
                runner=RecordingRunner(),
            )
            rescue_thread = threading.Thread(target=rescue.run, daemon=True)
            rescue_thread.start()
            try:
                results = client.wait(snapshot.job_id)
            finally:
                rescue.stop()
                rescue_thread.join(timeout=10.0)
            assert results.snapshot.failed == 0
            assert len(results.results) == 4
            assert client.stats()["leases_reaped"] == 0
        finally:
            server.stop()

    def test_drain_on_idle_exits_on_its_own(self, head):
        """drain_on_idle: the worker exits after the head runs dry."""
        runner = RecordingRunner()
        node = WorkerNode(
            f"http://127.0.0.1:{head.port}",
            worker_id="lazy",
            jobs=2,
            lease_cells=8,
            poll_s=0.05,
            drain_on_idle=0.2,
            use_cache=False,
            runner=runner,
        )
        client = head.client()
        snapshot = client.submit(make_grid())
        thread = threading.Thread(target=node.run, daemon=True)
        thread.start()
        thread.join(timeout=15.0)
        assert not thread.is_alive()  # exited without stop()/drain()
        results = client.wait(snapshot.job_id)
        assert results.snapshot.failed == 0
        assert node.counters["cells_done"] == 4


def _sigterm_worker_main(port: int) -> None:
    """Subprocess body: slow cells, default SIGTERM handler = drain."""
    from repro.serve.worker import run_worker

    def slow(spec):
        time.sleep(0.6)
        return fake_stats(spec)

    run_worker(
        f"http://127.0.0.1:{port}",
        worker_id="terminated",
        jobs=1,
        lease_cells=8,
        poll_s=0.05,
        use_cache=False,
        head_outage_grace=5.0,
        runner=slow,
    )


class TestSigtermDrain:
    def test_sigterm_finishes_inflight_and_releases(self):
        """kill -TERM mid-batch: the process finishes the running cell,
        pushes it, releases the unstarted rest, and exits 0."""
        server = RestartableHead(
            workers=0, use_cache=False, lease_ttl_s=30.0, worker_retries=3
        ).start()
        try:
            client = server.client()
            snapshot = client.submit(make_grid())

            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(
                target=_sigterm_worker_main, args=(server.port,), daemon=True
            )
            proc.start()
            try:
                wait_for(
                    lambda: client.stats()["leases_granted"] >= 1,
                    what="the doomed worker to lease the grid",
                )
                os.kill(proc.pid, signal.SIGTERM)
                proc.join(timeout=15.0)
                assert proc.exitcode == 0  # graceful drain, not a crash
            finally:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=10.0)

            totals = client.stats()
            assert totals["cells_delivered"] >= 1  # in-flight cell pushed
            assert totals["cells_released"] >= 1  # the rest given back
            assert totals["leases_reaped"] == 0  # released, not expired
            assert (
                totals["cells_delivered"] + totals["pending_cells"] == 4
            )

            rescue = WorkerNode(
                f"http://127.0.0.1:{server.port}",
                worker_id="rescue",
                jobs=2,
                lease_cells=8,
                poll_s=0.05,
                use_cache=False,
                runner=RecordingRunner(),
            )
            thread = threading.Thread(target=rescue.run, daemon=True)
            thread.start()
            try:
                results = client.wait(snapshot.job_id)
            finally:
                rescue.stop()
                thread.join(timeout=10.0)
            assert results.snapshot.failed == 0
            assert len(results.results) == 4
        finally:
            server.stop()


class TestWorkerCli:
    def test_worker_role_requires_head(self, capsys):
        from repro.cli import main

        assert main(["serve", "--role", "worker"]) == 64
        assert "--head" in capsys.readouterr().err

    def test_unreachable_head_is_exit_69(self):
        client = ServeClient(port=1)  # nothing listens on port 1
        with pytest.raises(ServeConnectionError) as excinfo:
            client.health()
        assert excinfo.value.exit_code == 69

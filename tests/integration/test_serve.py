"""End-to-end tests for the sweep service over real HTTP.

Each fixture boots a head with :class:`RestartableHead` — the CLI's
``serve_forever`` on an event loop in a background thread, bound to an
ephemeral port; tests talk to it with the synchronous
:class:`ServeClient`, exactly as the CLI does.  Small grids run the
real simulator (in-thread run_spec, tiny scale); scheduling-behaviour
tests inject stub runners.
"""

import asyncio
import socket
import threading

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec, run_spec
from repro.serve.chaos import RestartableHead
from repro.serve.client import (
    AsyncServeClient,
    ProtocolMismatch,
    ServeClient,
    ServeConnectionError,
    ServeError,
    ServerBusy,
    UnknownResourceError,
)
from repro.serve.protocol import PROTOCOL_VERSION

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


@pytest.fixture
def live_server(tmp_path):
    """Real-simulation server: in-thread run_spec, caching into tmp_path."""
    server = RestartableHead(
        tmp_path / "cache", workers=2, runner=run_spec
    ).start()
    yield server
    server.stop()


@pytest.fixture
def stub_server_factory():
    """Build servers with injected runners; all torn down at test end."""
    servers = []

    def build(**store_kwargs):
        store_kwargs.setdefault("use_cache", False)
        server = RestartableHead(**store_kwargs).start()
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop()


class TestSurface:
    def test_health_and_stats(self, live_server):
        client = live_server.client()
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["executor"] == "inline"
        stats = client.stats()
        assert stats["jobs_submitted"] == 0

    def test_unknown_routes_and_methods(self, live_server):
        client = live_server.client()
        with pytest.raises(UnknownResourceError) as excinfo:
            client.job("j-nope")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_job"

        status, _, body = client._request("GET", "/no/such/route")
        assert status == 404
        status, _, body = client._request("GET", "/jobs")
        assert status == 405

    def test_invalid_submission_is_400(self, live_server):
        client = live_server.client()
        status, _, body = client._request("POST", "/jobs", {
            "protocol_version": PROTOCOL_VERSION, "specs": "nope",
        })
        assert status == 400
        assert body["error"]["kind"] == "bad_request"
        status, _, body = client._request("POST", "/jobs", {
            "protocol_version": PROTOCOL_VERSION,
            "specs": [{"benchmark": "art"}],
        })
        assert status == 400
        # A spec naming a fabric other than the optimized one must not
        # run as a different cell.
        stale = {**make_spec(mode="cycle").to_dict(), "fabric": "vector"}
        status, _, body = client._request("POST", "/jobs", {
            "protocol_version": PROTOCOL_VERSION, "specs": [stale],
        })
        assert status == 400
        assert body["error"]["kind"] == "bad_request"
        assert "'vector'" in body["error"]["message"]
        # So is a chip that does not tile, here one with three layers.
        untiled = {**make_spec().to_dict(), "layers": 3}
        status, _, body = client._request("POST", "/jobs", {
            "protocol_version": PROTOCOL_VERSION, "specs": [untiled],
        })
        assert status == 400
        assert body["error"]["kind"] == "bad_request"
        assert "layer count 3" in body["error"]["message"]
        # A spec with no references per CPU is refused at submission, not
        # failed later as a cell.
        for refs in (0, -5):
            spec = make_spec().to_dict()
            spec["scale"] = {**spec["scale"], "refs_per_cpu": refs}
            status, _, body = client._request("POST", "/jobs", {
                "protocol_version": PROTOCOL_VERSION, "specs": [spec],
            })
            assert status == 400
            assert body["error"]["kind"] == "bad_request"
            assert f"got {refs}" in body["error"]["message"]
        # A misspelled key must not decode to a different cell (here a
        # zero-fault one) than the submission names.
        typo = {**make_spec().to_dict(), "faults": {"dead_pilars": 2}}
        status, _, body = client._request("POST", "/jobs", {
            "protocol_version": PROTOCOL_VERSION, "specs": [typo],
        })
        assert status == 400
        assert body["error"]["kind"] == "bad_request"
        assert "dead_pilars" in body["error"]["message"]

    def test_protocol_skew_is_structured_400(self, live_server):
        """A peer from another protocol revision fails loudly, not quietly."""
        client = live_server.client()
        for bad in ({"specs": []},  # version missing entirely
                    {"protocol_version": PROTOCOL_VERSION + 1, "specs": []}):
            status, _, body = client._request("POST", "/jobs", bad)
            assert status == 400
            assert body["error"]["kind"] == "protocol_mismatch"
            assert body["error"]["expected_version"] == PROTOCOL_VERSION
        with pytest.raises(ProtocolMismatch):
            # The typed client surfaces the same skew as its own error.
            raise_payload = {"protocol_version": 99, "specs": []}
            status, headers, body = client._request(
                "POST", "/jobs", raise_payload
            )
            from repro.serve.client import raise_for_status
            raise_for_status(status, headers, body)
        assert client.health()["protocol_version"] == PROTOCOL_VERSION


class TestRealSweep:
    def test_submit_wait_resubmit_cached(self, live_server):
        client = live_server.client(tenant="cold")
        grid = [make_spec(), make_spec(benchmark="swim")]

        summary = client.sweep(grid)
        assert summary.failed == 0
        assert summary.simulated == 2
        assert len(summary.results) == 2
        for spec in grid:
            assert summary.results[spec].ipc > 0

        warm = live_server.client(tenant="warm").sweep(grid)
        assert warm.simulated == 0
        assert warm.cached == 2
        assert (
            warm.results[grid[0]].to_dict()
            == summary.results[grid[0]].to_dict()
        )

        totals = client.stats()
        assert totals["cells_simulated"] == 2
        assert totals["cells_cached"] == 2

    def test_event_stream_over_http(self, live_server):
        client = live_server.client()
        snapshot = client.submit([make_spec()])
        events = list(client.iter_events(snapshot.job_id))
        assert events[0]["event"] == "job"
        assert events[-1]["event"] == "done"
        done_cells = [
            event for event in events
            if event["event"] == "cell" and event["state"] == "done"
        ]
        assert len(done_cells) == 1
        assert done_cells[0]["origin"] == "simulated"

    def test_artifact_endpoint(self, live_server):
        client = live_server.client()
        spec = make_spec()
        client.wait(client.submit([spec]).job_id)
        artifact = client.artifact(spec.spec_hash())
        assert artifact["spec"] == spec.to_dict()
        assert artifact["stats"]["scheme"] == spec.scheme.value

        with pytest.raises(ServeError) as excinfo:
            client.artifact("0" * 16)
        assert excinfo.value.status == 404


class GatedRunner:
    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()
        self.gate = threading.Event()

    def __call__(self, spec):
        with self._lock:
            self.calls.append(spec)
        assert self.gate.wait(timeout=30.0)
        return fake_stats(spec)


class TestMultiTenant:
    def test_identical_grids_simulate_once(self, stub_server_factory):
        """Satellite contract, over the wire: two tenants, one simulation."""
        runner = GatedRunner()
        server = stub_server_factory(workers=2, runner=runner)
        grid = [make_spec(), make_spec(benchmark="swim")]

        job_a = server.client("tenant-a").submit(grid)
        job_b = server.client("tenant-b").submit(grid)
        runner.gate.set()

        results_a = server.client("tenant-a").wait(job_a.job_id)
        results_b = server.client("tenant-b").wait(job_b.job_id)
        assert len(runner.calls) == 2  # one execution per distinct spec
        for body in (results_a, results_b):
            assert body.snapshot.failed == 0
            assert len(body.results) == 2  # both tenants fully served
        totals = server.client().stats()
        assert totals["cells_simulated"] == 2
        assert totals["cells_deduped"] == 2

    def test_backpressure_429_with_retry_after(self, stub_server_factory):
        runner = GatedRunner()
        server = stub_server_factory(workers=1, max_pending=1, runner=runner)

        first = server.client("a").submit([make_spec()])
        with pytest.raises(ServerBusy) as excinfo:
            server.client("b").submit([make_spec(benchmark="swim")])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s >= 1.0
        assert excinfo.value.kind == "queue_full"
        assert isinstance(excinfo.value, ServeError)

        runner.gate.set()
        server.client("a").wait(first.job_id)
        # Capacity freed: the same submission is accepted now.
        retry = server.client("b").submit([make_spec(benchmark="swim")])
        body = server.client("b").wait(retry.job_id)
        assert body.snapshot.failed == 0
        assert server.client().stats()["submissions_rejected"] == 1

    def test_structured_failure_bodies(self, stub_server_factory):
        class Wedged(RuntimeError):
            failure_kind = "stall"

        def stalling(spec):
            raise Wedged("starved for 10000 cycles")

        server = stub_server_factory(workers=1, runner=stalling)
        client = server.client()
        body = client.wait(client.submit([make_spec()]).job_id)
        assert body.snapshot.failed == 1
        error = body.failures[0].error
        assert error["kind"] == "stall"
        assert "starved" in error["message"]
        snapshot = client.job(body.snapshot.job_id)
        assert snapshot.failure_kinds == {"stall": 1}


class TestCliAgainstServer:
    def test_sweep_command_uses_server(self, live_server, capsys):
        from repro.cli import main

        url = f"http://127.0.0.1:{live_server.port}"
        code = main([
            "sweep", "--server", url, "--schemes", "CMP-DNUCA-3D",
            "--benchmarks", "art", "--refs", "50", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep results" in out
        totals = live_server.client().stats()
        assert totals["jobs_submitted"] == 1
        assert totals["cells_simulated"] == 1


class TestClientRetries:
    def test_async_client_retries_a_silent_close(self):
        """A head that accepts, reads, and hangs up without replying is a
        transient reset: the async client replays GETs (bounded) and
        never replays POSTs."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        accepted = []

        def hang_up():
            while True:
                try:
                    conn, __ = listener.accept()
                except OSError:
                    return  # listener closed: test over
                accepted.append(conn.recv(65536))
                conn.close()

        threading.Thread(target=hang_up, daemon=True).start()
        client = AsyncServeClient(
            port=listener.getsockname()[1], transient_retries=2
        )
        try:
            with pytest.raises(ServeConnectionError) as excinfo:
                asyncio.run(client.stats())
            assert isinstance(excinfo.value.__cause__, ConnectionResetError)
            assert len(accepted) == 3  # the first try plus two replays
            assert all(raw.startswith(b"GET /stats") for raw in accepted)
            accepted.clear()
            with pytest.raises(ServeConnectionError):
                asyncio.run(client.submit([make_spec()]))
            assert len(accepted) == 1
        finally:
            listener.close()

    def test_idempotent_get_survives_transient_reset(
        self, stub_server_factory
    ):
        """A GET that dies mid-exchange is replayed, invisibly."""
        server = stub_server_factory(workers=1, runner=fake_stats)
        client = server.client()
        orig = client._request_once
        calls = {"n": 0}

        def flaky(method, path, payload=None):
            calls["n"] += 1
            if calls["n"] == 1:
                exc = ServeConnectionError("reset mid-exchange")
                exc.__cause__ = ConnectionResetError("peer reset")
                raise exc
            return orig(method, path, payload)

        client._request_once = flaky
        stats = client.stats()
        assert stats["jobs_submitted"] == 0
        assert calls["n"] == 2  # one failure, one replay

    def test_non_idempotent_post_is_not_replayed(self, stub_server_factory):
        """A submit must never be blindly replayed — it is not idempotent."""
        server = stub_server_factory(workers=1, runner=fake_stats)
        client = server.client()
        calls = {"n": 0}

        def always_reset(method, path, payload=None):
            calls["n"] += 1
            exc = ServeConnectionError("reset mid-exchange")
            exc.__cause__ = ConnectionResetError("peer reset")
            raise exc

        client._request_once = always_reset
        with pytest.raises(ServeConnectionError):
            client.submit([make_spec()])
        assert calls["n"] == 1

    def test_outage_grace_rides_out_a_refused_head(self, stub_server_factory):
        """With outage_grace_s, even refused connections (head restarting,
        not just a dropped socket) are retried until the head answers."""
        server = stub_server_factory(workers=1, runner=fake_stats)
        client = ServeClient(
            port=server.port, tenant="default",
            timeout_s=60.0, outage_grace_s=10.0,
        )
        orig = client._request_once
        calls = {"n": 0}

        def refused_twice(method, path, payload=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                exc = ServeConnectionError("head unreachable")
                exc.__cause__ = ConnectionRefusedError("refused")
                raise exc
            return orig(method, path, payload)

        client._request_once = refused_twice
        assert client.stats()["jobs_submitted"] == 0
        assert calls["n"] == 3

    def test_iter_events_resumes_mid_stream_without_duplicates(
        self, stub_server_factory
    ):
        """A dropped event stream reconnects and skips what it yielded."""
        server = stub_server_factory(workers=1, runner=fake_stats)
        reference = server.client()
        job_id = reference.submit(
            [make_spec(), make_spec(benchmark="swim")]
        ).job_id
        reference.wait(job_id)
        baseline = list(reference.iter_events(job_id))
        assert len(baseline) >= 4  # job + cells + done

        client = server.client()
        orig = client._iter_events_once
        state = {"streams": 0}

        def interrupted(job_id_, skip=0):
            state["streams"] += 1
            inner = orig(job_id_, skip=skip)
            if state["streams"] == 1:
                yield next(inner)  # one event, then the stream dies
                exc = ServeConnectionError("event stream interrupted")
                exc.__cause__ = ConnectionResetError("peer reset")
                raise exc
            yield from inner

        client._iter_events_once = interrupted
        events = list(client.iter_events(job_id))
        assert state["streams"] == 2  # reconnected exactly once
        assert events == baseline  # nothing lost, nothing duplicated
        assert sum(1 for e in events if e["event"] == "done") == 1

"""Orchestrator unit tests: cache behaviour, failure records, robustness.

The parallel-path tests monkeypatch ``run_spec`` in the orchestrator
module; worker processes are forked on Linux, so they inherit the patch.
Simulations here are stubbed — the differential test against real
simulations lives in ``tests/integration/test_sweep_differential.py``.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments import orchestrator
from repro.experiments.config import ExperimentScale
from repro.experiments.orchestrator import (
    ResultCache,
    results_by_spec,
    run_sweep,
)
from repro.experiments.spec import SimSpec

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


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = make_spec()
        assert cache.get(spec) is None
        cache.put(spec, fake_stats(spec))
        hit = cache.get(spec)
        assert hit is not None
        assert hit.to_dict() == fake_stats(spec).to_dict()

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(make_spec(), fake_stats(make_spec(), latency=1.0))
        assert cache.get(make_spec(benchmark="swim")) is None

    def test_corrupted_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = make_spec()
        cache.put(spec, fake_stats(spec))
        path = cache._path(spec.spec_hash())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert cache.get(spec) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = make_spec()
        cache.put(spec, fake_stats(spec))
        path = cache._path(spec.spec_hash())
        with open(path, encoding="utf-8") as handle:
            artifact = json.load(handle)
        artifact["cache_version"] = orchestrator.CACHE_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle)
        assert cache.get(spec) is None

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        """Artifact whose embedded spec disagrees with the key is ignored."""
        cache = ResultCache(str(tmp_path))
        spec = make_spec()
        other = make_spec(benchmark="swim")
        cache.put(other, fake_stats(other))
        # Graft other's artifact under spec's hash.
        os.makedirs(
            os.path.dirname(cache._path(spec.spec_hash())), exist_ok=True
        )
        os.replace(
            cache._path(other.spec_hash()), cache._path(spec.spec_hash())
        )
        assert cache.get(spec) is None

    def test_racing_writers_never_tear_an_artifact(self, tmp_path):
        """Concurrent puts on one spec_hash: readers always see a whole
        artifact (the atomicity the multi-tenant sweep service relies on
        when two jobs' workers race on the same cell)."""
        spec = make_spec()
        latencies = [10.0, 20.0, 30.0, 40.0]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(len(latencies) + 1)
        writers = [
            ctx.Process(
                target=_hammer_cache,
                args=(str(tmp_path), spec.to_dict(), latency, 50, barrier),
            )
            for latency in latencies
        ]
        for writer in writers:
            writer.start()
        cache = ResultCache(str(tmp_path))
        barrier.wait()

        observed = set()
        while any(writer.is_alive() for writer in writers):
            hit = cache.get(spec)
            if hit is not None:
                observed.add(hit.avg_l2_hit_latency)
            artifact = cache.read_artifact(spec.spec_hash())
            if artifact is not None:
                observed.add(artifact["stats"]["avg_l2_hit_latency"])
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0

        # Every read saw a value some writer actually wrote, never a blend.
        assert observed
        assert observed <= set(latencies)
        final = cache.get(spec)
        assert final is not None
        assert final.avg_l2_hit_latency in latencies
        # No writer leaked its private temp file.
        leftovers = [
            name
            for root, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []


def _hammer_cache(root, spec_dict, latency, iterations, barrier):
    spec = SimSpec.from_dict(spec_dict)
    cache = ResultCache(root)
    stats = fake_stats(spec, latency=latency)
    barrier.wait()
    for _ in range(iterations):
        cache.put(spec, stats)


class TestSerialSweep:
    def test_cold_then_warm(self, tmp_path):
        specs = [make_spec(), make_spec(benchmark="swim")]
        cold = run_sweep(specs, cache_dir=str(tmp_path), runner=fake_stats)
        assert (cold.simulated, cold.cached, cold.failed) == (2, 0, 0)

        def exploding(spec):
            raise AssertionError("warm sweep must not simulate")

        warm = run_sweep(specs, cache_dir=str(tmp_path), runner=exploding)
        assert (warm.simulated, warm.cached, warm.failed) == (0, 2, 0)
        for spec in specs:
            assert warm.results[spec].to_dict() == (
                cold.results[spec].to_dict()
            )

    def test_traced_cell_exports_to_trace_dir(self, tmp_path):
        from repro.sim.trace import TraceSpec, validate_chrome_trace

        spec = make_spec(mode="cycle", trace=TraceSpec(limit=50_000))
        trace_dir = tmp_path / "traces"
        summary = run_sweep(
            [spec],
            cache_dir=str(tmp_path / "cache"),
            trace_dir=str(trace_dir),
        )
        assert (summary.simulated, summary.failed) == (1, 0)
        out = trace_dir / f"{spec.spec_hash()}.trace.json"
        assert out.exists()
        validate_chrome_trace(out.read_text())
        # A warm rerun reuses the cached stats without re-tracing.
        out.unlink()
        warm = run_sweep(
            [spec],
            cache_dir=str(tmp_path / "cache"),
            trace_dir=str(trace_dir),
        )
        assert (warm.simulated, warm.cached) == (0, 1)
        assert not out.exists()

    def test_untraced_cells_ignore_trace_dir(self, tmp_path):
        trace_dir = tmp_path / "traces"
        summary = run_sweep(
            [make_spec()], use_cache=False, trace_dir=str(trace_dir),
            runner=fake_stats,
        )
        assert summary.simulated == 1
        assert not trace_dir.exists()

    def test_no_cache_never_touches_disk(self, tmp_path):
        specs = [make_spec()]
        run_sweep(
            specs, use_cache=False, cache_dir=str(tmp_path),
            runner=fake_stats,
        )
        assert list(tmp_path.iterdir()) == []

    def test_corrupted_artifact_heals(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        run_sweep([spec], cache_dir=str(tmp_path), runner=fake_stats)
        path = cache._path(spec.spec_hash())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        summary = run_sweep([spec], cache_dir=str(tmp_path), runner=fake_stats)
        assert summary.simulated == 1  # miss: re-simulated
        assert cache.get(spec) is not None  # artifact rewritten

    def test_duplicate_specs_run_once(self, tmp_path):
        spec = make_spec()
        calls = []

        def counting(s):
            calls.append(s)
            return fake_stats(s)

        summary = run_sweep(
            [spec, spec, spec], cache_dir=str(tmp_path), runner=counting
        )
        assert len(calls) == 1
        assert summary.total == 1

    def test_failure_recorded_not_raised(self, tmp_path):
        good, bad = make_spec(), make_spec(benchmark="swim")

        def flaky(spec):
            if spec == bad:
                raise RuntimeError("boom")
            return fake_stats(spec)

        summary = run_sweep(
            [good, bad], cache_dir=str(tmp_path), runner=flaky
        )
        assert good in summary.results
        assert summary.failed == 1
        failure = summary.failures[0]
        assert failure.spec == bad
        assert failure.kind == "error"
        assert "boom" in failure.message
        assert failure.to_dict()["spec"] == bad.to_dict()

    def test_results_by_spec_flags_missing(self, tmp_path):
        good, bad = make_spec(), make_spec(benchmark="swim")

        def flaky(spec):
            if spec == bad:
                raise RuntimeError("boom")
            return fake_stats(spec)

        summary = run_sweep([good, bad], use_cache=False, runner=flaky)
        with pytest.raises(KeyError):
            results_by_spec(summary, [good, bad])
        assert results_by_spec(summary, [good])[good] is not None

    def test_summary_json_round_trips(self):
        summary = run_sweep([make_spec()], use_cache=False, runner=fake_stats)
        encoded = json.loads(json.dumps(summary.to_dict()))
        assert encoded["simulated"] == 1
        assert encoded["cells"][0]["spec"] == make_spec().to_dict()


# jobs > 1 alone selects the process path; with three cells and two
# jobs, one cell waits for a free worker.
PARALLEL_SPECS = [
    make_spec(), make_spec(benchmark="swim"), make_spec(benchmark="mgrid")
]


def _patched(monkeypatch, fn):
    """Patch the cell function seen by forked workers."""
    monkeypatch.setattr(orchestrator, "run_spec", fn)


class TestParallelSweep:
    def test_parallel_results_match_runner(self, monkeypatch):
        _patched(monkeypatch, fake_stats)
        summary = run_sweep(PARALLEL_SPECS, jobs=2, use_cache=False)
        assert summary.simulated == 3
        assert summary.failed == 0
        for spec in PARALLEL_SPECS:
            assert summary.results[spec].to_dict() == (
                fake_stats(spec).to_dict()
            )

    def test_worker_exception_is_structured_failure(self, monkeypatch):
        def exploding(spec):
            if spec.benchmark == "swim":
                raise ValueError("bad cell")
            return fake_stats(spec)

        _patched(monkeypatch, exploding)
        summary = run_sweep(PARALLEL_SPECS, jobs=2, use_cache=False)
        assert summary.failed == 1
        failure = summary.failures[0]
        assert failure.spec.benchmark == "swim"
        assert failure.kind == "error"
        assert "bad cell" in failure.message

    def test_worker_crash_retried_then_failed(self, monkeypatch):
        def crashing(spec):
            if spec.benchmark == "swim":
                os._exit(3)
            return fake_stats(spec)

        _patched(monkeypatch, crashing)
        summary = run_sweep(
            PARALLEL_SPECS, jobs=2, use_cache=False, retries=1
        )
        assert summary.failed == 1
        failure = summary.failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == 2  # initial + one retry

    def test_crash_recovers_on_retry(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed-once"

        def crash_once(spec):
            if spec.benchmark == "swim" and not flag.exists():
                flag.touch()
                os._exit(3)
            return fake_stats(spec)

        _patched(monkeypatch, crash_once)
        summary = run_sweep(
            PARALLEL_SPECS, jobs=2, use_cache=False, retries=1
        )
        assert summary.failed == 0
        assert summary.simulated == 3

    def test_timeout_enforced(self, monkeypatch):
        import time

        def hanging(spec):
            if spec.benchmark == "swim":
                time.sleep(60.0)
            return fake_stats(spec)

        _patched(monkeypatch, hanging)
        summary = run_sweep(
            PARALLEL_SPECS, jobs=2, use_cache=False,
            timeout_s=1.0, retries=0,
        )
        assert summary.failed == 1
        assert summary.failures[0].kind == "timeout"
        assert len(summary.results) == 2

    @pytest.mark.parametrize("warm", [False, True])
    def test_last_cell_keeps_its_timeout(self, monkeypatch, tmp_path, warm):
        """One cell left to run, on its own or behind a cache hit, still
        runs in a worker process under the timeout."""
        import time

        cached, hanging = make_spec(), make_spec(benchmark="swim")
        grid = [cached, hanging] if warm else [hanging]
        ResultCache(str(tmp_path)).put(cached, fake_stats(cached))

        def sleepy(spec):
            time.sleep(3.0)
            return fake_stats(spec)

        _patched(monkeypatch, sleepy)
        summary = run_sweep(
            grid, jobs=2, cache_dir=str(tmp_path),
            timeout_s=0.5, retries=0,
        )
        assert summary.cached == int(warm)
        assert summary.simulated == 0
        assert [f.kind for f in summary.failures] == ["timeout"]
        assert summary.failures[0].spec == hanging

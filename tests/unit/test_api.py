"""Unit tests for the `repro.api` submission facade."""

import asyncio

import pytest

from repro import api
from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.orchestrator import SweepSummary
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


class TestRun:
    def test_returns_typed_cell_result(self):
        result = api.run(make_spec())
        assert result.spec == make_spec()
        assert result.cached is False
        assert result.stats.ipc > 0
        encoded = result.to_dict()
        assert encoded["cached"] is False
        assert encoded["spec"] == make_spec().to_dict()

    def test_kwargs_build_a_spec(self):
        result = api.run(
            scheme=Scheme.CMP_DNUCA_3D, benchmark="art", scale=TINY
        )
        assert result.spec == make_spec()

    def test_spec_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            api.run(make_spec(), benchmark="swim")

    def test_cache_round_trip(self, tmp_path):
        cold = api.run(make_spec(), use_cache=True, cache_dir=str(tmp_path))
        warm = api.run(make_spec(), use_cache=True, cache_dir=str(tmp_path))
        assert cold.cached is False
        assert warm.cached is True
        assert warm.stats.to_dict() == cold.stats.to_dict()

    def test_results_identical_to_run_spec(self):
        from repro.experiments.spec import run_spec

        spec = make_spec()
        assert api.run(spec).stats.to_dict() == run_spec(spec).to_dict()


class TestSweep:
    def test_forwards_to_orchestrator(self, tmp_path):
        specs = [make_spec(), make_spec(benchmark="swim")]
        summary = api.sweep(
            specs, cache_dir=str(tmp_path), runner=fake_stats
        )
        assert isinstance(summary, SweepSummary)
        assert (summary.simulated, summary.failed) == (2, 0)
        warm = api.sweep(specs, cache_dir=str(tmp_path), runner=fake_stats)
        assert (warm.simulated, warm.cached) == (0, 2)

    def test_registry_goes_through_facade(self, monkeypatch):
        """run_experiment must submit its cells via api.sweep."""
        calls = []

        def recording(specs, **kwargs):
            calls.append(list(specs))
            return SweepSummary()

        monkeypatch.setattr(api, "sweep", recording)
        from repro.experiments.registry import run_experiment

        text, summary = run_experiment("table1")
        assert calls == [[]]  # table1 is analytic: empty grid, still routed
        assert "Table 1" in text

    def test_cli_sweep_goes_through_facade(self, monkeypatch, capsys):
        calls = []

        def recording(specs, **kwargs):
            calls.append(list(specs))
            summary = SweepSummary()
            for spec in specs:
                summary.results[spec] = fake_stats(spec)
                summary.simulated += 1
            return summary

        monkeypatch.setattr(api, "sweep", recording)
        from repro.cli import main

        code = main([
            "sweep", "--schemes", "CMP-DNUCA-3D", "--benchmarks", "art",
            "--refs", "50", "--no-cache", "--quiet",
        ])
        assert code == 0
        assert len(calls) == 1 and len(calls[0]) == 1
        assert "Sweep results" in capsys.readouterr().out


class TestSubmit:
    def test_submit_through_explicit_store(self):
        from repro.serve.scheduler import JobStore

        async def scenario():
            store = JobStore(workers=1, use_cache=False, runner=fake_stats)
            await store.start()
            try:
                job = await api.submit(
                    [make_spec()], tenant="t", store=store
                )
                snapshot = await job.wait()
            finally:
                await store.close()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["state"] == "done"
        assert snapshot["simulated"] == 1
        assert snapshot["failed"] == 0

    def test_default_store_created_lazily(self):
        async def scenario():
            api._DEFAULT_STORE = None
            try:
                store = await api.default_store()
                assert store.is_running
                again = await api.default_store()
                assert again is store
                await store.close()
            finally:
                api._DEFAULT_STORE = None

        asyncio.run(scenario())

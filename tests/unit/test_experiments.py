"""Unit tests for the experiment harness (scales, runner, formatting)."""

import pytest

from repro import api
from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import (
    FULL,
    QUICK,
    ExperimentScale,
    current_scale,
)
from repro.experiments.orchestrator import CellFailure, SweepSummary
from repro.experiments.registry import (
    EXPERIMENT_NAMES,
    SCHEME_ORDER,
    get_experiment,
    run_experiment,
    table,
)
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec, run_spec
from repro.experiments import table1, table2


class TestScales:
    def test_default_scale_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is QUICK

    def test_env_selects_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert current_scale() is FULL

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_warmup_events_scale_with_cpu_count(self):
        scale = ExperimentScale(
            name="x", refs_per_cpu=1000, warmup_fraction=0.5
        )
        assert scale.warmup_events_for(8) == 4000
        assert scale.warmup_events_for(4) == 2000
        assert scale.warmup_events_for(16) == 8000

    def test_scale_round_trips(self):
        scale = ExperimentScale(
            name="x", refs_per_cpu=123, warmup_fraction=0.25, seed=9
        )
        assert ExperimentScale.from_dict(scale.to_dict()) == scale


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", "1"], ["b", "22"]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_handles_wide_cells(self):
        text = format_table(["x"], [["longer-than-header"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("longer-than-header")


class TestRunner:
    def test_scheme_order_matches_paper(self):
        assert SCHEME_ORDER == (
            Scheme.CMP_DNUCA,
            Scheme.CMP_DNUCA_2D,
            Scheme.CMP_SNUCA_3D,
            Scheme.CMP_DNUCA_3D,
        )

    def test_run_spec_tiny(self):
        scale = ExperimentScale(name="tiny", refs_per_cpu=400)
        spec = SimSpec.make(Scheme.CMP_DNUCA_3D, "art", scale=scale)
        stats = run_spec(spec)
        assert stats.l2_accesses > 0
        assert stats.scheme == Scheme.CMP_DNUCA_3D

    def test_run_spec_respects_topology_args(self):
        scale = ExperimentScale(name="tiny", refs_per_cpu=200)
        spec = SimSpec.make(
            Scheme.CMP_SNUCA_3D, "art", scale=scale, layers=4, pillars=8
        )
        stats = run_spec(spec)
        assert stats.l2_accesses > 0

    def test_run_scheme_shim_is_gone(self):
        """The deprecated kwargs API was retired; the facade is the API."""
        import repro.experiments
        import repro.experiments.runner as runner

        assert not hasattr(runner, "run_scheme")
        assert not hasattr(repro.experiments, "run_scheme")


def fake_stats(spec: SimSpec, latency: float = 50.0) -> RunStats:
    return RunStats(
        scheme=spec.scheme,
        avg_l2_hit_latency=latency,
        avg_l2_miss_latency=300.0,
        l2_hits=80,
        l2_misses=20,
        migrations=5,
        ipc=1.0,
        per_cpu_ipc=[1.0] * 8,
        l1_miss_rate=0.1,
        flit_hops=1000.0,
        bus_flits=100.0,
        invalidations=3,
        instructions=10_000.0,
        cycles=10_000.0,
    )


class TestUniformInterface:
    """Every registered experiment exposes cells() and render()."""

    def test_registry_covers_all_ten(self):
        assert len(EXPERIMENT_NAMES) == 10

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_cells_are_specs(self, name):
        module = get_experiment(name)
        specs = module.cells()
        assert isinstance(specs, list)
        for spec in specs:
            assert isinstance(spec, SimSpec)

    @pytest.mark.parametrize(
        "name", [n for n in EXPERIMENT_NAMES if n not in
                 ("table1", "table2", "table3")]
    )
    def test_render_from_fake_results(self, name):
        """render() needs only a results mapping, not a live simulation."""
        module = get_experiment(name)
        results = {spec: fake_stats(spec) for spec in module.cells()}
        text = module.render(results)
        assert isinstance(text, str) and text

    def test_simulation_experiments_share_default_cells(self):
        """Figs 13/14/15 and Table 5 overlap: one cache pays once."""
        fig13 = set(get_experiment("fig13").cells())
        assert set(get_experiment("fig15").cells()) == fig13
        assert set(get_experiment("fig14").cells()) <= fig13
        assert set(get_experiment("table5").cells()) <= fig13


def fake_sweep(specs, **kwargs) -> SweepSummary:
    return SweepSummary(results={spec: fake_stats(spec) for spec in specs})


class TestRegistryTable:
    """``registry.table`` with the arguments each shape check passes.

    The paper-shape checks under ``benchmarks/`` run outside tier-1;
    this keeps their call into the registry honest over fake stats.
    """

    @pytest.mark.parametrize("name, cell_kwargs", [
        ("fig13", {"benchmarks": ("art", "mgrid", "swim"), "scale": QUICK}),
        ("fig14", {"benchmarks": ("art", "mgrid", "swim"), "scale": QUICK}),
        ("fig15", {"benchmarks": ("art", "mgrid", "swim"), "scale": QUICK}),
        ("fig16", {"benchmarks": ("galgel", "swim"), "scale": QUICK}),
        ("fig17", {"benchmarks": ("art", "swim"), "scale": QUICK}),
        ("fig18", {"benchmarks": ("art", "swim"), "scale": QUICK}),
        ("table5", {"scale": QUICK}),
    ])
    def test_table_tabulates_the_swept_grid(
        self, monkeypatch, name, cell_kwargs
    ):
        swept = []

        def recording_sweep(specs, **kwargs):
            swept.append(list(specs))
            return fake_sweep(specs)

        monkeypatch.setattr(api, "sweep", recording_sweep)
        module = get_experiment(name)
        specs = module.cells(**cell_kwargs)
        result = table(name, **cell_kwargs)
        assert swept == [specs]
        assert result == module.tabulate(fake_sweep(specs).results)
        assert set(result) == {spec.benchmark for spec in specs}

    def test_failed_cell_raises(self, monkeypatch):
        def failing_sweep(specs, **kwargs):
            summary = fake_sweep(specs[1:])
            summary.failures.append(
                CellFailure(specs[0], "crash", "worker exited", attempts=2)
            )
            return summary

        monkeypatch.setattr(api, "sweep", failing_sweep)
        with pytest.raises(RuntimeError, match="1 cell.*failed.*crash"):
            table("fig17", benchmarks=("art",), scale=QUICK)

    def test_run_experiment_renders_the_same_sweep(self, monkeypatch):
        monkeypatch.setattr(api, "sweep", fake_sweep)
        text, summary = run_experiment("fig18")
        assert text == get_experiment("fig18").render(summary.results)


class TestStaticTables:
    def test_table1_runs(self):
        assert len(table1.run()) == 3

    def test_table2_runs(self):
        rows = table2.run()
        assert [pitch for pitch, __ in rows] == [10.0, 5.0, 1.0, 0.2]

    def test_static_tables_have_no_cells(self):
        assert table1.cells() == []
        assert table2.cells() == []

    def test_static_tables_render_without_cells(self):
        assert table1.render({}).startswith("Table 1")
        assert table2.render({}).startswith("Table 2")

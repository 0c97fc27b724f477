"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.benchmark == "swim"
        assert args.refs == 30_000
        assert args.json is False

    def test_scheme_parsing_case_insensitive(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "cmp-snuca-3d"]
        )
        from repro.core.schemes import Scheme

        assert args.scheme == Scheme.CMP_SNUCA_3D

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_experiments_choices(self):
        args = build_parser().parse_args(["experiments", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "fig99"])

    def test_experiments_orchestrator_flags(self):
        args = build_parser().parse_args(
            ["experiments", "fig13", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir is None

    def test_sweep_defaults_cover_the_full_grid(self):
        from repro.core.schemes import Scheme
        from repro.workloads.benchmarks import BENCHMARK_NAMES

        args = build_parser().parse_args(["sweep"])
        assert args.schemes == list(Scheme)
        assert args.benchmarks == list(BENCHMARK_NAMES)
        assert args.cache_mb == [16]
        assert args.jobs == 1

    def test_sweep_grid_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--schemes", "CMP-DNUCA-3D", "--benchmarks", "art",
             "swim", "--cache-mb", "16", "32", "--jobs", "2", "--json"]
        )
        assert len(args.schemes) == 1
        assert args.benchmarks == ["art", "swim"]
        assert args.cache_mb == [16, 32]
        assert args.json is True

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "--layers", "2", "--pillars", "8"]) == 0
        out = capsys.readouterr().out
        assert "Chip: 2 layer(s)" in out
        assert "CPU 7" in out

    def test_thermal(self, capsys):
        assert main(["thermal", "--layers", "2", "--placement", "stacked"]) == 0
        out = capsys.readouterr().out
        assert "peak=" in out

    def test_thermal_2d(self, capsys):
        assert main(["thermal", "--layers", "1"]) == 0
        assert "peak=" in capsys.readouterr().out

    def test_run_small(self, capsys):
        assert main(
            ["run", "--benchmark", "art", "--refs", "1500", "--energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "IPC (aggregate)" in out
        assert "Energy breakdown" in out

    def test_run_json(self, capsys):
        assert main(
            ["run", "--benchmark", "art", "--refs", "1500", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["benchmark"] == "art"
        assert payload["stats"]["scheme"] == "CMP-DNUCA-3D"
        assert payload["stats"]["l2_hits"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--refs", "0"],
            ["run", "--warmup", "1.5"],
            ["sweep", "--refs", "-5"],
            ["run", "--fault", "bogus"],
            ["run", "--layers", "3"],
            ["run", "--cache-mb", "5"],
        ],
        ids=["refs", "warmup", "sweep-refs", "fault", "layers", "cache-mb"],
    )
    def test_bad_argument_is_a_usage_error(self, capsys, argv):
        # Reported by argparse before any system is built: one error
        # line naming the value, exit status 2, no traceback.
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro {argv[0]}: error: ")
        assert "Traceback" not in err

    def test_experiments_table2(self, capsys):
        assert main(["experiments", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_sweep_tiny_grid(self, capsys, tmp_path):
        argv = [
            "sweep", "--schemes", "CMP-DNUCA-3D", "--benchmarks", "art",
            "--refs", "800", "--cache-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Sweep results" in out
        assert "1 cells: 1 simulated, 0 cached, 0 failed" in out
        # Warm rerun: everything from the cache, nothing simulated.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cells: 0 simulated, 1 cached, 0 failed" in out

    def test_run_trace_exports_valid_chrome_json(self, capsys, tmp_path):
        from repro.sim.trace import validate_chrome_trace

        out_path = tmp_path / "out.trace.json"
        assert main(
            ["run", "--benchmark", "art", "--refs", "120",
             "--trace", str(out_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "trace:" in err and str(out_path) in err
        info = validate_chrome_trace(out_path.read_text())
        names = set(info["tracks"].values())
        assert any(n.startswith("router.") for n in names)
        assert any(n.startswith("pillar.") for n in names)
        assert any(n.startswith("cluster.") for n in names)
        assert info["flow_ids"]  # packet flows survived the round trip

    def test_run_trace_implies_cycle_mode(self):
        args = build_parser().parse_args(["run", "--trace", "out.json"])
        assert args.mode is None  # resolved when the spec is built
        assert args.trace == "out.json"
        assert args.trace_format == "chrome"
        assert args.trace_limit == 1_000_000

    def test_run_trace_jsonl_with_filter(self, capsys, tmp_path):
        out_path = tmp_path / "out.trace.jsonl"
        assert main(
            ["run", "--benchmark", "art", "--refs", "120",
             "--trace", str(out_path), "--trace-format", "jsonl",
             "--trace-filter", "pillar.*"]
        ) == 0
        lines = out_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-trace"
        for line in lines[1:]:
            assert json.loads(line)["track"].startswith("pillar.")

    def test_sweep_json_output(self, capsys, tmp_path):
        argv = [
            "sweep", "--schemes", "CMP-DNUCA-3D", "--benchmarks", "art",
            "--refs", "800", "--cache-dir", str(tmp_path), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulated"] == 1
        assert payload["cells"][0]["spec"]["benchmark"] == "art"
        assert payload["cells"][0]["stats"]["l2_hits"] > 0

"""Self-test of the cell benchmark harness, at a tiny trace size.

    python -m pytest benchmarks/cell/test_cell_bench.py -q

Runs ``run.py`` end to end at 2% of the benchmark's trace lengths, so
the whole file takes well under 30 s on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.02",
         "--seconds", "1", "--out", str(tmp_path / "out"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def runs(stdout: str) -> list[dict]:
    """Each run's printed lines and its JSON result."""
    found, lines = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            found.append({"lines": lines, "result": json.loads(line)})
            lines = []
        else:
            lines.append(line)
    return found


def digests(run: dict) -> dict:
    return {
        words[2]: words[3]
        for words in (line.split() for line in run["lines"])
        if words[:2] == ["#", "digest"]
    }


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace, kind):
    proc = bench(tmp_path, "--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    printed = runs(proc.stdout)
    assert [run["lines"][0].split()[1] for run in printed] == [
        w["name"] for w in CONTRACT["workloads"]
    ]
    for run in printed:
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in CONTRACT[kind]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            assert any(
                line.split()[0] == name and line.split()[-1] == unit
                for line in run["lines"]
            ), name


def test_corrupted_digest_fails_ops_and_seed_reaches_traces(tmp_path):
    expected = tmp_path / "expected.json"
    args = ("--workload", "model-2d-swim", "--expected", str(expected))
    made = bench(tmp_path, *args, "--seed", "7", "--runs", "2",
                 "--update-expected")
    assert made.returncode == 0, made.stderr
    seed7, seed8 = (digests(run) for run in runs(made.stdout))
    # Same workload, another --seed: the trace generator saw it.
    assert seed7["stats"] != seed8["stats"]

    checked = bench(tmp_path, *args, "--seed", "7")
    assert checked.returncode == 0, checked.stderr
    assert runs(checked.stdout)[0]["result"]["failed"] == 0

    data = json.loads(expected.read_text())
    data["7"]["model-2d-swim"]["digests"]["stats"] = "0" * 64
    expected.write_text(json.dumps(data))
    corrupted = bench(tmp_path, *args, "--seed", "7")
    result = runs(corrupted.stdout)[0]["result"]
    assert corrupted.returncode == 1
    assert result["failed"] > 0 and not result["correct"]
    assert "ops_failed 0 count" not in corrupted.stdout

"""Model-mode cell benchmark: end-to-end and per-layer metrics, checked.

Run from the repository root::

    python benchmarks/cell/run.py --workload model-3d-swim --seed 2006
    python benchmarks/cell/run.py --workload all --trace 1
    python benchmarks/cell/run.py --workload all --runs 10 --seed 1 \\
        --compare benchmarks/cell/baseline.json

Every metric is printed as ``name value unit``; the last line of each
run is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  It is a closed
loop: one op at a time from one driver.  Each pass runs in a fresh child
process (``child.py``), and every simulated result is checked against
``expected.json``.  See README.md for the workloads, the metrics and
their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from workloads import WORKLOADS, Workload, refs_per_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A run must end within the benchmark contract's 180 s; leave margin.
RUN_LIMIT_S = 170.0


class PassFailed(Exception):
    """A child pass died or ran out of time without a result."""


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one pass of ``child.py`` and return its JSON result.

    The child leads its own process group, so the sweep's workers die
    with it if it has to be killed.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        out, __ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(
            f"{cfg['workload']}: pass did not finish within the run limit"
        ) from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise PassFailed(
            f"{cfg['workload']}: pass exited with code {process.returncode}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2


# -- one run -----------------------------------------------------------------


def golden_entry(expected: dict, workload: Workload, seed: int,
                 scale: float) -> dict | None:
    """The committed digests for this run, if its seed and size have them."""
    entry = expected.get(str(seed), {}).get(workload.name)
    if entry and entry["refs_per_cpu"] == refs_per_cpu(workload, scale):
        return entry["digests"]
    return None


def check_ops(ops: list[dict], reference: dict | None,
              size: int) -> tuple[int, int]:
    """(attempted, failed) over every op of a run.

    An op fails for each of its ``size`` digests that it did not produce
    (an exception or a failed cell) or that differs from ``reference``.
    """
    attempted = failed = 0
    for op in ops:
        digests = op["digests"]
        attempted += size
        failed += size - len(digests)
        if reference is not None:
            failed += sum(
                1 for name, sha in digests.items()
                if reference.get(name) != sha
            )
    return attempted, failed


def end_to_end(workload: Workload, result: dict) -> dict:
    """The ``--trace 0`` metrics from an untraced pass.

    Times are reference seconds (see ``hostclock.py``); ``op_wall_s``,
    the median op's plain wall time, is printed beside them.
    """
    done = [op for op in result["ops"] if not op.get("error")]
    if not done:
        raise PassFailed(f"{workload.name}: no op completed")
    op_s = median([op["ref_s"] for op in done])
    setup_s = median(result["setup_s"])
    refs = result["refs_per_op"]
    if workload.kind == "sweep":
        # The cold regeneration per cell the grid delivers, so fan-out,
        # cache writes and the tail count against every cell.
        cell_s = op_s / result["cells_per_op"]
        refs_per_s = refs / op_s
    else:
        cell_s = op_s
        # run_trace time: the cell minus its set-up.  The untraced pass
        # only times public entry points, never inside repro.api.run.
        refs_per_s = refs / max(op_s - setup_s, 1e-9)
    metrics = {
        "cell_s": cell_s,
        "refs_per_s": refs_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "op_wall_s": median([op["wall_s"] for op in done]),
    }
    if workload.kind == "sweep":
        metrics["sweep_s"] = op_s
        metrics["fig13_saving_err_cycles"] = done[0]["saving_err_cycles"]
    return metrics


def run_once(args, workload: Workload, seed: int, expected: dict) -> dict:
    """One benchmark run: its passes, checks and metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cfg = {
        "workload": workload.name, "seed": seed, "scale": args.scale,
        "workdir": str(args.out), "traced": False,
        "seconds": args.seconds, "setups": workload.setups,
    }
    notes = []
    if args.trace:
        # One untraced op in a process as fresh as the traced one, so the
        # difference between the two is the tracing overhead.
        untraced = spawn({**cfg, "seconds": 0, "setups": 0}, deadline)
        traced = spawn({**cfg, "traced": True}, deadline)
        passes = [untraced, traced]
    else:
        passes = [spawn(cfg, deadline)]
    size = passes[0]["cells_per_op"] + (workload.kind == "sweep")
    golden = None if args.update_expected else golden_entry(
        expected, workload, seed, args.scale
    )
    ops = [op for result in passes for op in result["ops"]]
    # Without a committed entry the run's first complete op is the
    # reference, so repeats must agree and the traced op must equal the
    # untraced one.
    own = next((op["digests"] for op in ops if len(op["digests"]) == size),
               None)
    attempted, failed = check_ops(ops, golden or own, size)
    for op in ops:
        if op.get("error"):
            notes.append(f"op failed: {op['error']}")
    if golden is not None:
        notes.append(f"digests checked against expected.json, seed {seed}")
    else:
        notes.append("digests unchecked: no committed entry for seed "
                     f"{seed} at this size; checked only that ops agree")
    checks_ok = True
    if args.trace:
        traced = passes[1]
        metrics = dict(traced["layers"])
        base_s = untraced["ops"][0].get("wall_s")
        traced_s = traced["ops"][0].get("wall_s")
        metrics["trace.overhead_frac"] = (
            traced_s / base_s - 1.0 if base_s and traced_s else 0.0
        )
        frac = traced["self_sum_frac"]
        notes.append(f"layer self times sum to {frac:.4f} of the root span")
        checks_ok = abs(frac - 1.0) <= 0.01
        write_spans(args.out, workload, seed, traced, metrics)
    else:
        metrics = end_to_end(workload, passes[0])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(args.trace),
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": own or {},
        "notes": notes,
    }


def write_spans(out: Path, workload: Workload, seed: int, traced: dict,
                metrics: dict) -> None:
    """The traced pass's span table, kept in memory until now."""
    path = out / f"spans-{workload.name}-{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "metrics": metrics, "spans": traced["spans"],
                   "cells": traced["cells"]}, handle, indent=1)


#: Printed beside the contract metrics, not in the JSON result.
EXTRA_UNITS = {"op_wall_s": "s", "sweep_s": "s",
               "fig13_saving_err_cycles": "cycles"}


def report(run: dict, defs: list[dict]) -> None:
    """Print a run as ``name value unit`` lines, then its JSON line."""
    print(f"# {run['workload']} seed {run['seed']} trace {run['trace']}")
    for note in run["notes"]:
        print(f"# {note}")
    for name, sha in sorted(run["digests"].items()):
        print(f"# digest {name} {sha}")
    units = {d["name"]: d["unit"] for d in defs}
    for name, value in run["metrics"].items():
        print(f"{name} {value!r} {units.get(name) or EXTRA_UNITS[name]}")
    print(f"ops {run['attempted']} count")
    print(f"ops_failed {run['failed']} count")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            d["name"]: {"value": run["metrics"][d["name"]], "unit": d["unit"]}
            for d in defs
        },
    }))


# -- expected digests, baselines and comparison -------------------------------


def update_expected(path: Path, runs: list[dict], scale: float) -> None:
    """Store the digests of runs whose ops all agreed and succeeded."""
    data = json.loads(path.read_text()) if path.exists() else {}
    for run in runs:
        if not run["correct"]:
            raise SystemExit(f"not updating {path}: {run['workload']} "
                             f"seed {run['seed']} failed")
        workload = WORKLOADS[run["workload"]]
        data.setdefault(str(run["seed"]), {})[workload.name] = {
            "refs_per_cpu": refs_per_cpu(workload, scale),
            "digests": dict(sorted(run["digests"].items())),
        }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def record(path: Path, runs: list[dict]) -> None:
    """Append this invocation's runs to ``path`` as one set."""
    data = json.loads(path.read_text()) if path.exists() else {"sets": []}
    data["sets"].append({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": [
            {key: run[key] for key in ("workload", "seed", "trace", "correct",
                                       "attempted", "failed", "metrics")}
            for run in runs
        ],
    })
    path.write_text(json.dumps(data, indent=1) + "\n")


def compare(base: list[dict], new: list[dict], defs: list[dict]) -> bool:
    """Print each end-to-end metric's median delta against its bound.

    A metric whose runs spread wider than its bound is ``unresolved``
    rather than ``ok``, unless every new run beats every base run.
    Returns False when any metric got worse by more than its bound.
    """
    ok = True
    print(f"{'workload':16} {'metric':12} {'base':>11} {'new':>11} "
          f"{'worse':>7} {'bound':>6} {'spread':>13}  verdict")
    for name in sorted({run["workload"] for run in new}):
        for d in defs:
            metric = d["name"]
            old = [r["metrics"][metric] for r in base
                   if r["workload"] == name and r["trace"] == 0]
            cur = [r["metrics"][metric] for r in new
                   if r["workload"] == name and r["trace"] == 0]
            if not old or not cur:
                continue
            b, n = median(old), median(cur)
            lower = d["better"] == "lower"
            worse = (n - b) / b if lower else (b - n) / b
            beats_all = (max(cur) < min(old)) if lower else (
                min(cur) > max(old))
            if worse > d["bound"]:
                verdict = "REGRESSED"
                ok = False
            elif max(spread(old), spread(cur)) > d["bound"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:16} {metric:12} {b:11.5g} {n:11.5g} "
                  f"{worse:+7.1%} {d['bound']:6.0%} "
                  f"{spread(old):6.1%}/{spread(cur):6.1%}  {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=2006,
                        help="workload seed of the first run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds --seed, --seed+1, ...")
    parser.add_argument("--seconds", type=float,
                        help="measure ops for this long per run (at least "
                             "one op; default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every trace length (self-test only)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="span tables and scratch files")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="committed digests to check against")
    parser.add_argument("--update-expected", action="store_true",
                        help="store these runs' digests instead of checking")
    parser.add_argument("--record", type=Path,
                        help="append the runs to this file as one set")
    parser.add_argument("--compare", type=Path,
                        help="compare against this file's runs; with "
                             "--runs 0, its last untraced set against its "
                             "first")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = contract["per_layer"] if args.trace else contract["end_to_end"]
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    expected = (json.loads(args.expected.read_text())
                if args.expected.exists() else {})
    args.out.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    runs = []
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            try:
                run = run_once(args, WORKLOADS[name], seed, expected)
            except PassFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            report(run, defs)
            runs.append(run)

    if args.update_expected:
        update_expected(args.expected, runs, args.scale)
    if args.record:
        record(args.record, runs)
    ok = all(run["correct"] for run in runs)
    if args.compare:
        sets = [s for s in json.loads(args.compare.read_text())["sets"]
                if any(run["trace"] == 0 for run in s["runs"])]
        if args.runs == 0:
            base, runs = sets[0]["runs"], sets[-1]["runs"]
        else:
            base = [run for s in sets for run in s["runs"]]
        ok = compare(base, runs, contract["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

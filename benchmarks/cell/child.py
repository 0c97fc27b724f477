"""One pass over one workload, in its own process.

``python child.py '<json config>'`` prints one JSON object as its last
line of standard output.  ``run.py`` starts a fresh process per pass so
that ``peak_rss_mb`` covers one workload only, and so that the traced
pass's wrappers can never leak into an untraced measurement.

An untraced pass sets up the workload's cells several times (``setup_s``)
and then repeats the workload's op: one ``repro.api.run`` for a cell
workload, or a cold ``repro.api.sweep`` of the Fig 13 grid plus
``fig13.render`` for the sweep.  It times both in wall and reference
seconds (``hostclock.py``).  A traced pass runs the op once with the
span wrappers of ``spans.py`` installed, and restores them before it
returns.  Each op reports the sha256 of every simulated result, which
``run.py`` checks against the committed digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostclock import HostClock
from spans import SpanRecorder
from workloads import (
    PAPER_SAVING_CYCLES, SWEEP_JOBS, WORKLOADS, Workload, refs_per_cpu,
)

ROOT = Path(__file__).resolve().parents[2]


def sha256_of(data: object) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def workload_specs(workload: Workload, seed: int, scale: float) -> list:
    """The cells one op simulates; ``--seed`` becomes their workload seed."""
    from repro.core.schemes import Scheme
    from repro.experiments import fig13
    from repro.experiments.config import ExperimentScale
    from repro.experiments.spec import SimSpec

    sizing = ExperimentScale(
        workload.scale_name, refs_per_cpu(workload, scale), seed=seed
    )
    if workload.kind == "sweep":
        return fig13.cells(scale=sizing)
    return [SimSpec.make(Scheme(workload.scheme), workload.benchmark, sizing)]


def set_up(specs: list) -> None:
    """Build every cell's system and traces, exactly as ``simulate`` does."""
    from repro.core.system import NetworkInMemory
    from repro.experiments.spec import build_system_config
    from repro.workloads.generator import SyntheticWorkload

    for spec in specs:
        config = build_system_config(spec)
        NetworkInMemory(config)
        SyntheticWorkload(
            spec.benchmark,
            num_cpus=config.num_cpus,
            refs_per_cpu=spec.scale.refs_per_cpu,
            seed=spec.cell_seed(),
        ).traces()


def probed(clock: HostClock):
    """Op timer of the untraced pass: wall and reference seconds."""
    def timer(work):
        mark = clock.mark()
        result = work()
        wall = clock.elapsed(mark)
        return {"wall_s": wall, "ref_s": wall * clock.speed(mark)}, result

    return timer


def spanned(recorder: SpanRecorder):
    """Op timer of the traced pass: the op is the root span."""
    def timer(work):
        start = time.perf_counter()
        result = recorder.wrap("bench", "op", work)()
        return {"wall_s": time.perf_counter() - start}, result

    return timer


def cell_op(specs: list, workdir: str, timer, traced: bool) -> dict:
    from repro import api

    times, result = timer(lambda: api.run(specs[0]))
    return {
        **times,
        "digests": {"stats": sha256_of(result.stats.to_dict())},
        "stats": result.stats,
    }


def sweep_op(specs: list, workdir: str, timer, traced: bool) -> dict:
    """Cold grid into an empty cache and render; untraced, a warm replay.

    The replay must simulate nothing and return the same results, which
    checks the cache round trip.  The traced pass skips it, so that its
    only root span is the regeneration itself.
    """
    from repro import api
    from repro.core.schemes import Scheme
    from repro.experiments import fig13
    from repro.experiments.orchestrator import results_by_spec

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        def regenerate():
            summary = api.sweep(specs, jobs=SWEEP_JOBS, cache_dir=cache_dir)
            if summary.failures:
                return summary, None
            return summary, fig13.render(results_by_spec(summary, specs))

        times, (summary, table) = timer(regenerate)
        digests = {
            spec.label(): sha256_of(stats.to_dict())
            for spec, stats in summary.results.items()
        }
        if table is None:
            return {**times, "digests": digests,
                    "error": f"{summary.failed} cell(s) failed"}
        digests["table"] = sha256_of(table)
        if not traced:
            warm = api.sweep(specs, jobs=SWEEP_JOBS, cache_dir=cache_dir)
            if warm.simulated or warm.results != summary.results:
                return {**times, "digests": {},
                        "error": "warm cache replay differs from cold sweep"}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    mean = fig13.averages(fig13.tabulate(summary.results))
    saving = mean[Scheme.CMP_DNUCA_2D] - mean[Scheme.CMP_DNUCA_3D]
    return {
        **times,
        "digests": digests,
        "saving_err_cycles": abs(saving - PAPER_SAVING_CYCLES),
    }


OPS = {"cell": cell_op, "sweep": sweep_op}


def guarded(op, specs: list, workdir: str, timer, traced: bool) -> dict:
    """Run one op; an exception becomes a failed op, not a dead process."""
    try:
        return op(specs, workdir, timer, traced)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return {"digests": {}, "error": f"{type(exc).__name__}: {exc}"}


def untraced_pass(cfg: dict, workload: Workload, specs: list) -> dict:
    op = OPS[workload.kind]
    ops = []
    with HostClock() as clock:
        # One speed reading for the whole set-up phase: a set-up alone
        # can be shorter than the probe period.
        phase = clock.mark()
        walls = []
        for __ in range(cfg["setups"]):
            mark = clock.mark()
            set_up(specs)
            walls.append(clock.elapsed(mark))
        setups = [wall * clock.speed(phase) for wall in walls]
        timer = probed(clock)
        start = time.perf_counter()
        while True:
            ops.append(guarded(op, specs, cfg["workdir"], timer, False))
            elapsed = time.perf_counter() - start
            # Start another op only if it should end within the run's
            # seconds, so a slow host gets fewer ops, not a longer run.
            if elapsed * (len(ops) + 1) / len(ops) > cfg["seconds"]:
                break
    for record in ops:
        record.pop("stats", None)
    return {"setup_s": setups, "ops": ops, "peak_rss_mb": peak_rss_mb()}


# -- traced pass -------------------------------------------------------------


def install_cell_spans(recorder: SpanRecorder, seen: dict) -> None:
    """Wrap the public calls of every layer a model-mode cell goes through."""
    from repro import api
    from repro.cache.nuca import NucaL2
    from repro.coherence.protocol import CoherentL1System
    from repro.core import latency_model
    from repro.core.latency_model import LatencyModel
    from repro.core.system import NetworkInMemory
    from repro.workloads.generator import SyntheticWorkload

    def count_refs(args, traces):
        seen["refs"] += sum(len(trace) for trace in traces)

    def keep_system(args, result):
        seen["system"] = args[0]

    recorder.patch(api, "run", "api")
    recorder.patch(SyntheticWorkload, "traces", "workloads", after=count_refs)
    recorder.patch(NetworkInMemory, "__init__", "core.system", "init",
                   after=keep_system)
    recorder.patch(NetworkInMemory, "run_trace", "core.system")
    recorder.patch(NetworkInMemory, "l2_transaction", "core.system")
    recorder.patch(CoherentL1System, "access", "coherence")
    recorder.patch(CoherentL1System, "l2_eviction", "coherence")
    recorder.patch(NucaL2, "access", "cache")
    recorder.patch(LatencyModel, "packet_latency", "core.latency_model")
    recorder.patch(LatencyModel, "note_packet", "core.latency_model")
    recorder.patch(LatencyModel, "path", "core.latency_model")
    # path() looks best_pillar up in its own module's namespace.
    recorder.patch(latency_model, "best_pillar", "noc.routing")


def install_sweep_spans(recorder: SpanRecorder, log_path: str) -> None:
    """Span the sweep and cache writes; log each forked cell's interval."""
    from repro import api
    from repro.experiments import fig13, orchestrator

    recorder.patch(api, "sweep", "experiments.orchestrator")
    recorder.patch(orchestrator.ResultCache, "put",
                   "experiments.orchestrator", "cache_put")
    recorder.patch(fig13, "render", "experiments.fig13")
    run_spec = orchestrator.run_spec

    # Runs in the forked workers, which inherit this patch.
    def logged_run_spec(spec, *args, **kwargs):
        start = time.monotonic()
        stats = run_spec(spec, *args, **kwargs)
        line = json.dumps({
            "pid": os.getpid(), "spec_hash": spec.spec_hash(),
            "start": start, "end": time.monotonic(),
        })
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return stats

    recorder.replace(orchestrator, "run_spec", logged_run_spec)


def tail_s(cells: list[dict], jobs: int) -> float:
    """Time from the last moment all ``jobs`` workers were busy to the end."""
    if not cells:
        return 0.0
    events = sorted(
        [(cell["end"], -1) for cell in cells]
        + [(cell["start"], 1) for cell in cells]
    )
    running = 0
    full_until = min(cell["start"] for cell in cells)
    for moment, step in events:
        if running >= jobs and running + step < jobs:
            full_until = moment
        running += step
    return max(cell["end"] for cell in cells) - full_until


def layer_metrics(
    recorder: SpanRecorder, seen: dict, cells: list[dict], stats
) -> dict:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    lm = "core.latency_model"
    packets = (recorder.calls(lm, "packet_latency", outside_layer=True)
               + recorder.calls(lm, "note_packet", outside_layer=True))
    path_calls = recorder.calls(lm, "path")
    system = seen.get("system")
    snapshot = system.stats.snapshot() if system is not None else {}
    hits = snapshot.get("l2.hits", 0)
    sweep_s = recorder.total_s("experiments.orchestrator", "sweep")
    busy = sum(cell["end"] - cell["start"] for cell in cells)
    return {
        "api.self_s": recorder.self_s("api"),
        "workloads.traces_s": recorder.self_s("workloads"),
        "workloads.refs": seen["refs"],
        "core.system.init_self_s": recorder.self_s("core.system", "init"),
        "core.system.run_trace_self_s":
            recorder.self_s("core.system", "run_trace"),
        "core.system.l2_transaction_calls":
            recorder.calls("core.system", "l2_transaction"),
        "core.system.l2_transaction_self_s":
            recorder.self_s("core.system", "l2_transaction"),
        "coherence.access_calls": recorder.calls("coherence", "access"),
        "coherence.self_s": recorder.self_s("coherence"),
        "coherence.l1_miss_rate": stats.l1_miss_rate if stats else 0.0,
        "coherence.invalidations": stats.invalidations if stats else 0,
        "cache.access_calls": recorder.calls("cache", "access"),
        "cache.self_s": recorder.self_s("cache"),
        "cache.l2_hit_rate": stats.l2_hit_rate if stats else 0.0,
        "cache.step2_hit_share":
            snapshot.get("l2.hits_step2", 0) / hits if hits else 0.0,
        "cache.migrations": stats.migrations if stats else 0,
        f"{lm}.packet_latency_calls": recorder.calls(lm, "packet_latency"),
        f"{lm}.note_packet_calls": recorder.calls(lm, "note_packet"),
        f"{lm}.path_calls": path_calls,
        f"{lm}.self_s": recorder.self_s(lm),
        f"{lm}.path_calls_per_packet":
            path_calls / packets if packets else 0.0,
        "noc.routing.best_pillar_calls":
            recorder.calls("noc.routing", "best_pillar"),
        "noc.routing.best_pillar_self_s": recorder.self_s("noc.routing"),
        "experiments.orchestrator.sweep_s": sweep_s,
        "experiments.orchestrator.cell_busy_s_sum": busy,
        "experiments.orchestrator.idle_frac":
            1.0 - busy / (SWEEP_JOBS * sweep_s) if sweep_s else 0.0,
        "experiments.orchestrator.tail_s": tail_s(cells, SWEEP_JOBS),
        "experiments.orchestrator.cache_put_s":
            recorder.self_s("experiments.orchestrator", "cache_put"),
        "trace.root_s": recorder.root_s(),
    }


def traced_pass(cfg: dict, workload: Workload, specs: list) -> dict:
    recorder = SpanRecorder()
    seen: dict = {"refs": 0}
    log_path = os.path.join(cfg["workdir"], f"cells-{os.getpid()}.jsonl")
    try:
        if workload.kind == "sweep":
            install_sweep_spans(recorder, log_path)
        else:
            install_cell_spans(recorder, seen)
        record = guarded(OPS[workload.kind], specs, cfg["workdir"],
                         spanned(recorder), True)
    finally:
        recorder.restore()
    cells = []
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as handle:
            cells = [json.loads(line) for line in handle]
        os.unlink(log_path)
    stats = record.pop("stats", None)
    root = recorder.root_s()
    attributed = sum(row["self_s"] for row in recorder.rows())
    return {
        "ops": [record],
        "layers": layer_metrics(recorder, seen, cells, stats),
        "self_sum_frac": attributed / root if root else 0.0,
        "spans": recorder.rows(),
        "cells": cells,
    }


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[cfg["workload"]]
    specs = workload_specs(workload, cfg["seed"], cfg["scale"])
    os.makedirs(cfg["workdir"], exist_ok=True)
    run = traced_pass if cfg["traced"] else untraced_pass
    result = run(cfg, workload, specs)
    result["refs_per_op"] = sum(
        spec.num_cpus * spec.scale.refs_per_cpu for spec in specs
    )
    result["cells_per_op"] = len(specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

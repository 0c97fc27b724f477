"""Bench: sweep-service load — 1000 concurrent submissions, 4 simulations.

Boots a real :class:`SweepServer` (process executor, fresh cache) and
fires ``SUBMISSIONS`` concurrent submissions of the same 4-cell grid
from rotating tenants over HTTP, starting **cold** so the harness
exercises every path at once: the first submission enqueues the four
cells, the storm behind it rides along via in-flight dedup, and
everything after the cells land is a submit-time cache hit.  A warm
resubmission pass then measures the steady mostly-cached state.

Acceptance bars (the ISSUE's load target):
  - every submission is accepted and completes with zero failed cells;
  - the four distinct specs are simulated exactly once each —
    ``cells_simulated == 4`` after 1000 submissions of 4000 cells;
  - results land in ``BENCH_serve.json`` with throughput and job-latency
    percentiles.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec
from repro.serve.client import AsyncServeClient, ServerBusy
from repro.serve.journal import JOURNAL_NAME
from repro.serve.scheduler import JobStore
from repro.serve.server import SweepServer

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

SCALE = ExperimentScale(name="serve-load", refs_per_cpu=200)
GRID = [
    SimSpec.make(scheme, benchmark, scale=SCALE)
    for scheme in (Scheme.CMP_DNUCA_3D, Scheme.CMP_SNUCA_3D)
    for benchmark in ("art", "swim")
]
SUBMISSIONS = 1000
TENANTS = 8
WORKERS = 4
MAX_PENDING = 1024
CONCURRENCY = 128  # simultaneous open client connections (fd budget)


def _percentile(sorted_values: list, q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


async def _submit_and_wait(
    client: AsyncServeClient, gate: asyncio.Semaphore
) -> dict:
    """One tenant submission: submit (retrying on 429) and run to done."""
    start = time.perf_counter()
    attempts = 0
    async with gate:
        while True:
            try:
                snapshot = await client.submit(GRID)
                break
            except ServerBusy as busy:
                attempts += 1
                if attempts > 50:
                    raise
                await asyncio.sleep(busy.retry_after_s)
        if snapshot.state != "done":
            snapshot = await client.wait(
                snapshot.job_id, poll_s=0.2, timeout_s=600.0
            )
    return {
        "latency_s": time.perf_counter() - start,
        "failed": snapshot.failed,
        "done": snapshot.done,
        "retries": attempts,
    }


async def _storm() -> dict:
    store = JobStore(
        workers=WORKERS,
        max_pending=MAX_PENDING,
        use_cache=True,
        cache_dir=str(REPO_ROOT / ".repro_cache_bench"),
    )
    # A fresh cache directory per run: the cold phase must really be cold.
    import shutil

    shutil.rmtree(store.cache.root, ignore_errors=True)
    await store.start()
    server = SweepServer(store, port=0)
    port = await server.start()
    try:
        clients = [
            AsyncServeClient(port=port, tenant=f"tenant-{i}")
            for i in range(TENANTS)
        ]
        gate = asyncio.Semaphore(CONCURRENCY)

        start = time.perf_counter()
        outcomes = await asyncio.gather(*(
            _submit_and_wait(clients[i % TENANTS], gate)
            for i in range(SUBMISSIONS)
        ))
        elapsed = time.perf_counter() - start

        # Steady-state pass: everything is cached, jobs finish at submit.
        warm_start = time.perf_counter()
        warm = await clients[0].submit(GRID)
        warm_latency = time.perf_counter() - warm_start
        totals = await clients[0].stats()
    finally:
        await server.close()
        await store.close()
        shutil.rmtree(store.cache.root, ignore_errors=True)

    latencies = sorted(item["latency_s"] for item in outcomes)
    return {
        "elapsed_s": elapsed,
        "submissions_per_sec": SUBMISSIONS / elapsed,
        "failed_cells": sum(item["failed"] for item in outcomes),
        "delivered_cells": sum(item["done"] for item in outcomes),
        "busy_retries": sum(item["retries"] for item in outcomes),
        "job_latency_s": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1],
        },
        "warm_resubmit": {
            "state_at_submit": warm.state,
            "latency_s": warm_latency,
            "cached": warm.cached,
        },
        "totals": totals,
    }


def test_serve_load(once):
    results = once(lambda: asyncio.run(_storm()))

    payload = {
        "benchmark": "serve_load",
        "config": {
            "submissions": SUBMISSIONS,
            "grid_cells": len(GRID),
            "tenants": TENANTS,
            "workers": WORKERS,
            "max_pending": MAX_PENDING,
            "concurrency": CONCURRENCY,
            "refs_per_cpu": SCALE.refs_per_cpu,
        },
        "results": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    totals = results["totals"]
    # Zero failed cells across a thousand concurrent submissions.
    assert results["failed_cells"] == 0
    assert totals["cells_failed"] == 0
    assert totals["jobs_done"] >= SUBMISSIONS
    # Every tenant got every cell...
    assert results["delivered_cells"] == SUBMISSIONS * len(GRID)
    # ...but the duplicated grid was simulated exactly once per spec.
    assert totals["cells_simulated"] == len(GRID)
    # (storm: 999 duplicate grids; plus the warm resubmission's 4 hits)
    assert (
        totals["cells_cached"] + totals["cells_deduped"]
        == SUBMISSIONS * len(GRID)
    )
    # The warm pass is a pure cache hit: done before the 202 returns.
    assert results["warm_resubmit"]["state_at_submit"] == "done"
    assert results["warm_resubmit"]["cached"] == len(GRID)


# -- journal overhead gate -----------------------------------------------------
#
# The durability journal rides the submission hot path: every accepted
# job that queues or joins in-flight cells appends a "job" record before
# the 202 returns.  This gate keeps that cost honest.  It times
# deduplicated resubmissions — a head with no local workers and an empty
# cache leaves the first submission's cells queued, so every later
# submission of the same grid subscribes to them, and the journal, when
# on, appends one record per submission.  (A fully cached grid skips the
# journal, so timing those would compare the same code on both sides.)
# Each of PAIRS pairs runs a baseline and a journaled head at once and
# alternates submissions between them, so host noise lands on both
# sides alike; the median journaled/baseline throughput ratio must stay
# within 15%.

RESUBMISSIONS = 400
PAIRS = 7


async def _resubmission_pair(root: str) -> dict:
    """Deduplicated resubmissions/s with the journal off and on."""
    stores, servers, clients = [], [], []
    try:
        for journal in (False, True):
            store = JobStore(
                workers=0, use_cache=True, cache_dir=f"{root}-{int(journal)}",
                journal=journal,
            )
            await store.start()
            stores.append(store)
            server = SweepServer(store, port=0)
            port = await server.start()
            servers.append(server)
            clients.append(AsyncServeClient(port=port, tenant="bench"))
        for client in clients:
            primer = await client.submit(GRID)
            assert primer.queued == len(GRID)  # nothing runs the cells

        elapsed = [0.0, 0.0]
        for index in range(RESUBMISSIONS):
            for side in (index % 2, 1 - index % 2):
                start = time.perf_counter()
                await clients[side].submit(GRID)
                elapsed[side] += time.perf_counter() - start
        records = []
        for store in stores:
            assert store.pending_cells == len(GRID)  # all deduplicated
            path = Path(store.cache.root, JOURNAL_NAME)
            records.append(
                len(path.read_text().splitlines()) if path.exists() else 0
            )
    finally:
        for server in servers:
            await server.close()
        for store in stores:
            await store.close()
    baseline, journaled = (RESUBMISSIONS / side for side in elapsed)
    return {
        "baseline_submissions_per_sec": baseline,
        "journaled_submissions_per_sec": journaled,
        "baseline_journal_records": records[0],
        "journaled_journal_records": records[1],
        "throughput_ratio": journaled / baseline,
    }


async def _journal_overhead() -> dict:
    import shutil
    import statistics
    import tempfile

    root = tempfile.mkdtemp(prefix="repro-journal-bench-")
    try:
        pairs = [
            await _resubmission_pair(f"{root}/{index}")
            for index in range(PAIRS)
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "resubmissions": RESUBMISSIONS,
        "grid_cells": len(GRID),
        "pairs": pairs,
        "median_throughput_ratio": statistics.median(
            pair["throughput_ratio"] for pair in pairs
        ),
    }


def test_journal_overhead(once):
    results = once(lambda: asyncio.run(_journal_overhead()))

    payload = {}
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
        except ValueError:
            payload = {}
    payload["journal_overhead"] = results
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    # Both sides ran the dedup path; only the journaled one wrote records.
    for pair in results["pairs"]:
        assert pair["baseline_journal_records"] == 0, pair
        assert pair["journaled_journal_records"] > RESUBMISSIONS, pair
    # The WAL must stay cheap: within 15% of the in-memory submit path.
    assert results["median_throughput_ratio"] >= 0.85, results

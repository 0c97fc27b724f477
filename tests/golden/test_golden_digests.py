"""Tier-1 gate: simulated results are bit-identical to committed digests.

Every cell of the golden grids (:mod:`tests.golden.regen`) is simulated
again and the sha256 of its ``RunStats.to_dict()`` compared with
``tests/golden/model_digests.json`` or, for the cycle-mode cells,
``tests/golden/cycle_digests.json``.  One golden cell also travels both
routes of the sweep service's single execution path — a slot of the
head's own pool (``JobStore(runner=run_spec)``) and a remote
:class:`~repro.serve.worker.WorkerNode` lease — and must come back with
the committed digest.  A mismatch means a simulated number changed: fix
the regression, or regenerate with ``python tests/golden/regen.py`` and
explain the diff.
"""

import asyncio

from repro.experiments.spec import run_spec
from repro.serve.chaos import RestartableHead
from repro.serve.scheduler import JobStore
from repro.serve.worker import WorkerNode
from tests.golden.regen import (
    CYCLE_DIGESTS, CYCLE_GRID, GRID, committed, compute, digest,
)

#: The golden cell sent through the sweep service.
SERVICE_SPEC = next(spec for spec in GRID if spec.benchmark == "art")


def test_grid_matches_committed_digests():
    expected = committed()
    assert sorted(expected) == sorted(spec.label() for spec in GRID)
    assert compute(GRID) == expected


def test_cycle_grid_matches_committed_digests():
    expected = committed(CYCLE_DIGESTS)
    assert sorted(expected) == sorted(spec.label() for spec in CYCLE_GRID)
    assert compute(CYCLE_GRID) == expected


def test_head_local_pool_returns_golden_digest():
    async def scenario():
        store = JobStore(workers=1, use_cache=False, runner=run_spec)
        await store.start()
        try:
            job = await store.submit([SERVICE_SPEC])
            await asyncio.wait_for(job.wait(), timeout=120.0)
            return job.cells[0], dict(store.totals)
        finally:
            await store.close()

    cell, totals = asyncio.run(scenario())
    assert cell.origin == "simulated"
    assert totals["cells_remote"] == 0  # the head's own pool ran it
    assert digest(cell.stats) == committed()[SERVICE_SPEC.label()]


def test_worker_lease_returns_golden_digest(tmp_path):
    head = RestartableHead(tmp_path / "head").start()  # head-only
    try:
        client = head.client()
        job_id = client.submit([SERVICE_SPEC]).job_id
        node = WorkerNode(head.url, jobs=1, use_cache=False)
        counters = node.run(max_batches=1)
        results = client.results(job_id)
        totals = client.stats()
    finally:
        head.kill()
    assert counters["cells_simulated"] == 1
    assert totals["cells_remote"] == 1
    (result,) = results.results
    assert digest(result.stats) == committed()[SERVICE_SPEC.label()]

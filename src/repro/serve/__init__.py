"""``repro.serve``: the multi-tenant, multi-node sweep service.

Turns the CLI batch tool into an async simulation server:

* :mod:`repro.serve.scheduler` — the :class:`~repro.serve.scheduler.JobStore`
  core: per-tenant fair queuing, in-flight dedup by ``spec_hash``,
  backpressure via :class:`~repro.serve.scheduler.QueueFullError`, and
  the one lease path (grant / run / push / reap-and-requeue) that both
  the head's own pool and distributed workers execute cells through.
* :mod:`repro.serve.journal` — the durable head journal: an append-only
  JSONL write-ahead log under the cache dir that lets a killed head
  recover its jobs, queues, and open leases on restart.
* :mod:`repro.serve.protocol` — stdlib HTTP framing plus the versioned
  typed wire messages (frozen dataclasses sharing one annotation-driven
  codec) every peer shares; version skew fails loudly with a structured
  400.
* :mod:`repro.serve.server` — a stdlib-only asyncio HTTP/JSON front end
  (submit grids, stream NDJSON progress, fetch results and cached
  artifacts, grant leases) started by ``python -m repro serve``.
* :mod:`repro.serve.worker` — the remote worker pull loop
  (``repro serve --role worker --head URL``): lease a batch, heartbeat,
  execute via :func:`~repro.serve.scheduler.cell_outcome`,
  push results back for artifact replication; rides out head restarts
  with jittered backoff and drains gracefully on ``SIGTERM``.
* :mod:`repro.serve.client` — sync and async clients raising one typed
  :class:`~repro.serve.client.ServeError` hierarchy; ``repro sweep
  --server URL`` routes an ordinary sweep through a running head.
* :mod:`repro.serve.backoff` — the shared full-jitter backoff helper
  used by clients and workers.
* :mod:`repro.serve.chaos` — deterministic fault injection (dropped /
  duplicated RPCs, heartbeat blackouts, head kills) for crash-safety
  testing.

Everything rides on the content-addressed ``.repro_cache`` store, so a
head, its workers, and local sweeps sharing a cache directory also
share results.
"""

from repro.serve.backoff import Backoff, jittered
from repro.serve.chaos import ChaosClient, ChaosSchedule, RestartableHead
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.journal import Journal
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.scheduler import (
    Job,
    JobStore,
    Lease,
    QueueFullError,
    UnknownLeaseError,
)
from repro.serve.server import SweepServer
from repro.serve.worker import WorkerNode

__all__ = [
    "AsyncServeClient",
    "Backoff",
    "ChaosClient",
    "ChaosSchedule",
    "Job",
    "JobStore",
    "Journal",
    "Lease",
    "PROTOCOL_VERSION",
    "QueueFullError",
    "RestartableHead",
    "ServeClient",
    "ServeError",
    "SweepServer",
    "UnknownLeaseError",
    "WorkerNode",
    "jittered",
]

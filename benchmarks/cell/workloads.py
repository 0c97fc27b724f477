"""The benchmark's workloads: which cells run, at what size, how often.

All run on 8 CPUs, a 16 MB L2, 2 layers and 8 pillars (the ``SimSpec``
defaults).  The table is plain data, so the driver can read it without
importing the simulator; ``child.py`` turns it into specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Worker processes for the sweep: the core count of the reference
#: machine, so the benchmark never runs more processes than cores.
SWEEP_JOBS = 2

#: The paper's 2D -> 3D saving in average L2 hit latency (Section 5.2:
#: ~10 cycles from stacking plus ~7 from migration).
PAPER_SAVING_CYCLES = 17.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"cell"``: one ``repro.api.run`` per op.  ``"sweep"``: the whole
    #: Fig 13 grid through ``repro.api.sweep`` plus ``fig13.render``.
    kind: str
    refs_per_cpu: int
    #: Set-ups timed before the ops; ``setup_s`` is their median.
    setups: int
    #: ``ExperimentScale.name``: at seed 2006 the model cells equal the
    #: quick/full cells the experiments use, so their digests match the
    #: cells ``repro run`` produces.
    scale_name: str
    scheme: Optional[str] = None
    benchmark: Optional[str] = None


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Streaming and write-heavy with migration on: pillar routing and
        # the latency model dominate, so a pillar-table change shows here.
        Workload("model-3d-swim", "cell", 30_000, setups=5,
                 scale_name="quick", scheme="CMP-DNUCA-3D",
                 benchmark="swim"),
        # Same trace on one layer: best_pillar is never called, but the
        # two-step search rounds still drive the latency model.
        Workload("model-2d-swim", "cell", 30_000, setups=5,
                 scale_name="quick", scheme="CMP-DNUCA-2D",
                 benchmark="swim"),
        # Perfect search, read-mostly hot set, twice the trace: the
        # driver loop, L1/coherence and NUCA dominate.
        Workload("model-edge-art", "cell", 60_000, setups=5,
                 scale_name="full", scheme="CMP-DNUCA", benchmark="art"),
        # The cold Fig 13 regeneration: process fan-out, result cache and
        # the slowest cell setting the tail.  One set-up builds all 36
        # cells' systems and traces.
        Workload("sweep-fig13", "sweep", 6_000, setups=3,
                 scale_name="sweep"),
    )
}


def refs_per_cpu(workload: Workload, scale: float) -> int:
    """References per CPU after the ``--scale`` factor (at least 1)."""
    return max(1, round(workload.refs_per_cpu * scale))

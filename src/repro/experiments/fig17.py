"""Figure 17: impact of the pillar count on CMP-DNUCA-3D.

Fewer pillars means more contention for the vertical buses and longer
in-plane detours to reach one.  The floorplan (CPU positions) is held
fixed at the 8-pillar reference placement while the via budget varies —
the experiment isolates the interconnect effect, exactly the knob the
inter-layer via pitch controls (``SimSpec.fixed_floorplan``).  Shape
target: moving from 8 pillars to 2 costs 1-7 cycles of average L2
latency.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec

BENCHMARKS = ("art", "galgel", "mgrid", "swim")
PILLAR_COUNTS = (8, 4, 2)


def cells(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    pillar_counts: tuple[int, ...] = PILLAR_COUNTS,
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """Pillar sweep for CMP-DNUCA-3D on the pinned reference floorplan."""
    return [
        SimSpec.make(
            Scheme.CMP_DNUCA_3D, benchmark, scale=scale,
            pillars=pillars, fixed_floorplan=True,
        )
        for benchmark in benchmarks
        for pillars in pillar_counts
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[int, float]]:
    """hit latency[benchmark][pillar count] for CMP-DNUCA-3D."""
    table: dict[str, dict[int, float]] = {}
    for spec, stats in results.items():
        table.setdefault(spec.benchmark, {})[spec.pillars] = (
            stats.avg_l2_hit_latency
        )
    return table


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    rows = [
        [bench] + [f"{table[bench][p]:.1f}" for p in PILLAR_COUNTS]
        for bench in table
    ]
    return format_table(
        ["benchmark"] + [f"{p} pillars" for p in PILLAR_COUNTS],
        rows,
        title=(
            "Figure 17: average L2 hit latency vs pillar count, "
            "CMP-DNUCA-3D (cycles)"
        ),
    )

"""Figure 13: average L2 hit latency under the four schemes.

Paper shape targets: CMP-DNUCA and CMP-DNUCA-2D are competitive;
CMP-SNUCA-3D beats CMP-DNUCA-2D by ~10 cycles on average despite doing no
migration; CMP-DNUCA-3D saves a further ~7 cycles (~17 total).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.workloads.benchmarks import BENCHMARK_NAMES
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import SCHEME_ORDER
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec


def cells(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """The scheme x benchmark grid at the default topology."""
    return [
        SimSpec.make(scheme, benchmark, scale=scale)
        for benchmark in benchmarks
        for scheme in SCHEME_ORDER
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[Scheme, float]]:
    """Average L2 hit latency per benchmark per scheme (cycles)."""
    table: dict[str, dict[Scheme, float]] = {}
    for spec, stats in results.items():
        table.setdefault(spec.benchmark, {})[spec.scheme] = (
            stats.avg_l2_hit_latency
        )
    return table


def averages(results: dict[str, dict[Scheme, float]]) -> dict[Scheme, float]:
    """Per-scheme mean over benchmarks."""
    return {
        scheme: sum(row[scheme] for row in results.values()) / len(results)
        for scheme in SCHEME_ORDER
    }


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    rows = [
        [bench] + [f"{table[bench][s]:.1f}" for s in SCHEME_ORDER]
        for bench in table
    ]
    mean = averages(table)
    rows.append(["AVERAGE"] + [f"{mean[s]:.1f}" for s in SCHEME_ORDER])
    return format_table(
        ["benchmark"] + [s.value for s in SCHEME_ORDER],
        rows,
        title="Figure 13: average L2 hit latency (cycles)",
    )

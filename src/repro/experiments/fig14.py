"""Figure 14: block migrations, normalized to CMP-DNUCA-2D.

Paper shape targets: the 3D scheme migrates much less frequently than the
2D schemes (the 3D vicinity cylinder already covers the data); CMP-DNUCA
(per-hit bankset promotion) migrates more than our 2D scheme.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.workloads.benchmarks import BENCHMARK_NAMES
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec

# Fig 14 plots these two, normalized against CMP-DNUCA-2D.
PLOTTED = (Scheme.CMP_DNUCA, Scheme.CMP_DNUCA_3D)


def cells(
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """Plotted schemes plus the normalization baseline, per benchmark.

    These are the same default-topology cells Fig 13 simulates, so a
    shared cache satisfies this figure without running anything.
    """
    return [
        SimSpec.make(scheme, benchmark, scale=scale)
        for benchmark in benchmarks
        for scheme in (Scheme.CMP_DNUCA_2D, *PLOTTED)
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[Scheme, float]]:
    """Migration counts normalized to CMP-DNUCA-2D, per benchmark."""
    migrations: dict[str, dict[Scheme, int]] = {}
    for spec, stats in results.items():
        migrations.setdefault(spec.benchmark, {})[spec.scheme] = (
            stats.migrations
        )
    table: dict[str, dict[Scheme, float]] = {}
    for benchmark, row in migrations.items():
        baseline = row[Scheme.CMP_DNUCA_2D]
        table[benchmark] = {
            scheme: (row[scheme] / baseline if baseline else float("inf"))
            for scheme in PLOTTED
        }
    return table


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    rows = [
        [bench] + [f"{table[bench][s]:.2f}" for s in PLOTTED]
        for bench in table
    ]
    mean = {
        s: sum(r[s] for r in table.values()) / len(table) for s in PLOTTED
    }
    rows.append(["AVERAGE"] + [f"{mean[s]:.2f}" for s in PLOTTED])
    return format_table(
        ["benchmark"] + [s.value for s in PLOTTED],
        rows,
        title=(
            "Figure 14: block migrations normalized to CMP-DNUCA-2D "
            "(= 1.0)"
        ),
    )

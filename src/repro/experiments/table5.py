"""Table 5: benchmark characterization.

Reports the paper's recorded values (fast-forward cycles and L2
transaction counts for the 2 B-cycle sample) next to the synthetic
generator's measured behaviour at the current scale: L1 miss rate and L2
transactions.  The shape target is the *relative* intensity ordering —
mgrid, swim and wupwise must dominate the others in L2 transactions, as
their higher L1 miss rates dictate.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.workloads.benchmarks import BENCHMARKS
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec


def cells(
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """One CMP-DNUCA-3D run per benchmark (shared with Fig 13's column)."""
    return [
        SimSpec.make(Scheme.CMP_DNUCA_3D, name, scale=scale)
        for name in BENCHMARKS
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[str, float]]:
    """Per-benchmark: paper columns plus measured L1 miss / L2 volume."""
    stats_by_benchmark = {spec.benchmark: stats for spec, stats in results.items()}
    table: dict[str, dict[str, float]] = {}
    for name, profile in BENCHMARKS.items():
        stats = stats_by_benchmark[name]
        table[name] = {
            "fastforward_mcycles": profile.fastforward_mcycles,
            "paper_l2_transactions": profile.l2_transactions_paper,
            "measured_l1_miss_rate": stats.l1_miss_rate,
            "measured_l2_transactions": stats.l2_accesses,
            "paper_intensity": profile.paper_intensity,
            "measured_intensity": (
                stats.l2_accesses / stats.cycles if stats.cycles else 0.0
            ),
        }
    return table


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    rows = [
        [
            name,
            f"{row['fastforward_mcycles']:,}",
            f"{row['paper_l2_transactions']:,}",
            f"{row['measured_l1_miss_rate']:.3f}",
            f"{row['measured_l2_transactions']:,}",
            f"{row['paper_intensity']:.4f}",
            f"{row['measured_intensity']:.4f}",
        ]
        for name, row in table.items()
    ]
    return format_table(
        [
            "benchmark",
            "ffwd (Mcyc, paper)",
            "L2 txns (paper)",
            "L1 miss (ours)",
            "L2 txns (ours)",
            "txn/cyc (paper)",
            "txn/cyc (ours)",
        ],
        rows,
        title="Table 5: benchmark characterization (paper vs synthetic)",
    )

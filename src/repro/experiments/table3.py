"""Table 3: thermal profiles of the placement configurations.

Shape targets (peak temperature ordering):
2D < 3D-2L optimal ~ k=2 < k=1 < 2L stacked, and 4L optimal < 4L stacked;
all 2-layer rows share one average temperature (total power over the same
sink footprint), as the paper's identical 63.94 C column shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.chip import ChipConfig
from repro.core.placement import PlacementPolicy
from repro.core.system import RunStats
from repro.thermal import simulate_thermal, ThermalProfile
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec


@dataclass(frozen=True)
class ThermalCase:
    label: str
    config: ChipConfig
    placement: PlacementPolicy
    k: int
    paper_peak: float
    paper_avg: float
    paper_min: float


CASES: tuple[ThermalCase, ...] = (
    ThermalCase(
        "2D, maximal offset",
        ChipConfig(num_layers=1, num_pillars=0),
        PlacementPolicy.CENTER_2D, 1, 111.05, 53.96, 46.77,
    ),
    ThermalCase(
        "3D-2L, optimal offset",
        ChipConfig(num_layers=2, num_pillars=8),
        PlacementPolicy.MAXIMAL_OFFSET, 1, 119.05, 63.94, 49.21,
    ),
    ThermalCase(
        "3D-2L, offset k=2",
        ChipConfig(num_layers=2, num_pillars=2),
        PlacementPolicy.ALGORITHM1, 2, 125.02, 63.94, 49.59,
    ),
    ThermalCase(
        "3D-2L, offset k=1",
        ChipConfig(num_layers=2, num_pillars=2),
        PlacementPolicy.ALGORITHM1, 1, 135.24, 63.94, 49.52,
    ),
    ThermalCase(
        "3D-2L, CPU stacking",
        ChipConfig(num_layers=2, num_pillars=8),
        PlacementPolicy.STACKED, 1, 173.38, 63.94, 50.73,
    ),
    ThermalCase(
        "3D-4L, optimal offset",
        ChipConfig(num_layers=4, num_pillars=8),
        PlacementPolicy.MAXIMAL_OFFSET, 1, 158.67, 86.62, 64.79,
    ),
    ThermalCase(
        "3D-4L, CPU stacking",
        ChipConfig(num_layers=4, num_pillars=8),
        PlacementPolicy.STACKED, 1, 287.12, 86.62, 58.51,
    ),
)


def cells() -> list[SimSpec]:
    """Thermal solve, not a trace simulation: no orchestrator cells."""
    return []


def run() -> list[tuple[ThermalCase, ThermalProfile]]:
    return [
        (
            case,
            simulate_thermal(
                config=case.config,
                placement=case.placement,
                k=case.k,
                label=case.label,
            ),
        )
        for case in CASES
    ]


def render(results: Mapping[SimSpec, RunStats] = ()) -> str:
    rows = [
        [
            case.label,
            f"{profile.peak_c:.2f} ({case.paper_peak:.2f})",
            f"{profile.avg_c:.2f} ({case.paper_avg:.2f})",
            f"{profile.min_c:.2f} ({case.paper_min:.2f})",
        ]
        for case, profile in run()
    ]
    return format_table(
        ["Configuration", "Peak C (paper)", "Avg C (paper)", "Min C (paper)"],
        rows,
        title="Table 3: thermal profile of placement configurations",
    )

"""Table 2: pillar wiring area for different inter-wafer via pitches."""

from __future__ import annotations

from typing import Mapping

from repro.core.system import RunStats
from repro.models.via import table2_rows, area_overhead_vs_router
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec


def cells() -> list[SimSpec]:
    """Analytic table: no simulation cells."""
    return []


def run() -> list[tuple[float, float]]:
    return table2_rows()


def render(results: Mapping[SimSpec, RunStats] = ()) -> str:
    rows = run()
    formatted = [
        [
            f"{pitch:g} um",
            f"{area:.0f} um^2",
            f"{area_overhead_vs_router(pitch) * 100:.3f}%",
        ]
        for pitch, area in rows
    ]
    return format_table(
        ["Via pitch", "Pillar area (128b bus + 42 ctrl)", "vs router"],
        formatted,
        title="Table 2: inter-wafer wiring area per pillar",
    )

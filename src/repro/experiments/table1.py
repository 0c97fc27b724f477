"""Table 1: area and power of the dTDMA components vs a 5-port router."""

from __future__ import annotations

from typing import Mapping

from repro.core.system import RunStats
from repro.models.components import table1_rows, pillar_overhead_vs_router
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec


def cells() -> list[SimSpec]:
    """Analytic table: no simulation cells."""
    return []


def run() -> list[tuple[str, float, float]]:
    return table1_rows()


def render(results: Mapping[SimSpec, RunStats] = ()) -> str:
    rows = run()
    formatted = []
    for name, power_w, area_mm2 in rows:
        power = (
            f"{power_w * 1e3:.2f} mW" if power_w >= 1e-3
            else f"{power_w * 1e6:.2f} uW"
        )
        formatted.append([name, power, f"{area_mm2:.8g} mm^2"])
    power_ratio, area_ratio = pillar_overhead_vs_router(num_layers=4)
    return "\n".join(
        [
            format_table(
                ["Component", "Power", "Area"],
                formatted,
                title=(
                    "Table 1: area and power overhead of the dTDMA bus "
                    "(90 nm)"
                ),
            ),
            (
                f"4-layer pillar hardware vs one router: "
                f"{power_ratio * 100:.3f}% power, {area_ratio * 100:.3f}% area"
            ),
        ]
    )

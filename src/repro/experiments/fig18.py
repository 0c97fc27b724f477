"""Figure 18: impact of the layer count on CMP-SNUCA-3D.

More layers shrink each layer's footprint, cutting in-plane distances
(Figure 2's sqrt(n) wire-length scaling), at the thermal cost shown in
Table 3.  Shape target: 2 -> 4 layers saves 3-8 cycles of L2 latency.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec

BENCHMARKS = ("art", "galgel", "mgrid", "swim")
LAYER_COUNTS = (2, 4)


def cells(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    layer_counts: tuple[int, ...] = LAYER_COUNTS,
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """Layer sweep for CMP-SNUCA-3D (2-layer cells coincide with Fig 13's)."""
    return [
        SimSpec.make(
            Scheme.CMP_SNUCA_3D, benchmark, scale=scale, layers=layers
        )
        for benchmark in benchmarks
        for layers in layer_counts
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[int, float]]:
    """hit latency[benchmark][layer count] for CMP-SNUCA-3D."""
    table: dict[str, dict[int, float]] = {}
    for spec, stats in results.items():
        table.setdefault(spec.benchmark, {})[spec.layers] = (
            stats.avg_l2_hit_latency
        )
    return table


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    rows = [
        [bench]
        + [f"{table[bench][layers]:.1f}" for layers in LAYER_COUNTS]
        + [f"{table[bench][2] - table[bench][4]:+.1f}"]
        for bench in table
    ]
    return format_table(
        ["benchmark"]
        + [f"{layers} layers" for layers in LAYER_COUNTS]
        + ["saved 2->4"],
        rows,
        title=(
            "Figure 18: average L2 hit latency vs layer count, "
            "CMP-SNUCA-3D (cycles)"
        ),
    )

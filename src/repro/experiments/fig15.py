"""Figure 15: IPC under the four schemes.

Paper shape targets: CMP-DNUCA-3D improves IPC over CMP-DNUCA-2D by up to
~37% (CMP-SNUCA-3D by up to ~18%), with the largest improvements on the
L2-intensive benchmarks mgrid, swim and wupwise.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments import fig13
from repro.experiments.registry import SCHEME_ORDER
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec

#: The same default-topology grid as Fig 13 (shared via the cache).
cells = fig13.cells


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[Scheme, float]]:
    """Aggregate IPC per benchmark per scheme."""
    table: dict[str, dict[Scheme, float]] = {}
    for spec, stats in results.items():
        table.setdefault(spec.benchmark, {})[spec.scheme] = stats.ipc
    return table


def improvements(
    results: dict[str, dict[Scheme, float]]
) -> dict[str, dict[Scheme, float]]:
    """Percent IPC improvement of the 3D schemes over CMP-DNUCA-2D."""
    out: dict[str, dict[Scheme, float]] = {}
    for benchmark, row in results.items():
        base = row[Scheme.CMP_DNUCA_2D]
        out[benchmark] = {
            scheme: (row[scheme] / base - 1.0) * 100.0
            for scheme in (Scheme.CMP_SNUCA_3D, Scheme.CMP_DNUCA_3D)
        }
    return out


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    gains = improvements(table)
    rows = []
    for bench in table:
        rows.append(
            [bench]
            + [f"{table[bench][s]:.3f}" for s in SCHEME_ORDER]
            + [
                f"{gains[bench][Scheme.CMP_SNUCA_3D]:+.1f}%",
                f"{gains[bench][Scheme.CMP_DNUCA_3D]:+.1f}%",
            ]
        )
    return format_table(
        ["benchmark"]
        + [s.value for s in SCHEME_ORDER]
        + ["SNUCA-3D gain", "DNUCA-3D gain"],
        rows,
        title="Figure 15: IPC (gains relative to CMP-DNUCA-2D)",
    )

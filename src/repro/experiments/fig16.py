"""Figure 16: average L2 hit latency at 16 / 32 / 64 MB.

The paper grows the cluster size (more banks per cluster) while keeping
16 clusters and 16-way associativity.  Shape targets: latency grows with
cache size under both topologies, but more slowly in 3D (~5 cycles per
doubling vs ~7 in 2D) — 3D scales better to large caches.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import format_table
from repro.experiments.spec import SimSpec

# The paper's four representative benchmarks: art and galgel (low L1 miss
# rates), mgrid and swim (high).
BENCHMARKS = ("art", "galgel", "mgrid", "swim")
CACHE_SIZES_MB = (16, 32, 64)
SCHEMES = (Scheme.CMP_DNUCA_2D, Scheme.CMP_DNUCA_3D)


def cells(
    benchmarks: tuple[str, ...] = BENCHMARKS,
    cache_sizes_mb: tuple[int, ...] = CACHE_SIZES_MB,
    scale: Optional[ExperimentScale] = None,
) -> list[SimSpec]:
    """Scheme x cache-size grid (the 16 MB cells coincide with Fig 13's)."""
    return [
        SimSpec.make(scheme, benchmark, scale=scale, cache_mb=cache_mb)
        for benchmark in benchmarks
        for scheme in SCHEMES
        for cache_mb in cache_sizes_mb
    ]


def tabulate(
    results: Mapping[SimSpec, RunStats]
) -> dict[str, dict[tuple[Scheme, int], float]]:
    """hit latency[benchmark][(scheme, cache MB)]."""
    table: dict[str, dict[tuple[Scheme, int], float]] = {}
    for spec, stats in results.items():
        table.setdefault(spec.benchmark, {})[
            (spec.scheme, spec.cache_mb)
        ] = stats.avg_l2_hit_latency
    return table


def growth_per_doubling(
    results: dict[str, dict[tuple[Scheme, int], float]], scheme: Scheme
) -> float:
    """Mean latency increase per cache doubling for a scheme (cycles)."""
    deltas = []
    for row in results.values():
        sizes = sorted({mb for (s, mb) in row if s == scheme})
        for small, large in zip(sizes, sizes[1:]):
            deltas.append(row[(scheme, large)] - row[(scheme, small)])
    return sum(deltas) / len(deltas) if deltas else 0.0


def render(results: Mapping[SimSpec, RunStats]) -> str:
    table = tabulate(results)
    headers = ["benchmark"] + [
        f"{s.value}@{mb}MB" for s in SCHEMES for mb in CACHE_SIZES_MB
    ]
    rows = [
        [bench]
        + [
            f"{table[bench][(s, mb)]:.1f}"
            for s in SCHEMES
            for mb in CACHE_SIZES_MB
        ]
        for bench in table
    ]
    lines = [
        format_table(
            headers, rows,
            title="Figure 16: average L2 hit latency vs cache size (cycles)",
        )
    ]
    for scheme in SCHEMES:
        lines.append(
            f"mean growth per doubling, {scheme.value}: "
            f"{growth_per_doubling(table, scheme):.1f} cycles"
        )
    return "\n".join(lines)

"""Bench: regenerate Figure 16 (L2 latency vs cache size, 2D vs 3D)."""

from repro.core.schemes import Scheme
from repro.experiments import fig16
from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("galgel", "swim")


def test_fig16_cache_scaling(once):
    results = once(table, "fig16", benchmarks=SUBSET, scale=QUICK)

    for benchmark, row in results.items():
        for scheme in (Scheme.CMP_DNUCA_2D, Scheme.CMP_DNUCA_3D):
            # Latency grows with cache size under both topologies.
            assert row[(scheme, 64)] > row[(scheme, 16)], (benchmark, scheme)
        # 3D stays cheaper than 2D at every size.
        for cache_mb in (16, 32, 64):
            assert (
                row[(Scheme.CMP_DNUCA_3D, cache_mb)]
                < row[(Scheme.CMP_DNUCA_2D, cache_mb)]
            ), (benchmark, cache_mb)

    # 3D scales better: smaller mean growth per doubling (paper: ~5 vs ~7).
    growth_2d = fig16.growth_per_doubling(results, Scheme.CMP_DNUCA_2D)
    growth_3d = fig16.growth_per_doubling(results, Scheme.CMP_DNUCA_3D)
    assert 0 < growth_3d < growth_2d

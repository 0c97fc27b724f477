"""Bench: regenerate Figure 14 (migration counts vs CMP-DNUCA-2D)."""

from repro.core.schemes import Scheme
from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("art", "mgrid", "swim")


def test_fig14_migrations(once):
    results = once(table, "fig14", benchmarks=SUBSET, scale=QUICK)
    for benchmark, row in results.items():
        # The 3D scheme exercises migration less frequently than the 2D
        # scheme (the vicinity cylinder already covers the data).
        assert row[Scheme.CMP_DNUCA_3D] < 1.0, benchmark
        # B&W's per-hit bankset promotion churns busily too (its chain
        # restriction caps it, but it stays the same order of magnitude).
        assert row[Scheme.CMP_DNUCA] > 0.4, benchmark

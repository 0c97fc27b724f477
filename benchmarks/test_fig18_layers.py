"""Bench: regenerate Figure 18 (L2 latency vs layer count)."""

from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("art", "swim")


def test_fig18_layer_count(once):
    results = once(table, "fig18", benchmarks=SUBSET, scale=QUICK)
    for benchmark, row in results.items():
        # More layers shrink in-plane distances: latency drops.
        assert row[4] < row[2], benchmark
        # Paper: 3-8 cycles saved moving from 2 to 4 layers.
        saved = row[2] - row[4]
        assert 1.0 < saved < 35.0, (benchmark, saved)

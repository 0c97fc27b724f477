"""Bench: regenerate Figure 17 (L2 latency vs pillar count)."""

from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("art", "swim")


def test_fig17_pillar_count(once):
    results = once(table, "fig17", benchmarks=SUBSET, scale=QUICK)
    for benchmark, row in results.items():
        # Fewer pillars -> more bus contention and longer detours.
        assert row[2] > row[8], benchmark
        # Paper: average L2 latency increases by 1 to 7 cycles from 8 to
        # 2 pillars; allow a widened band for the scaled-down runs.
        delta = row[2] - row[8]
        assert 0.5 < delta < 30.0, (benchmark, delta)

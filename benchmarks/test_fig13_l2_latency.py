"""Bench: regenerate Figure 13 (average L2 hit latency per scheme).

Uses a representative benchmark subset (one low-L1-miss, two high) at the
quick scale; run ``python -m repro experiments fig13`` with
``REPRO_SCALE=full`` for the complete nine-benchmark figure.
"""

from repro.core.schemes import Scheme
from repro.experiments import fig13
from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("art", "mgrid", "swim")


def test_fig13_l2_hit_latency(once):
    results = once(table, "fig13", benchmarks=SUBSET, scale=QUICK)
    mean = fig13.averages(results)

    # Headline orderings of Section 5.2 (averaged over the subset):
    # static 3D beats migrating 2D; migration helps further in 3D.
    assert mean[Scheme.CMP_SNUCA_3D] < mean[Scheme.CMP_DNUCA_2D]
    assert mean[Scheme.CMP_DNUCA_3D] < mean[Scheme.CMP_SNUCA_3D]

    # The paper quotes ~10 cycles for 2D->3D-static and ~7 more for
    # migration; our reproduction's shape band (see EXPERIMENTS.md).
    static_gain = mean[Scheme.CMP_DNUCA_2D] - mean[Scheme.CMP_SNUCA_3D]
    migration_gain = mean[Scheme.CMP_SNUCA_3D] - mean[Scheme.CMP_DNUCA_3D]
    assert 2.0 < static_gain < 25.0
    assert 2.0 < migration_gain < 25.0

    # Total 3D benefit is substantial (paper: ~17 cycles).
    total = mean[Scheme.CMP_DNUCA_2D] - mean[Scheme.CMP_DNUCA_3D]
    assert total > 8.0

"""Bench: regenerate Figure 15 (IPC per scheme)."""

from repro.core.schemes import Scheme
from repro.experiments import fig15
from repro.experiments.config import QUICK
from repro.experiments.registry import table

SUBSET = ("art", "mgrid", "swim")


def test_fig15_ipc(once):
    results = once(table, "fig15", benchmarks=SUBSET, scale=QUICK)
    gains = fig15.improvements(results)

    for benchmark in SUBSET:
        # Both 3D schemes improve IPC over our 2D scheme.
        assert gains[benchmark][Scheme.CMP_DNUCA_3D] > 0, benchmark
        assert gains[benchmark][Scheme.CMP_SNUCA_3D] > 0, benchmark
        # Migration on top of 3D never hurts.
        assert (
            results[benchmark][Scheme.CMP_DNUCA_3D]
            >= results[benchmark][Scheme.CMP_SNUCA_3D] * 0.99
        )

    # IPC improvements are commensurate with L2 access volume: the
    # L2-heavy benchmarks gain more than the light one (paper: mgrid,
    # swim, wupwise gain most, up to 37%).
    heavy_gain = max(
        gains["mgrid"][Scheme.CMP_DNUCA_3D],
        gains["swim"][Scheme.CMP_DNUCA_3D],
    )
    assert heavy_gain > 3.0

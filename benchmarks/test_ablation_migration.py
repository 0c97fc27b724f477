"""Ablation: migration aggressiveness in the 3D scheme.

DESIGN.md calls out the migration trigger threshold as a design choice:
lower thresholds migrate more eagerly (more network traffic and power —
the data movements the paper wants to avoid), higher thresholds approach
the static scheme.  This bench sweeps the threshold over 1, the
system's default (``SystemConfig().migration_threshold``), 3 and
"never", and checks the latency/traffic trade-off is monotone over every
point.
"""

from repro.core.schemes import Scheme
from repro.core.system import NetworkInMemory, SystemConfig
from repro.workloads.generator import SyntheticWorkload

REFS = 25_000
WARMUP = 8 * REFS * 6 // 10

DEFAULT = SystemConfig().migration_threshold
NEVER = 10**9
THRESHOLDS = (*sorted({1, DEFAULT, 3}), NEVER)


def run_threshold_sweep():
    results = {}
    for threshold in THRESHOLDS:
        system = NetworkInMemory(
            SystemConfig(
                scheme=Scheme.CMP_DNUCA_3D, migration_threshold=threshold
            )
        )
        workload = SyntheticWorkload("swim", refs_per_cpu=REFS)
        results[threshold] = system.run_trace(
            workload.traces(), warmup_events=WARMUP
        )
    return results


def test_ablation_migration_threshold(once):
    results = once(run_threshold_sweep)
    runs = [results[threshold] for threshold in THRESHOLDS]
    migrations = [run.migrations for run in runs]
    latencies = [run.avg_l2_hit_latency for run in runs]

    # A higher trigger threshold migrates strictly less...
    assert all(a > b for a, b in zip(migrations, migrations[1:])), migrations
    assert results[NEVER].migrations == 0
    # ...and pays for it in hit latency, point by point: every migrating
    # configuration, the default included, beats the static one.
    assert all(a < b for a, b in zip(latencies, latencies[1:])), latencies

    # The paper's power argument: migration aggressiveness directly
    # multiplies data movements (each move is two line transfers), while
    # the latency return diminishes — the trade-off Section 4.2.3's lazy,
    # conservative policy navigates.
    assert results[1].migrations > 2 * results[3].migrations

"""Golden digests: the grids, the digest, and their regeneration.

``model_digests.json`` pins the sha256 of ``RunStats.to_dict()`` for a
small model-mode grid: all four schemes x {swim, art} on the default
chip, plus CMP-DNUCA-3D at 4 layers / 2 pillars, CMP-DNUCA-3D with two
dead pillars and CMP-SNUCA-3D with dead pillars and dead banks, at
reduced refs.  The dead-pillar cells catch a path cache that outlives a
change to the alive-pillar set; the dead-bank one pins the degraded
NUCA capacity and remapping.  ``cycle_digests.json`` does the same for
three cycle-mode cells on the optimized fabric: CMP-DNUCA/art (perfect
search) and CMP-DNUCA-3D/art (two-step search), which between them
price local, step-1 and step-2 hits, reads, writes, misses, migrations
and invalidations, and a faulted CMP-DNUCA-3D/art whose schedule
injects every fault kind (:data:`CYCLE_FAULTS`) and heals two of them.
``tests/golden/test_golden_digests.py`` recomputes every digest in
tier-1, so any change to a simulated number fails loudly.

Regenerate only on purpose, and explain the diff in the change that
makes it::

    python tests/golden/regen.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":  # runnable without PYTHONPATH
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.schemes import Scheme  # noqa: E402
from repro.experiments.config import ExperimentScale  # noqa: E402
from repro.experiments.spec import SimSpec, run_spec  # noqa: E402
from repro.faults.spec import FaultEvent, FaultSpec  # noqa: E402

DIGESTS = Path(__file__).with_name("model_digests.json")
CYCLE_DIGESTS = Path(__file__).with_name("cycle_digests.json")

SCALE = ExperimentScale(name="golden", refs_per_cpu=4000)
CYCLE_SCALE = ExperimentScale(name="golden", refs_per_cpu=100)

GRID = [
    SimSpec.make(scheme, benchmark, scale=SCALE)
    for scheme in Scheme
    for benchmark in ("swim", "art")
] + [
    SimSpec.make(Scheme.CMP_DNUCA_3D, "swim", scale=SCALE, layers=4, pillars=2),
    SimSpec.make(Scheme.CMP_DNUCA_3D, "swim", scale=SCALE,
                 faults=FaultSpec(dead_pillars=2)),
    SimSpec.make(Scheme.CMP_SNUCA_3D, "art", scale=SCALE,
                 faults=FaultSpec(dead_pillars=3, dead_banks=8)),
]

#: One fault of every kind on the busiest pillar and mesh rows of the
#: CMP-DNUCA-3D/art cycle cell, all firing within its first 20k of
#: ~133k cycles; the pillar and the router-port jam heal.
CYCLE_FAULTS = FaultSpec(events=(
    FaultEvent("link", (9, 2, 0, "east"), onset=1_000),
    FaultEvent("pillar", (6, 2), onset=2_000, duration=40_000),
    FaultEvent("router_port", (3, 2, 0, "east"), onset=4_000, duration=1_500),
    FaultEvent("bank", (5, 3), onset=20_000),
))

CYCLE_GRID = [
    SimSpec.make(scheme, "art", scale=CYCLE_SCALE, mode="cycle")
    for scheme in (Scheme.CMP_DNUCA, Scheme.CMP_DNUCA_3D)
] + [
    SimSpec.make(Scheme.CMP_DNUCA_3D, "art", scale=CYCLE_SCALE, mode="cycle",
                 faults=CYCLE_FAULTS),
]

#: digest file -> (scale, grid) it pins.
FILES = {DIGESTS: (SCALE, GRID), CYCLE_DIGESTS: (CYCLE_SCALE, CYCLE_GRID)}


def digest(stats) -> str:
    """sha256 of a result's canonical JSON."""
    return hashlib.sha256(
        json.dumps(stats.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def compute(grid: list) -> dict:
    """``{label: digest}`` for every cell of ``grid``, simulated in-process."""
    return {spec.label(): digest(run_spec(spec)) for spec in grid}


def committed(path: Path = DIGESTS) -> dict:
    return json.loads(path.read_text())["digests"]


def main() -> int:
    for path, (scale, grid) in FILES.items():
        digests = compute(grid)
        path.write_text(json.dumps({
            "refs_per_cpu": scale.refs_per_cpu,
            "digests": digests,
        }, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

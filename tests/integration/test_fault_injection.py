"""Integration tests for fault injection and graceful degradation.

Three acceptance properties from the fault-model design:

1. **Zero-fault bit-identity** — installing a default (empty)
   :class:`FaultSpec` on the paper-scale 16x8x2 mesh leaves every
   observable of the run — packet counts, cycle counts, and the complete
   statistics snapshot — bit-identical to a fault-unaware run, on both
   the optimized and the frozen reference fabric.
2. **Graceful degradation** — a CMP-DNUCA-3D system with a dead pillar
   completes its workload by rerouting through the surviving pillars,
   reporting the damage through the ``faults.*`` statistics scope, and
   does so deterministically.
3. **Liveness** — a seeded routing deadlock (jammed router port) is
   detected by the watchdog, which names the stalled routers, and a
   sweep surfaces it as a structured ``CellFailure`` instead of hanging.
"""

from __future__ import annotations

import random

import pytest

from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale
from repro.experiments.orchestrator import run_sweep
from repro.experiments.spec import SimSpec, run_spec
from repro.faults.injector import install_faults
from repro.faults.spec import FaultEvent, FaultSpec
from repro.faults.watchdog import DeadlockError
from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord

# Pillar placement from the paper's 4-pillar configuration (Section 5.4).
PILLARS = ((3, 3), (11, 3), (7, 5), (14, 6))
CYCLES = 300
SEED = 42

TINY = ExperimentScale(name="tiny", refs_per_cpu=400)


def _drive(
    fabric: str,
    rate: float,
    faults: FaultSpec | None = None,
    cycles: int = CYCLES,
    seed: int = SEED,
):
    """Run uniform random traffic; return every observable of the run."""
    config = NetworkConfig(
        width=16, height=8, layers=2, pillar_locations=PILLARS
    )
    network = Network(config, fabric=fabric)
    if faults is not None:
        install_faults(network, faults, seed)
    rng = random.Random(seed)
    coords = list(network.coords())
    sent = 0
    for __ in range(cycles):
        for src in coords:
            if rng.random() < rate:
                dest = coords[rng.randrange(len(coords))]
                if dest != src:
                    network.send(src, dest)
                    sent += 1
        network.engine.step()
    return network, {
        "packets_sent": sent,
        "final_cycle": network.engine.cycle,
        "in_flight": network.in_flight,
        "stats": network.stats.snapshot(),
    }


# -- 1. zero-fault bit-identity ----------------------------------------------


@pytest.mark.parametrize("rate", [0.01, 0.1])
def test_zero_fault_spec_is_bit_identical(rate):
    """An empty FaultSpec (watchdog included) must not perturb the run."""
    __, bare = _drive("optimized", rate)
    __, zero_opt = _drive("optimized", rate, faults=FaultSpec())
    __, zero_ref = _drive("reference", rate, faults=FaultSpec())
    assert zero_opt == bare
    assert zero_ref == bare


def test_zero_fault_spec_identical_after_drain():
    network, observed = _drive("optimized", 0.02, faults=FaultSpec())
    network.quiesce()
    bare_network, __ = _drive("optimized", 0.02)
    bare_network.quiesce()
    assert network.engine.cycle == bare_network.engine.cycle
    assert network.in_flight == bare_network.in_flight == 0
    assert network.stats.snapshot() == bare_network.stats.snapshot()
    assert observed["packets_sent"] > 0


# -- 2. graceful degradation -------------------------------------------------


def test_dead_pillar_reroutes_at_network_level():
    """Killing one pillar mid-run: traffic drains via the survivors.

    Moderate load: the three surviving pillars must carry all vertical
    traffic, so near-saturation rates can wedge — which is watchdog
    territory (see the liveness tests), not graceful degradation.
    """
    spec = FaultSpec(events=(FaultEvent("pillar", (3, 3), onset=50),))
    network, observed = _drive("optimized", 0.02, faults=spec)
    network.quiesce()
    assert network.in_flight == 0
    snapshot = network.stats.snapshot()
    # The dead pillar is recorded, and vertical traffic still completed.
    assert snapshot["faults.injected"] == 1
    assert network.completed_packets > 0
    # The drain-then-die pillar plus rerouting keeps losses bounded to
    # packets already committed to the dying pillar.
    assert snapshot.get("faults.packets_lost", 0) <= observed["packets_sent"]


def test_dead_pillar_system_run_completes_with_degradation():
    """Acceptance: one-dead-pillar CMP-DNUCA-3D cycle run completes."""
    spec = SimSpec.make(
        Scheme.CMP_DNUCA_3D,
        "swim",
        scale=TINY,
        mode="cycle",
        faults=FaultSpec(dead_pillars=1),
    )
    stats = run_spec(spec)
    assert stats.faults_injected == 1
    assert stats.l2_accesses > 0
    # Degradation, not denial: the run finished with finite latency.
    assert stats.avg_l2_hit_latency > 0
    baseline = run_spec(spec.with_overrides(faults=None))
    assert baseline.faults_injected == 0
    assert stats.avg_l2_hit_latency >= baseline.avg_l2_hit_latency


def test_faulted_run_is_deterministic():
    """Same spec, same seed: fault resolution and results are identical."""
    spec = SimSpec.make(
        Scheme.CMP_DNUCA_3D,
        "swim",
        scale=TINY,
        mode="cycle",
        faults=FaultSpec(dead_pillars=1, dead_banks=2),
    )
    assert run_spec(spec).to_dict() == run_spec(spec).to_dict()


def test_model_mode_supports_permanent_pillar_and_bank_faults():
    spec = SimSpec.make(
        Scheme.CMP_DNUCA_3D,
        "swim",
        scale=TINY,
        faults=FaultSpec(dead_pillars=2, dead_banks=2),
    )
    stats = run_spec(spec)
    assert stats.faults_injected == 4
    baseline = run_spec(spec.with_overrides(faults=None))
    assert stats.avg_l2_hit_latency >= baseline.avg_l2_hit_latency


def test_model_mode_rejects_timed_and_mesh_faults():
    # Refused when the spec is built: no worker is handed the cell.
    with pytest.raises(ValueError, match="onset-0"):
        SimSpec.make(
            Scheme.CMP_DNUCA_3D,
            "swim",
            scale=TINY,
            faults=FaultSpec(
                events=(FaultEvent("pillar", (2, 2), onset=100),)
            ),
        )
    with pytest.raises(ValueError, match="cycle"):
        SimSpec.make(
            Scheme.CMP_DNUCA_3D,
            "swim",
            scale=TINY,
            faults=FaultSpec(dead_links=1),
        )


# -- 3. liveness -------------------------------------------------------------


def _deadlock_spec():
    """A spec whose cell deterministically deadlocks.

    East out of a router on the base layer that this workload's traffic
    demonstrably crosses is jammed (flits enter, none leave); XY traffic
    through it wedges, and the watchdog's small window keeps detection
    fast.
    """
    scale = ExperimentScale(
        name="smoke", refs_per_cpu=800, warmup_fraction=0.3, seed=7
    )
    return SimSpec.make(
        Scheme.CMP_DNUCA_3D,
        "swim",
        scale=scale,
        mode="cycle",
        faults=FaultSpec(
            events=(FaultEvent("router_port", (4, 3, 0, "east")),),
            watchdog_window=3_000,
        ),
    )


def test_watchdog_names_stalled_routers_on_seeded_deadlock():
    """Jam a mesh port on a 4x4x2 network: DeadlockError names the router."""
    config = NetworkConfig(
        width=4, height=4, layers=2, pillar_locations=((1, 1), (2, 2))
    )
    network = Network(config)
    spec = FaultSpec(
        events=(FaultEvent("router_port", (1, 0, 0, "east")),),
        watchdog_window=200,
    )
    install_faults(network, spec, SEED)
    network.send(Coord(0, 0, 0), Coord(3, 0, 0))
    with pytest.raises(DeadlockError) as excinfo:
        network.quiesce(max_cycles=50_000)
    error = excinfo.value
    assert error.failure_kind == "deadlock"
    assert error.in_flight >= 1
    assert any(name.startswith("router(") for name in error.stalled_components)
    assert "deadlock" in str(error)


def test_sweep_surfaces_deadlock_as_structured_failure():
    """Acceptance: the orchestrator reports kind='deadlock', never hangs."""
    spec = _deadlock_spec()
    summary = run_sweep([spec], use_cache=False)
    assert summary.failed == 1
    failure = summary.failures[0]
    assert failure.kind == "deadlock"
    assert "DeadlockError" in failure.message
    assert "router(" in failure.message


def test_parallel_sweep_surfaces_deadlock():
    spec = _deadlock_spec()
    healthy = spec.with_overrides(faults=None)
    summary = run_sweep([spec, healthy], jobs=2, use_cache=False)
    assert summary.failed == 1
    assert summary.simulated == 1
    assert summary.failures[0].kind == "deadlock"
    assert healthy in summary.results

"""Differential test: optimized NoC hot path vs the frozen reference fabric.

Builds the paper-scale 16x8x2 pillar mesh twice — once with the
allocation-free fabric (cached route tables, shared link pipeline, posted
credits, flit pooling, blocked-evaluate cache) and once with the frozen
pre-optimisation implementation in ``repro.noc.reference`` — drives both
with the identical injection sequence, and asserts bit-identical results:
packet counts, cycle counts, in-flight totals, and the complete statistics
snapshot (every per-router counter and the latency histograms).

Three operating points cover the regimes that exercise different code
paths: near-idle (fast-forward windows, empty evaluates), medium load
(mixed blocking), and saturation (pervasive blocking, VC contention, full
credit round-trips).
"""

from __future__ import annotations

import random

import pytest

from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord

# Pillar placement from the paper's 4-pillar configuration (Section 5.4).
PILLARS = ((3, 3), (11, 3), (7, 5), (14, 6))
CYCLES = 300
SEED = 42


def _drive(fabric: str, rate: float, cycles: int = CYCLES, seed: int = SEED):
    """Run uniform random traffic; return every observable of the run."""
    config = NetworkConfig(
        width=16, height=8, layers=2, pillar_locations=PILLARS
    )
    network = Network(config, fabric=fabric)
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


@pytest.mark.parametrize("rate", [0.002, 0.05, 0.2])
def test_fabrics_bit_identical(rate):
    __, reference = _drive("reference", rate)
    __, optimized = _drive("optimized", rate)
    assert optimized["packets_sent"] == reference["packets_sent"]
    assert optimized["final_cycle"] == reference["final_cycle"]
    assert optimized["in_flight"] == reference["in_flight"]
    ref_stats = reference["stats"]
    opt_stats = optimized["stats"]
    assert set(opt_stats) == set(ref_stats)
    mismatched = {
        key: (ref_stats[key], opt_stats[key])
        for key in ref_stats
        if opt_stats[key] != ref_stats[key]
    }
    assert not mismatched, f"diverging statistics: {mismatched}"


def test_fabrics_bit_identical_after_drain():
    """Low-rate run followed by a quiesce: drained state must also match."""
    results = {}
    for fabric in ("reference", "optimized"):
        network, observed = _drive(fabric, 0.01, cycles=200)
        network.quiesce()
        observed["drained_cycle"] = network.engine.cycle
        observed["in_flight"] = network.in_flight
        observed["stats"] = network.stats.snapshot()
        results[fabric] = observed
    assert results["optimized"] == results["reference"]
    assert results["optimized"]["in_flight"] == 0


def test_packet_ids_restart_per_network():
    """Back-to-back simulations produce identical packet id sequences."""
    first_ids = []
    second_ids = []
    for collected in (first_ids, second_ids):
        config = NetworkConfig(
            width=16, height=8, layers=2, pillar_locations=PILLARS
        )
        network = Network(config)
        packet = network.send(Coord(0, 0, 0), Coord(5, 3, 1))
        collected.append(packet.packet_id)
        packet = network.send(Coord(2, 2, 1), Coord(9, 6, 0))
        collected.append(packet.packet_id)
        network.quiesce()
    assert first_ids == second_ids == [0, 1]

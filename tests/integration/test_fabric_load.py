"""Fabric behaviour under load: saturation, fairness, pillar contention."""

import pytest

from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord
from repro.noc.traffic import HotspotTraffic, UniformRandomTraffic


def test_latency_monotone_in_injection_rate():
    """Mean latency rises with offered load on the cycle-accurate mesh."""
    means = []
    for rate in (0.005, 0.03):
        network = Network(NetworkConfig(width=6, height=6, layers=1))
        generator = UniformRandomTraffic(network, rate, seed=13)
        generator.run(1_500)
        means.append(network.mean_packet_latency())
    assert means[1] > means[0]


def test_pillar_hotspot_raises_latency():
    """Aiming traffic at one pillar column congests it (Section 3.3)."""
    means = []
    for fraction in (0.0, 0.85):
        network = Network(
            NetworkConfig(width=6, height=6, layers=2,
                          pillar_locations=((2, 2), (4, 4)))
        )
        generator = HotspotTraffic(
            network, 0.007,
            hotspots=[Coord(2, 2, 0), Coord(2, 2, 1)],
            hotspot_fraction=fraction, seed=5,
        )
        generator.run(1_500)
        means.append(network.mean_packet_latency())
    assert means[1] > means[0]


def test_no_packet_lost_under_heavy_load():
    network = Network(NetworkConfig(width=5, height=5, layers=1))
    generator = UniformRandomTraffic(network, 0.05, seed=2)
    generator.run(800)
    received = network.stats.scope("nic").counter("packets_received").value
    assert received == generator.packets_sent
    assert network.in_flight == 0


def test_bus_utilization_grows_with_cross_layer_load():
    utils = []
    for rate in (0.002, 0.01):
        network = Network(
            NetworkConfig(width=4, height=4, layers=2,
                          pillar_locations=((1, 1), (2, 2)))
        )
        generator = UniformRandomTraffic(network, rate, seed=8)
        generator.run(1_200)
        total = sum(p.utilization for p in network.pillars.values())
        utils.append(total)
    assert utils[1] > utils[0]


def test_router_blocked_cycles_recorded_under_contention():
    network = Network(NetworkConfig(width=4, height=4, layers=1))
    generator = UniformRandomTraffic(network, 0.08, seed=4)
    generator.run(600)
    blocked = sum(
        network.stats.scope(f"router{coord}").counter("cycles_blocked").value
        for coord in network.routers
    )
    assert blocked > 0

"""Drain regression for the medium-load pathology (paper-scale mesh).

At 0.05 packets/node/cycle the 16x8x2 pillar mesh is *above* its
inter-layer saturation point: four dTDMA pillars move at most 4
flits/cycle between layers, while uniform random traffic asks half of
all packets to change layers — a sustainable cross-layer rate of only
about 0.0078 packets/node/cycle (4 pillar flits/cycle divided by
256 nodes * 1/2 cross-layer * 4-flit packets).  A backlog at 0.05 is therefore expected and not a
bug.  The historical *pathology* was that the backlog never drained
even after injection stopped: pre-vertical and post-vertical packets
shared one VC pool, so pillar RX queues could fill every downstream VC
and deadlock the fabric against its own credit loop.

The fix partitions VC classes (``NetworkConfig.vc_split``): cross-layer
packets may only occupy the low VC window before their pillar hop,
leaving the high window free for intra-layer delivery.  This test locks
in the fixed behaviour: stop injecting, and the backlog must reach zero
with ``delivered_fraction`` == 1.0.
"""

from __future__ import annotations

from repro.noc.network import Network, NetworkConfig
from repro.noc.traffic import UniformRandomTraffic

PILLARS = ((3, 3), (11, 3), (7, 5), (14, 6))
RATE = 0.05
CYCLES = 400
SEED = 7
DRAIN_BUDGET = 5_000


def _build():
    config = NetworkConfig(
        width=16, height=8, layers=2, pillar_locations=PILLARS
    )
    network = Network(config)
    traffic = UniformRandomTraffic(network, RATE, seed=SEED)
    return network, traffic


def test_medium_load_backlog_drains():
    network, traffic = _build()
    network.engine.run(CYCLES)

    backlog = network.in_flight
    assert backlog > 0, "0.05 must be above the inter-layer saturation point"
    assert network.delivered_fraction() < 1.0

    traffic.injection_rate = 0.0
    drained_at = None
    for cycle in range(DRAIN_BUDGET):
        network.engine.step()
        if network.in_flight == 0:
            drained_at = cycle
            break
    assert drained_at is not None, (
        f"{backlog} packets still wedged after {DRAIN_BUDGET} drain cycles"
    )

    assert network.delivered_fraction() == 1.0
    ages = network.in_flight_ages()
    assert ages["count"] == 0
    received = network.stats.scope("nic").counter("packets_received").value
    assert received == traffic.packets_sent


def test_vc_split_partitions_classes_only_in_3d():
    """The deadlock fix is active exactly when there are multiple layers."""
    flat = NetworkConfig(width=4, height=4, layers=1)
    assert flat.vc_split == 0
    stacked = NetworkConfig(
        width=4, height=4, layers=2, pillar_locations=((1, 1),)
    )
    assert stacked.vc_split == stacked.num_vcs // 2

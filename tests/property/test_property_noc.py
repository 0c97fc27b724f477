"""Property-based tests for the cycle-accurate network fabric."""

from hypothesis import given, settings, strategies as st

from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord, route_hop_count, best_pillar

PILLARS = ((1, 1), (2, 2))


def make_network():
    return Network(
        NetworkConfig(width=4, height=4, layers=2, pillar_locations=PILLARS)
    )


coords = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)
).map(lambda t: Coord(*t))


@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
def test_every_packet_is_delivered(pairs):
    """Any batch of packets is fully delivered and the fabric drains."""
    network = make_network()
    packets = []
    for src, dest in pairs:
        if src != dest:
            packets.append(network.send(src, dest))
    network.quiesce(max_cycles=50_000)
    assert network.in_flight == 0
    for packet in packets:
        assert packet.ejected_cycle is not None


@settings(max_examples=25, deadline=None)
@given(src=coords, dest=coords, flits=st.integers(1, 8))
def test_latency_at_least_zero_load(src, dest, flits):
    """A lone packet's latency equals hops*link + serialization + inject."""
    if src == dest:
        return
    network = make_network()
    cfg = network.config
    packet = network.send(src, dest, size_flits=flits)
    network.quiesce(max_cycles=50_000)
    pillar = packet.pillar_xy
    hops = route_hop_count(src, dest, pillar)
    if pillar is not None:
        hops -= 1  # the bus hop is charged separately
    floor = cfg.link_latency * hops + (flits - 1) + 1
    assert packet.latency >= floor
    # A lone packet also has no contention: small bounded overhead.
    assert packet.latency <= floor + 6


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.integers(0, 2**16),
    count=st.integers(2, 12),
)
def test_under_load_latency_never_below_zero_load(seeds, count):
    import random

    rng = random.Random(seeds)
    network = make_network()
    cfg = network.config
    packets = []
    nodes = list(network.coords())
    for __ in range(count):
        src, dest = rng.sample(nodes, 2)
        packets.append(network.send(src, dest))
    network.quiesce(max_cycles=100_000)
    for packet in packets:
        hops = route_hop_count(packet.src, packet.dest, packet.pillar_xy)
        if packet.pillar_xy is not None:
            hops -= 1
        floor = cfg.link_latency * hops + (packet.size_flits - 1) + 1
        assert packet.latency >= floor


@settings(max_examples=50, deadline=None)
@given(src=coords, dest=coords)
def test_best_pillar_minimizes_detour(src, dest):
    pillars = list(PILLARS)
    chosen = best_pillar(src, dest, pillars)
    chosen_cost = (
        abs(src.x - chosen[0]) + abs(src.y - chosen[1])
        + abs(dest.x - chosen[0]) + abs(dest.y - chosen[1])
    )
    for px, py in pillars:
        other = (
            abs(src.x - px) + abs(src.y - py)
            + abs(dest.x - px) + abs(dest.y - py)
        )
        assert chosen_cost <= other

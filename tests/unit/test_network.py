"""Unit tests for network assembly and end-to-end packet delivery."""

import pytest

from repro.noc.network import Network, NetworkConfig
from repro.noc.packet import MessageClass
from repro.noc.routing import Coord, route_hop_count


class TestNetworkConfig:
    def test_defaults_valid(self):
        NetworkConfig(pillar_locations=((2, 2),)).validate()

    def test_rejects_multilayer_without_pillars(self):
        with pytest.raises(ValueError, match="pillar"):
            NetworkConfig(layers=2, pillar_locations=()).validate()

    def test_rejects_offgrid_pillar(self):
        with pytest.raises(ValueError, match="outside"):
            NetworkConfig(
                width=4, height=4, layers=2, pillar_locations=((9, 0),)
            ).validate()

    def test_rejects_duplicate_pillars(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetworkConfig(
                width=4, height=4, layers=2,
                pillar_locations=((1, 1), (1, 1)),
            ).validate()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            NetworkConfig(width=0, height=4, layers=1).validate()

    @pytest.mark.parametrize("field, value", [
        ("num_vcs", 0),
        ("vc_depth", 0),
        ("link_latency", 0),
        ("link_latency", -5),
    ])
    def test_rejects_empty_buffers_and_instant_links(self, field, value):
        # Unchecked, each fails late or silently: an empty VC stalls
        # the drain, and a link under one cycle runs as a 1-cycle link.
        config = NetworkConfig(width=4, height=4, layers=1,
                               **{field: value})
        with pytest.raises(ValueError, match=field):
            config.validate()
        with pytest.raises(ValueError, match=field):
            Network(config)

    def test_node_counts(self):
        config = NetworkConfig(width=4, height=3, layers=2,
                               pillar_locations=((1, 1),))
        assert config.nodes_per_layer == 12
        assert config.total_nodes == 24


class TestNetworkDelivery:
    def test_single_layer_delivery(self):
        net = Network(NetworkConfig(width=4, height=4, layers=1))
        packet = net.send(Coord(0, 0, 0), Coord(3, 3, 0))
        net.quiesce()
        assert packet.ejected_cycle is not None
        assert packet.latency > 0

    def test_latency_matches_hop_formula(self):
        # zero-load: link_latency * hops + (flits - 1) + 1 injection cycle
        cfg = NetworkConfig(width=6, height=6, layers=1)
        net = Network(cfg)
        packet = net.send(Coord(0, 0, 0), Coord(5, 5, 0), size_flits=4)
        net.quiesce()
        hops = 10
        expected = cfg.link_latency * hops + 3 + 1
        assert packet.latency == expected

    def test_cross_layer_delivery_uses_pillar(self):
        net = Network(
            NetworkConfig(width=4, height=4, layers=2,
                          pillar_locations=((1, 1), (2, 2)))
        )
        packet = net.send(Coord(0, 0, 0), Coord(3, 3, 1))
        net.quiesce()
        assert packet.pillar_xy in ((1, 1), (2, 2))
        assert packet.ejected_cycle is not None

    def test_cross_layer_latency_adds_bus_overhead(self):
        cfg = NetworkConfig(width=4, height=4, layers=2,
                            pillar_locations=((1, 1),))
        net = Network(cfg)
        packet = net.send(Coord(1, 1, 0), Coord(1, 1, 1), size_flits=1)
        net.quiesce()
        # 0 mesh hops; transceiver + bus slot + delivery ~ small constant.
        assert 2 <= packet.latency <= 5

    def test_many_packets_all_delivered(self):
        net = Network(NetworkConfig(width=4, height=4, layers=1))
        packets = []
        coords = list(net.coords())
        for i, src in enumerate(coords):
            dest = coords[(i + 5) % len(coords)]
            if src != dest:
                packets.append(net.send(src, dest))
        net.quiesce()
        assert all(p.ejected_cycle is not None for p in packets)
        assert net.in_flight == 0

    def test_send_validates_endpoints(self):
        net = Network(NetworkConfig(width=4, height=4, layers=1))
        with pytest.raises(ValueError, match="differ"):
            net.send(Coord(0, 0, 0), Coord(0, 0, 0))
        with pytest.raises(ValueError, match="unknown"):
            net.send(Coord(0, 0, 0), Coord(9, 9, 0))

    def test_message_class_preserved(self):
        net = Network(NetworkConfig(width=3, height=3, layers=1))
        packet = net.send(
            Coord(0, 0, 0), Coord(2, 0, 0),
            message_class=MessageClass.MIGRATION,
        )
        net.quiesce()
        assert packet.message_class == MessageClass.MIGRATION

    def test_mean_packet_latency_aggregates(self):
        net = Network(NetworkConfig(width=3, height=3, layers=1))
        net.send(Coord(0, 0, 0), Coord(2, 0, 0))
        net.send(Coord(0, 0, 0), Coord(0, 2, 0))
        net.quiesce()
        assert net.mean_packet_latency() > 0


class TestRouterPortCounts:
    def test_interior_router_has_five_ports(self):
        net = Network(NetworkConfig(width=4, height=4, layers=1))
        interior = net.routers[Coord(1, 1, 0)]
        assert interior.ports == {
            p for p in
            (
                # all four mesh directions plus LOCAL
                *interior.ports,
            )
        }
        assert len(interior.input_ports) == 5
        assert len(interior.output_ports) == 5

    def test_corner_router_has_three_ports(self):
        net = Network(NetworkConfig(width=4, height=4, layers=1))
        corner = net.routers[Coord(0, 0, 0)]
        assert len(corner.input_ports) == 3  # LOCAL, EAST, NORTH

    def test_pillar_router_gains_vertical_port(self):
        net = Network(
            NetworkConfig(width=4, height=4, layers=2,
                          pillar_locations=((1, 1),))
        )
        pillar_router = net.routers[Coord(1, 1, 0)]
        plain_router = net.routers[Coord(2, 2, 0)]
        assert len(pillar_router.input_ports) == 6
        assert len(plain_router.input_ports) == 5

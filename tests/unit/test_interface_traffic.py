"""Unit tests for NICs, flits/packets, and traffic generators."""

import pytest

from repro.noc.flit import Flit, FlitType
from repro.noc.network import Network, NetworkConfig
from repro.noc.packet import MessageClass, Packet
from repro.noc.routing import Coord
from repro.noc.traffic import (
    HotspotTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
)


class TestFlitsAndPackets:
    def test_four_flit_segmentation(self):
        packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4)
        flits = packet.make_flits()
        assert [f.flit_type for f in flits] == [
            FlitType.HEAD, FlitType.BODY, FlitType.BODY, FlitType.TAIL
        ]
        assert [f.index for f in flits] == [0, 1, 2, 3]

    def test_single_flit_is_head_tail(self):
        packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1)
        (flit,) = packet.make_flits()
        assert flit.flit_type == FlitType.HEAD_TAIL
        assert flit.is_head and flit.is_tail

    def test_two_flit_packet(self):
        packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=2)
        head, tail = packet.make_flits()
        assert head.is_head and not head.is_tail
        assert tail.is_tail and not tail.is_head

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=0)

    def test_latency_none_until_delivered(self):
        packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0))
        assert packet.latency is None
        assert packet.network_latency is None
        packet.created_cycle = 5
        packet.injected_cycle = 7
        packet.ejected_cycle = 20
        assert packet.latency == 15
        assert packet.network_latency == 13

    def test_packet_ids_unique(self):
        a = Packet(Coord(0, 0, 0), Coord(1, 0, 0))
        b = Packet(Coord(0, 0, 0), Coord(1, 0, 0))
        assert a.packet_id != b.packet_id


class TestNic:
    def test_pending_injections_counts_queue(self):
        network = Network(NetworkConfig(width=3, height=3, layers=1))
        nic = network.nics[Coord(0, 0, 0)]
        network.send(Coord(0, 0, 0), Coord(2, 2, 0))
        network.send(Coord(0, 0, 0), Coord(2, 0, 0))
        assert nic.pending_injections >= 1
        network.quiesce()
        assert nic.pending_injections == 0

    def test_drain_ejected(self):
        network = Network(NetworkConfig(width=3, height=3, layers=1))
        packet = network.send(Coord(0, 0, 0), Coord(2, 2, 0))
        network.quiesce()
        nic = network.nics[Coord(2, 2, 0)]
        assert nic.drain_ejected() == [packet]
        assert nic.drain_ejected() == []

    def test_injection_serializes_packets(self):
        # Two packets from the same NIC: second cannot finish before the
        # first has fully left (one flit per cycle on the local port).
        network = Network(NetworkConfig(width=4, height=1, layers=1))
        a = network.send(Coord(0, 0, 0), Coord(3, 0, 0))
        b = network.send(Coord(0, 0, 0), Coord(3, 0, 0))
        network.quiesce()
        assert b.ejected_cycle > a.ejected_cycle


class TestTrafficGenerators:
    def test_uniform_random_delivers_everything(self):
        network = Network(NetworkConfig(width=4, height=4, layers=1))
        generator = UniformRandomTraffic(network, 0.02, seed=1)
        generator.run(300)
        assert generator.packets_sent > 0
        assert network.in_flight == 0

    def test_injection_rate_validation(self):
        network = Network(NetworkConfig(width=3, height=3, layers=1))
        with pytest.raises(ValueError):
            UniformRandomTraffic(network, 1.5)

    def test_deterministic_with_seed(self):
        counts = []
        for __ in range(2):
            network = Network(NetworkConfig(width=4, height=4, layers=1))
            generator = UniformRandomTraffic(network, 0.05, seed=9)
            generator.run(200)
            counts.append(generator.packets_sent)
        assert counts[0] == counts[1]

    def test_hotspot_concentrates_traffic(self):
        network = Network(NetworkConfig(width=4, height=4, layers=1))
        hotspot = Coord(2, 2, 0)
        received_before = network.nics[hotspot].stats
        generator = HotspotTraffic(
            network, 0.05, hotspots=[hotspot], hotspot_fraction=1.0, seed=2
        )
        generator.run(200)
        total = sum(
            1 for p in []
        )
        # All packets target the hotspot.
        received = network.stats.scope("nic").counter("packets_received").value
        assert received == generator.packets_sent

    def test_hotspot_validation(self):
        network = Network(NetworkConfig(width=3, height=3, layers=1))
        with pytest.raises(ValueError):
            HotspotTraffic(network, 0.01, hotspots=[])
        with pytest.raises(ValueError):
            HotspotTraffic(
                network, 0.01, hotspots=[Coord(0, 0, 0)],
                hotspot_fraction=2.0,
            )

    def test_transpose_pattern(self):
        network = Network(NetworkConfig(width=4, height=4, layers=1))
        generator = TransposeTraffic(network, 0.0, seed=3)
        dest = generator.pick_destination(Coord(1, 3, 0))
        assert dest == Coord(3, 1, 0)


class TestIdScopesAndPooling:
    def test_id_scope_restarts_per_scope(self):
        from repro.noc.flit import IdScope

        first = IdScope()
        second = IdScope()
        a = Packet(Coord(0, 0, 0), Coord(1, 0, 0), ids=first)
        b = Packet(Coord(0, 0, 0), Coord(1, 0, 0), ids=second)
        assert a.packet_id == b.packet_id == 0
        assert [f.flit_id for f in a.make_flits()] == [0, 1, 2, 3]
        assert [f.flit_id for f in b.make_flits()] == [0, 1, 2, 3]

    def test_default_scope_shared_by_loose_packets(self):
        a = Packet(Coord(0, 0, 0), Coord(1, 0, 0))
        b = Packet(Coord(0, 0, 0), Coord(1, 0, 0))
        assert b.packet_id == a.packet_id + 1

    def test_flit_pool_recycles_objects_with_fresh_state(self):
        from repro.noc.flit import IdScope
        from repro.noc.packet import FlitPool

        pool = FlitPool()
        ids = IdScope()
        first = Packet(Coord(0, 0, 0), Coord(1, 0, 0), ids=ids)
        flits = first.make_flits(pool)
        originals = set(map(id, flits))
        for flit in flits:
            flit.injected_cycle = 99
            pool.release(flit)
        assert len(pool) == 4
        second = Packet(Coord(2, 0, 0), Coord(3, 0, 0), ids=ids)
        recycled = second.make_flits(pool)
        assert set(map(id, recycled)) == originals  # same objects reused
        assert len(pool) == 0
        assert [f.flit_id for f in recycled] == [4, 5, 6, 7]
        assert all(f.packet is second for f in recycled)
        assert all(f.injected_cycle is None for f in recycled)
        assert recycled[0].is_head and recycled[-1].is_tail
        assert not recycled[1].is_head and not recycled[1].is_tail

    def test_pooled_and_unpooled_segmentation_identical(self):
        from repro.noc.flit import IdScope
        from repro.noc.packet import FlitPool

        def describe(flits):
            return [
                (f.flit_type, f.index, f.flit_id, f.is_head, f.is_tail)
                for f in flits
            ]

        plain = Packet(Coord(0, 0, 0), Coord(1, 0, 0), ids=IdScope())
        pooled = Packet(Coord(0, 0, 0), Coord(1, 0, 0), ids=IdScope())
        assert describe(plain.make_flits()) == describe(
            pooled.make_flits(FlitPool())
        )

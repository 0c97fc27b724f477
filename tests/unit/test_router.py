"""Unit tests for the wormhole router: credits, VC allocation, forwarding."""

import pytest

from repro.sim.engine import Engine
from repro.noc.flit import FlitType
from repro.noc.packet import Packet
from repro.noc.router import Router, connect
from repro.noc.routing import Coord, Port


def make_pair(engine, link_latency=1):
    """Two routers connected EAST->WEST, upstream at (0,0)."""
    up = Router(Coord(0, 0, 0))
    down = Router(Coord(1, 0, 0))
    engine.register(up)
    engine.register(down)
    connect(engine, up, Port.EAST, down, Port.WEST, link_latency)
    return up, down


def drain_sink(router, port=Port.LOCAL):
    """Give a router an always-accepting LOCAL output; returns the sink."""
    received = []
    router.add_output_port(
        port, downstream_depth=10**6,
        deliver=lambda flit, vc: received.append(flit),
    )
    return received


def inject(router, packet, vc=0, port=Port.LOCAL):
    """Push a whole packet into one input VC (bypassing a NIC)."""
    if port not in router.input_ports:
        router.add_input_port(port)
    for flit in packet.make_flits():
        router.input_ports[port].accept(flit, vc)


def test_flit_traverses_two_routers():
    engine = Engine()
    up, down = make_pair(engine)
    received = drain_sink(down)
    packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4)
    inject(up, packet)
    engine.run(20)
    assert len(received) == 4
    assert received[0].is_head and received[-1].is_tail


def test_one_flit_per_output_per_cycle():
    engine = Engine()
    up, down = make_pair(engine)
    received = drain_sink(down)
    # Two packets in different VCs of the same input contend for EAST.
    first = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4)
    second = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4)
    inject(up, first, vc=0)
    inject(up, second, vc=1)
    engine.run(40)
    assert len(received) == 8


def test_wormhole_flits_do_not_interleave_within_vc():
    engine = Engine()
    up, down = make_pair(engine)
    received = drain_sink(down)
    for vc in (0, 1, 2):
        inject(
            up,
            Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4),
            vc=vc,
        )
    engine.run(60)
    assert len(received) == 12
    # Per downstream VC, flits of one packet arrive head..tail contiguously.
    per_packet_progress = {}
    for flit in received:
        expected = per_packet_progress.get(flit.packet.packet_id, 0)
        assert flit.index == expected
        per_packet_progress[flit.packet.packet_id] = expected + 1


def test_credits_block_when_downstream_full():
    engine = Engine()
    up, down = make_pair(engine)
    # No sink on downstream: its WEST input buffers (3 VCs x 4 flits)
    # are the only capacity; packets head to LOCAL which has no output.
    down.add_output_port(Port.LOCAL, 4, deliver=lambda f, v: None)
    # Saturate with more flits than the downstream VC can hold.
    for vc in range(3):
        inject(up, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4), vc=vc)
    engine.run(10)
    # Upstream may not overflow the downstream buffer.
    for vc in down.input_ports[Port.WEST].vcs:
        assert vc.occupancy <= down.vc_depth


def test_buffered_flits_accounting():
    engine = Engine()
    router = Router(Coord(0, 0, 0))
    engine.register(router)
    inject(router, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4))
    assert router.buffered_flits() == 4


def test_router_requires_output_port_for_route():
    engine = Engine()
    router = Router(Coord(0, 0, 0))
    engine.register(router)
    inject(router, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1))
    with pytest.raises(RuntimeError, match="no output port"):
        engine.run(2)


def test_input_vc_overflow_detected():
    router = Router(Coord(0, 0, 0), vc_depth=2)
    port = router.add_input_port(Port.WEST)
    packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4)
    flits = packet.make_flits()
    port.accept(flits[0], 0)
    port.accept(flits[1], 0)
    with pytest.raises(RuntimeError, match="overflow"):
        port.accept(flits[2], 0)


def test_link_latency_delays_delivery():
    slow_engine = Engine()
    up, down = make_pair(slow_engine, link_latency=5)
    received = drain_sink(down)
    inject(up, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1))
    slow_engine.run(3)
    assert not received
    slow_engine.run(10)
    assert len(received) == 1


def test_output_port_free_vc_prefers_requested():
    engine = Engine()
    up, __ = make_pair(engine)
    output = up.output_ports[Port.EAST]
    assert output.free_vc(preferred=1) == 1
    output.vc_busy[1] = True
    assert output.free_vc(preferred=1) == 2


# -- hot-path structures ----------------------------------------------------


def test_route_table_memoizes_routes():
    engine = Engine()
    up, down = make_pair(engine)
    drain_sink(down)
    dest = Coord(1, 0, 0)
    inject(up, Packet(Coord(0, 0, 0), dest, size_flits=1))
    engine.run(5)
    assert up._route_table == {(dest, None): Port.EAST}
    # The memo is authoritative: poison it and the next head flit to the
    # same destination follows the poisoned route, proving no recompute.
    up._route_table[(dest, None)] = Port.LOCAL
    received = drain_sink(up, port=Port.LOCAL)
    inject(up, Packet(Coord(0, 0, 0), dest, size_flits=1))
    engine.run(5)
    assert len(received) == 1


def test_port_order_cache_invalidated_by_new_input_port():
    engine = Engine()
    up, down = make_pair(engine)
    received = drain_sink(down)
    # First evaluate builds the arbitration orders from the LOCAL port...
    inject(up, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1))
    engine.run(10)
    assert len(received) == 1
    # ...then a port added later must re-enter the cached rotation.
    inject(
        up,
        Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1),
        port=Port.SOUTH,
    )
    engine.run(10)
    assert len(received) == 2


def test_link_pipeline_credit_round_trip():
    engine = Engine()
    up, down = make_pair(engine, link_latency=3)
    received = drain_sink(down)
    output = up.output_ports[Port.EAST]
    inject(up, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4))
    engine.run(5)
    # Mid-flight: some credits are consumed.
    assert sum(output.credits) < 3 * up.vc_depth
    engine.run(40)
    assert len(received) == 4
    # Fully drained: every consumed credit made the round trip back.
    assert output.credits == [up.vc_depth] * up.num_vcs
    assert all(not busy for busy in output.vc_busy)


def test_shared_link_pipeline_carries_multiple_links():
    from repro.noc.link import LinkPipeline

    engine = Engine()
    pipeline = LinkPipeline(engine, max_latency=2)
    engine.register(pipeline)
    a = Router(Coord(0, 0, 0))
    b = Router(Coord(1, 0, 0))
    c = Router(Coord(1, 1, 0))
    for router in (a, b, c):
        engine.register(router)
    connect(engine, a, Port.EAST, b, Port.WEST, 2, pipeline=pipeline)
    connect(engine, b, Port.NORTH, c, Port.SOUTH, 2, pipeline=pipeline)
    received = drain_sink(c)
    inject(a, Packet(Coord(0, 0, 0), Coord(1, 1, 0), size_flits=4))
    engine.run(40)
    assert len(received) == 4
    assert pipeline.is_idle()
    assert pipeline.flits_carried == 8  # four flits over each of two hops


def test_link_pipeline_rejects_short_latency_and_live_growth():
    from repro.noc.link import LinkPipeline

    engine = Engine()
    pipeline = LinkPipeline(engine, max_latency=2)
    engine.register(pipeline)
    with pytest.raises(ValueError, match="latency >= 2"):
        pipeline.reserve(1)
    pipeline.send(lambda f, v: None, object(), 0, 2)
    with pytest.raises(RuntimeError, match="in flight"):
        pipeline.reserve(9)


def test_credit_pipeline_delays_one_cycle():
    from repro.noc.link import CreditPipeline
    from repro.noc.router import OutputPort

    engine = Engine()
    output = OutputPort(Port.EAST, 1, 1, deliver=lambda f, v: None)
    credit_return = CreditPipeline(engine, output.return_credit)
    packet = Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=1)
    output.send(packet.make_flits()[0], 0)
    assert output.credits == [0]
    credit_return(0)
    # Not yet applied: posts run at the top of the next step.
    assert output.credits == [0]
    engine.step()
    assert output.credits == [1]


def test_blocked_evaluate_cache_invalidated_by_credit_return():
    engine = Engine()
    up, down = make_pair(engine)
    received = drain_sink(down)
    # Choke the downstream: its LOCAL output exists but WEST input fills.
    down.add_output_port(Port.LOCAL, 4, deliver=lambda f, v: None)
    for vc in range(3):
        inject(up, Packet(Coord(0, 0, 0), Coord(1, 0, 0), size_flits=4), vc=vc)
    engine.run(10)
    blocked_before = up.stats.scope(f"router{Coord(0, 0, 0)}").counter(
        "flits_forwarded"
    ).value
    # Unchoke by draining the downstream LOCAL port for real.
    down.output_ports[Port.LOCAL].deliver = lambda f, v: received.append(f)
    down.output_ports[Port.LOCAL].credits = [10**6] * 3
    down.output_ports[Port.LOCAL].vc_busy = [False] * 3
    engine.run(60)
    forwarded_after = up.stats.scope(f"router{Coord(0, 0, 0)}").counter(
        "flits_forwarded"
    ).value
    # Credits flowing back re-dirtied the upstream's cached blocked state,
    # so it resumed granting rather than replaying "blocked" forever.
    assert forwarded_after == 12 > blocked_before

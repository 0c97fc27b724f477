"""Differential test: activity-tracked kernel vs naive kernel.

The activity-tracked kernel (idle retirement + fast-forward) must be a pure
performance optimisation: for the same mesh, seed, and traffic it has to
produce *bit-identical* final cycle counts and statistics snapshots to the
naive kernel that ticks every component every cycle.
"""

from __future__ import annotations

from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord
from repro.noc.traffic import UniformRandomTraffic
from repro.sim.engine import Engine

CONFIG = dict(width=4, height=4, layers=2, pillar_locations=((1, 1), (3, 2)))


def _build(activity_tracking: bool, rate: float, seed: int = 9):
    engine = Engine("diff", activity_tracking=activity_tracking)
    network = Network(NetworkConfig(**CONFIG), engine=engine)
    generator = UniformRandomTraffic(network, rate, seed=seed)
    return engine, network, generator


def _run_and_drain(activity_tracking: bool, rate: float, cycles: int):
    engine, network, generator = _build(activity_tracking, rate)
    engine.run(cycles)
    generator.injection_rate = 0.0
    network.quiesce()
    return engine, network, generator


def test_low_rate_parity_after_drain():
    """Same cycles, same stats, strictly less work at a drainable load."""
    naive_eng, naive_net, naive_gen = _run_and_drain(False, 0.02, 400)
    tracked_eng, tracked_net, tracked_gen = _run_and_drain(True, 0.02, 400)

    assert naive_gen.packets_sent == tracked_gen.packets_sent
    assert naive_net.in_flight == 0 and tracked_net.in_flight == 0
    assert naive_eng.cycle == tracked_eng.cycle
    assert naive_net.stats.snapshot() == tracked_net.stats.snapshot()
    # The optimisation must actually optimise: fewer component ticks.
    assert tracked_eng.ticks < naive_eng.ticks


def test_saturated_parity_fixed_horizon():
    """Bit-identical state under saturation, compared at a fixed horizon.

    At saturating injection the mesh+pillar fabric wedges during drain
    (a pre-existing VC/credit interaction present in the seed fabric, not
    a kernel artefact), so this case injects for a fixed window and
    compares without quiescing to empty.
    """
    results = []
    for tracking in (False, True):
        engine, network, generator = _build(tracking, 0.25, 300)
        engine.run(300)
        results.append((engine, network, generator))
    (naive_eng, naive_net, naive_gen), (tracked_eng, tracked_net, tracked_gen) = results

    assert naive_gen.packets_sent == tracked_gen.packets_sent
    assert naive_eng.cycle == tracked_eng.cycle
    assert naive_net.in_flight == tracked_net.in_flight
    assert naive_net.stats.snapshot() == tracked_net.stats.snapshot()


def test_single_packet_fast_forwards_idle_window():
    """One packet in an otherwise dead mesh: the clock jumps, state doesn't."""
    results = []
    for tracking in (False, True):
        engine, network, __ = _build(tracking, 0.0)
        network.send(Coord(0, 0, 0), Coord(3, 3, 1))
        engine.run(2_000)
        results.append((engine, network))
    (naive_eng, naive_net), (tracked_eng, tracked_net) = results

    assert naive_net.in_flight == 0 and tracked_net.in_flight == 0
    assert naive_eng.cycle == tracked_eng.cycle == 2_000
    assert naive_net.stats.snapshot() == tracked_net.stats.snapshot()
    # The naive kernel ticked the whole mesh for all 2000 cycles; the
    # tracked kernel skipped the long tail after delivery.
    assert tracked_eng.fast_forwarded_cycles > 1_000
    assert naive_eng.fast_forwarded_cycles == 0
    assert tracked_eng.ticks < naive_eng.ticks / 10


def test_raw_step_loop_reads_exact_statistics():
    """A raw ``step()`` loop reads the naive kernel's bus statistics.

    Neither kernel runs through ``run``/``run_until`` here, so nothing
    could bring deferred statistics up to date: every statistic must be
    exact whenever it is read.
    """
    results = []
    for tracking in (False, True):
        engine, network, __ = _build(tracking, 0.0)
        network.send(Coord(1, 1, 0), Coord(1, 1, 1))
        for __ in range(500):
            engine.step()
        results.append((engine, network))
    (naive_eng, naive_net), (tracked_eng, tracked_net) = results

    assert naive_net.in_flight == 0 and tracked_net.in_flight == 0
    assert naive_eng.cycle == tracked_eng.cycle == 500
    assert naive_net.stats.snapshot() == tracked_net.stats.snapshot()
    naive_util = {xy: bus.utilization for xy, bus in naive_net.pillars.items()}
    tracked_util = {
        xy: bus.utilization for xy, bus in tracked_net.pillars.items()
    }
    assert naive_util == tracked_util
    assert naive_util[(1, 1)] > 0.0
    assert tracked_eng.ticks < naive_eng.ticks

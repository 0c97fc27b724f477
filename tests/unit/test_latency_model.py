"""Unit tests for the contention-aware analytic latency model."""

import random

import pytest

from repro.core import latency_model
from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.core.latency_model import (
    BUS_OVERHEAD, HOP_CYCLES, INJECTION_OVERHEAD, MAX_UTILIZATION,
    MESH_CAPACITY_FACTOR, Q_BUS, Q_MESH, LatencyModel,
)
from repro.faults.state import FaultState
from repro.noc.routing import Coord, best_pillar


@pytest.fixture()
def model3d():
    return LatencyModel(build_topology(ChipConfig()))


@pytest.fixture()
def model2d():
    return LatencyModel(
        build_topology(ChipConfig(num_layers=1, num_pillars=0))
    )


def two_layers(model):
    """Every node on layers 0 and 1 of the model's chip."""
    width, height = model.topology.config.mesh_dims
    return [
        Coord(x, y, z)
        for z in (0, 1)
        for y in range(height)
        for x in range(width)
    ]


def direct_path(src, dest, pillars):
    """The path without the memo: one best_pillar call per pair."""
    if src.z == dest.z:
        return src.manhattan_2d(dest), None
    px, py = best_pillar(src, dest, pillars)
    hops = abs(src.x - px) + abs(src.y - py) + abs(dest.x - px) + abs(dest.y - py)
    return hops, (px, py)


def load_state(model):
    """Every value the model's load tracking keeps."""
    return (
        model._mesh_rate,
        list(model._bus_rate),
        model.flit_hops_total,
        model.bus_flits_total,
        model._last_cycle,
    )


def bus_rate(model, xy):
    """The flit rate of the pillar at ``xy``."""
    return model._bus_rate[model.topology.pillar_xys.index(xy)]


def mesh_utilization(model):
    """The mesh's flit-hop rate over its capacity, unclamped."""
    width, height = model.topology.config.mesh_dims
    nodes = width * height * model.topology.config.num_layers
    return model._mesh_rate / (nodes * MESH_CAPACITY_FACTOR)


def flood(models, src, dest, cycle):
    """Send 64-flit packets from ``src`` to ``dest`` through every model
    until the mesh, if the path has hops, and the pillar it crosses, if
    any, are past ``MAX_UTILIZATION``."""
    probe = models[0]
    ceiling = MAX_UTILIZATION
    hops, pillar = probe.path(src, dest)
    while (hops and mesh_utilization(probe) <= ceiling) or (
        pillar is not None and bus_rate(probe, pillar) <= ceiling
    ):
        for model in models:
            model.note_packet(src, dest, 64, cycle)


class TestPath:
    def test_same_layer(self, model2d):
        hops, pillar = model2d.path(Coord(0, 0, 0), Coord(3, 4, 0))
        assert hops == 7 and pillar is None

    def test_cross_layer_uses_best_pillar(self, model3d):
        hops, pillar = model3d.path(Coord(2, 2, 0), Coord(2, 2, 1))
        assert pillar == (2, 2)
        assert hops == 0

    def test_cross_layer_hops_include_detour(self, model3d):
        hops, pillar = model3d.path(Coord(0, 0, 0), Coord(0, 0, 1))
        px, py = pillar
        assert hops == 2 * (abs(px) + abs(py))


class TestPathMemo:
    @pytest.mark.parametrize(
        "chip",
        [ChipConfig(), ChipConfig(num_layers=4, num_pillars=2)],
        ids=["2L-8p", "4L-2p"],
    )
    def test_every_pair_matches_best_pillar(self, chip):
        model = LatencyModel(build_topology(chip))
        pillars = model.topology.pillar_xys
        nodes = two_layers(model)
        expected = {
            (src, dest): direct_path(src, dest, pillars)
            for src in nodes
            for dest in nodes
        }
        # The first pass fills the memo; the second reads it.
        for __ in range(2):
            assert {pair: model.path(*pair) for pair in expected} == expected

    def test_fault_change_moves_memoized_paths(self, model3d):
        state = FaultState()
        model3d.attach_fault_state(state)
        pillars = model3d.topology.pillar_xys
        nodes = two_layers(model3d)
        pairs = [(s, d) for s in nodes for d in nodes if s.z != d.z]
        before = {pair: model3d.path(*pair) for pair in pairs}
        victim = pillars[0]
        src, dest = Coord(*victim, 0), Coord(*victim, 1)
        assert before[src, dest] == (0, victim)

        state.inject("pillar", victim)
        # note_packet makes the first lookup after the kill.
        model3d.note_packet(src, dest, 1, 1.0)
        assert bus_rate(model3d, victim) == 0.0
        assert model3d.bus_flits_total == 1
        alive = [xy for xy in pillars if xy != victim]
        assert {pair: model3d.path(*pair) for pair in pairs} == {
            pair: direct_path(*pair, alive) for pair in pairs
        }

        state.heal("pillar", victim)
        # packet_latency makes the first lookup after the heal: zero hops
        # through the healed pillar, whose bus carried nothing.
        latency = model3d.packet_latency(src, dest, 1, cycle=2.0)
        assert latency == INJECTION_OVERHEAD + BUS_OVERHEAD
        assert {pair: model3d.path(*pair) for pair in pairs} == before

    def test_all_pillars_dead(self, model3d):
        state = FaultState()
        model3d.attach_fault_state(state)
        src, cross, same = Coord(1, 1, 0), Coord(6, 3, 1), Coord(6, 3, 0)
        model3d.path(src, cross)  # memoized while the pillars live
        for xy in model3d.topology.pillar_xys:
            state.inject("pillar", xy)
        # path() makes the first lookup after the last kill.
        with pytest.raises(ValueError):
            model3d.path(src, cross)
        with pytest.raises(ValueError):
            model3d.packet_latency(src, cross, 4, cycle=1.0)
        with pytest.raises(ValueError):
            model3d.note_packet(src, cross, 4, 1.0)
        assert model3d.path(src, same) == (7, None)
        assert model3d.packet_latency(src, same, 4, cycle=1.0) > 0.0


class TestRecordFusion:
    def test_record_equals_latency_then_note_packet(self, model3d):
        """``record=True`` leaves the model exactly where ``record=False``
        followed by ``note_packet`` does, float for float."""
        fused, split = model3d, LatencyModel(model3d.topology)
        rng = random.Random(2006)
        nodes = rng.sample(two_layers(model3d), 24)
        crossed = set()
        cycle = 100.0
        for __ in range(4000):
            src, dest = rng.sample(nodes, 2)
            size = rng.choice((1, 4))
            # Mostly repeated cycles, some advancing, a few going back.
            cycle += rng.choice((0.0, 0.0, 0.0, 0.5, 3.0, 40.0, -2.0))
            latency = fused.packet_latency(src, dest, size, cycle)
            assert latency == split.packet_latency(
                src, dest, size, cycle, record=False
            )
            split.note_packet(src, dest, size, cycle)
            assert load_state(fused) == load_state(split)
            crossed.add(src.z != dest.z)
        assert crossed == {True, False}

    def test_no_cycle_leaves_load_untouched(self, model3d):
        src, dest = Coord(0, 0, 0), Coord(9, 5, 1)
        model3d.note_packet(src, dest, 4, 50.0)
        before = load_state(model3d)
        for record in (True, False):
            assert model3d.packet_latency(src, dest, 4, record=record) > 0.0
        assert load_state(model3d) == before


def reference_totals(model, src, targets, flits, tag, cycle):
    """Each target's ``out + tag + back``, priced one packet at a time."""
    totals = []
    for target in targets:
        out = model.packet_latency(src, target, flits, cycle)
        back = model.packet_latency(target, src, flits, cycle)
        totals.append(out + tag + back)
    return totals


def reference_query_round(model, src, targets, flits, tag, cycle):
    """The per-packet loop that ``LatencyModel.query_round`` replaced."""
    return max(
        [float(tag), *reference_totals(model, src, targets, flits, tag, cycle)]
    )


def marked_pairs(table):
    """The indices of the pairs a round table prices, and its pair count.

    Each step records two loads for every pair before it that it leaves
    unpriced, then prices one pair.
    """
    marked, count = [], 0
    for mesh_loads, __, __ in table.steps:
        count += len(mesh_loads) // 2
        marked.append(count)
        count += 1
    return marked, count


def check_marks(table, totals, tag):
    """The table prices the round's last pair, and no pair it leaves
    unpriced totals more than the worst of the probe and the pairs it
    prices.  ``totals`` are the reference totals of the round's pairs."""
    marked, count = marked_pairs(table)
    assert count == len(totals)
    if totals:
        assert marked[-1] == count - 1
    priced = max([float(tag)] + [totals[i] for i in marked])
    assert all(
        total <= priced
        for i, total in enumerate(totals)
        if i not in marked
    )


def reference_multicast(model, src, targets, answer, flits, cycle):
    """The per-packet loop that ``LatencyModel.multicast`` replaced."""
    for target in targets:
        model.note_packet(src, target, flits, cycle)
    if answer == src:
        return 0.0
    return model.packet_latency(src, answer, flits, cycle, record=False)


def every_node(model):
    """Every node on every layer of the model's chip."""
    width, height = model.topology.config.mesh_dims
    return [
        Coord(x, y, z)
        for z in range(model.topology.config.num_layers)
        for y in range(height)
        for x in range(width)
    ]


class TestRoundKernels:
    """The round kernels against the per-packet loops they replaced.

    Two models see the same calls, one through the kernels and one
    through the reference loops, with legs and sends in between, and
    must agree float for float after every call.
    """

    TAG = 3

    @staticmethod
    def random_round(rng, nodes):
        """A source and targets that may repeat or include the source."""
        src = rng.choice(nodes)
        pool = rng.sample(nodes, 4) + [src]
        shape = rng.random()
        if shape < 0.1:
            return src, ()
        if shape < 0.2:
            return src, (src,) * rng.randint(1, 2)
        return src, tuple(rng.choice(pool) for __ in range(rng.randint(1, 8)))

    CHIPS = {
        "2D": ChipConfig(num_layers=1, num_pillars=0),
        "2L-8p": ChipConfig(),
        "4L-2p": ChipConfig(num_layers=4, num_pillars=2),
    }

    @pytest.mark.parametrize(
        "chip,saturate",
        [(chip, False) for chip in CHIPS.values()]
        + [(chip, True) for chip in CHIPS.values()],
        ids=[*CHIPS, *(f"{name}-saturated" for name in CHIPS)],
    )
    def test_kernels_match_per_packet_loops(self, chip, saturate):
        """Saturated, the mesh and one pillar are flooded past
        ``MAX_UTILIZATION`` before the rounds and every 100 steps, so
        clamped rates make equal totals common."""
        topology = build_topology(chip)
        kernel, reference = LatencyModel(topology), LatencyModel(topology)
        width, height = chip.mesh_dims
        # Corner to corner, across a pillar on a layered chip.
        flood_path = (
            Coord(0, 0, 0),
            Coord(width - 1, height - 1, chip.num_layers - 1),
        )
        state = FaultState()
        kernel.attach_fault_state(state)
        reference.attach_fault_state(state)
        rng = random.Random(2006)
        nodes = rng.sample(every_node(kernel), 24)
        # Rounds come back, as a CPU's search plan does, so tables are
        # reused; the all-source and empty rounds are always among them.
        plans = [self.random_round(rng, nodes) for __ in range(10)]
        plans += [(nodes[0], ()), (nodes[1], (nodes[1],))]
        # Kill the pillar of a planned query, so a table kept across the
        # fault change would route through a dead pillar.
        crossing = [
            (src, target) for src, targets in plans for target in targets
            if src.z != target.z
        ]
        assert bool(crossing) == (chip.num_layers > 1)
        victim = kernel.path(*crossing[0])[1] if crossing else None
        steps = 3000
        cycle = 100.0
        kinds = set()
        for step in range(steps):
            if victim and step == steps // 3:
                state.inject("pillar", victim)
            if victim and step == 2 * steps // 3:
                state.heal("pillar", victim)
            if saturate and step % 100 == 0:
                flood((kernel, reference), *flood_path, cycle)
                assert load_state(kernel) == load_state(reference)
            # Mostly repeated cycles, some advancing, a few going back.
            cycle += rng.choice((0.0, 0.0, 0.0, 0.5, 3.0, 40.0, -2.0))
            flits = rng.choice((1, 4))
            if rng.random() < 0.7:
                src, targets = rng.choice(plans)
            else:
                src, targets = self.random_round(rng, nodes)
            kind = rng.choice(("round", "multicast", "leg", "send"))
            kinds.add(kind)
            if kind == "round":
                got = kernel.query_round(src, targets, flits, self.TAG, cycle)
                totals = reference_totals(
                    reference, src, targets, flits, self.TAG, cycle
                )
                want = max([float(self.TAG), *totals])
                check_marks(
                    kernel._rounds[src, targets, flits],
                    [t for target, t in zip(targets, totals) if target != src],
                    self.TAG,
                )
            elif kind == "multicast":
                answer = rng.choice((src, rng.choice(nodes), *targets))
                got = kernel.multicast(src, targets, answer, flits, cycle)
                want = reference_multicast(
                    reference, src, targets, answer, flits, cycle
                )
            elif kind == "leg":
                dest = rng.choice(nodes)
                got = kernel.packet_latency(src, dest, flits, cycle)
                want = reference.packet_latency(src, dest, flits, cycle)
            else:
                dest = rng.choice(nodes)
                got = kernel.note_packet(src, dest, flits, cycle)
                want = reference.note_packet(src, dest, flits, cycle)
            assert got == want, (step, kind)
            assert load_state(kernel) == load_state(reference), (step, kind)
        assert kinds == {"round", "multicast", "leg", "send"}
        assert reference.flit_hops_total > 0

    def test_loaded_pillar_outweighs_more_hops_on_an_idle_one(self, model3d):
        """A later pair with more hops does not dominate an earlier one
        across another pillar: loaded, that pillar sets the worst."""
        reference = LatencyModel(model3d.topology)
        src = Coord(4, 2, 0)
        loaded, idle = (2, 2), (6, 2)
        targets = (Coord(2, 2, 1), Coord(7, 2, 1))
        for target, hops, pillar in zip(targets, (2, 3), (loaded, idle)):
            assert model3d.path(src, target) == (hops, pillar)
            assert model3d.path(target, src) == (hops, pillar)
        flood((model3d, reference), Coord(*loaded, 0), Coord(*loaded, 1), 1.0)
        assert bus_rate(model3d, idle) == 0.0
        got = model3d.query_round(src, targets, 1, self.TAG, 1.0)
        totals = reference_totals(reference, src, targets, 1, self.TAG, 1.0)
        assert totals[0] > totals[1]
        assert got == totals[0]
        assert load_state(model3d) == load_state(reference)
        assert marked_pairs(model3d._rounds[src, targets, 1]) == ([0, 1], 2)

    def test_equal_hop_pairs_last_price_only_the_last(self, model2d):
        """A 2D round whose last pairs tie on hops prices only the last
        pair, lightly loaded and with the mesh clamped, where the tied
        pairs total exactly the same."""
        reference = LatencyModel(model2d.topology)
        src = Coord(8, 8, 0)
        targets = (
            Coord(8, 3, 0), Coord(8, 6, 0), Coord(3, 8, 0),
            Coord(13, 8, 0), Coord(8, 13, 0),
        )
        assert [src.manhattan_2d(t) for t in targets] == [5, 2, 5, 5, 5]
        for cycle in (1.0, 1.0, 30.0):
            got = model2d.query_round(src, targets, 4, self.TAG, cycle)
            totals = reference_totals(reference, src, targets, 4, self.TAG, cycle)
            assert got == max(totals)
            assert load_state(model2d) == load_state(reference)
        assert totals[2] < totals[3] < totals[4]
        flood((model2d, reference), Coord(0, 0, 0), Coord(15, 15, 0), 40.0)
        got = model2d.query_round(src, targets, 4, self.TAG, 40.0)
        totals = reference_totals(reference, src, targets, 4, self.TAG, 40.0)
        assert totals[0] == totals[2] == totals[3] == totals[4] == got
        assert load_state(model2d) == load_state(reference)
        assert marked_pairs(model2d._rounds[src, targets, 4]) == ([4], 5)

    def test_empty_packets_are_refused(self, model2d):
        src, targets = Coord(0, 0, 0), (Coord(3, 4, 0),)
        for flits in (0, -1):
            with pytest.raises(ValueError, match="1 flit"):
                model2d.query_round(src, targets, flits, self.TAG, 1.0)
            with pytest.raises(ValueError, match="1 flit"):
                model2d.multicast(src, targets, targets[0], flits, 1.0)
        assert model2d._rounds == {}
        assert load_state(model2d) == load_state(LatencyModel(model2d.topology))

    def test_every_pillar_dead_raises_and_stores_no_table(self, model3d):
        state = FaultState()
        model3d.attach_fault_state(state)
        reference = LatencyModel(model3d.topology)
        reference.attach_fault_state(state)
        src, same = Coord(1, 1, 0), (Coord(6, 3, 0), Coord(2, 7, 0))
        cross = (Coord(6, 3, 1),) + same
        # Compiled while the pillars live.
        model3d.query_round(src, cross, 1, self.TAG, 1.0)
        reference_query_round(reference, src, cross, 1, self.TAG, 1.0)
        for xy in model3d.topology.pillar_xys:
            state.inject("pillar", xy)
        with pytest.raises(ValueError):
            model3d.query_round(src, cross, 1, self.TAG, 2.0)
        with pytest.raises(ValueError):
            model3d.multicast(src, cross, cross[0], 1, 2.0)
        assert model3d._rounds == {}
        # In-layer rounds still price, as the per-packet loop does.
        for cycle in (3.0, 4.0):
            assert model3d.query_round(
                src, same, 4, self.TAG, cycle
            ) == reference_query_round(reference, src, same, 4, self.TAG, cycle)
            assert model3d.multicast(
                src, same, same[1], 4, cycle
            ) == reference_multicast(reference, src, same, same[1], 4, cycle)
            assert load_state(model3d) == load_state(reference)


class TestConfig:
    """The calibration is module constants, which nothing can set, so
    the model no longer refuses values at run time.  Each case names a
    value the model cannot take and holds the constant inside the bound
    that refuses it: a weight >= 0 keeps a price from falling below
    zero or as hops and load grow, a capacity and a window > 0 keep the
    rates finite, and a clamp in [0, 1) keeps the queueing waits finite
    (NaN is inside no bound)."""

    BOUNDS = {
        "hop_cycles": lambda value: value >= 0,
        "injection_overhead": lambda value: value >= 0,
        "bus_overhead": lambda value: value >= 0,
        "q_mesh": lambda value: value >= 0,
        "q_bus": lambda value: value >= 0,
        "mesh_capacity_factor": lambda value: value > 0,
        "load_window": lambda value: value > 0,
        "max_utilization": lambda value: 0 <= value < 1,
    }

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hop_cycles", -1.0),
            ("injection_overhead", -1.0),
            ("bus_overhead", -0.5),
            ("q_mesh", -5.0),
            ("q_mesh", float("nan")),
            ("q_bus", -1.0),
            ("mesh_capacity_factor", 0.0),
            ("mesh_capacity_factor", -0.4),
            ("load_window", 0.0),
            ("max_utilization", 1.0),
            ("max_utilization", 1.5),
            ("max_utilization", -0.1),
        ],
    )
    def test_refuses_values_that_crash_or_price_below_zero(self, field, value):
        bound = self.BOUNDS[field]
        assert not bound(value)
        assert bound(getattr(latency_model, field.upper()))


class TestZeroLoad:
    def test_formula_same_layer(self, model2d):
        latency = model2d.zero_load_latency(Coord(0, 0, 0), Coord(5, 0, 0), 4)
        assert latency == INJECTION_OVERHEAD + 5 * HOP_CYCLES + 3

    def test_bus_overhead_added_cross_layer(self, model3d):
        latency = model3d.zero_load_latency(Coord(2, 2, 0), Coord(2, 2, 1), 1)
        assert latency == INJECTION_OVERHEAD + BUS_OVERHEAD

    def test_zero_for_same_node(self, model3d):
        assert model3d.zero_load_latency(Coord(1, 1, 0), Coord(1, 1, 0), 4) == 0


class TestLoadTracking:
    def test_rate_estimate_converges(self, model2d):
        # Needs several window half-lives to converge.
        for cycle in range(20_000):
            model2d.note_packet(Coord(0, 0, 0), Coord(5, 5, 0), 4, float(cycle))
        # one packet per cycle x 10 hops x 4 flits = 40 flit-hops/cycle
        assert model2d._mesh_rate == pytest.approx(40.0, rel=0.05)

    def test_rate_decays_when_idle(self, model2d):
        model2d.note_packet(Coord(0, 0, 0), Coord(5, 5, 0), 4, 0.0)
        busy = model2d._mesh_rate
        model2d._decay_to(100_000.0)
        assert model2d._mesh_rate < busy / 100

    def test_utilization_clamped(self, model2d):
        src, dest = Coord(0, 0, 0), Coord(15, 15, 0)
        for cycle in range(2000):
            for __ in range(50):
                model2d.note_packet(src, dest, 4, float(cycle))
        ceiling = MAX_UTILIZATION
        assert mesh_utilization(model2d) > ceiling
        # A one-flit packet waits exactly the clamped per-hop delay.
        wait = Q_MESH * ceiling / (1.0 - ceiling)
        hops = src.manhattan_2d(dest)
        assert model2d.packet_latency(
            src, dest, 1, cycle=2000.0, record=False
        ) == INJECTION_OVERHEAD + hops * (HOP_CYCLES + wait)

    def test_bus_rate_tracked_per_pillar(self, model3d):
        pillar = model3d.topology.pillar_xys[0]
        px, py = pillar
        for cycle in range(2000):
            model3d.note_packet(
                Coord(px, py, 0), Coord(px, py, 1), 4, float(cycle)
            )
        assert bus_rate(model3d, pillar) > 0.5
        other = model3d.topology.pillar_xys[-1]
        assert bus_rate(model3d, other) == 0.0

    def test_bus_utilization_clamped(self, model3d):
        px, py = pillar = model3d.topology.pillar_xys[0]
        src, dest = Coord(px, py, 0), Coord(px, py, 1)
        for cycle in range(2000):
            for __ in range(4):
                model3d.note_packet(src, dest, 4, float(cycle))
        ceiling = MAX_UTILIZATION
        assert bus_rate(model3d, pillar) > ceiling
        # Zero mesh hops and one flit: only the clamped bus wait remains.
        wait = Q_BUS * ceiling / (1.0 - ceiling)
        assert model3d.packet_latency(
            src, dest, 1, cycle=2000.0, record=False
        ) == INJECTION_OVERHEAD + BUS_OVERHEAD + wait


class TestContention:
    def test_latency_increases_with_load(self, model2d):
        quiet = model2d.packet_latency(
            Coord(0, 0, 0), Coord(8, 8, 0), 4, cycle=0.0, record=False
        )
        for cycle in range(3000):
            for __ in range(4):
                model2d.note_packet(
                    Coord(0, 0, 0), Coord(15, 15, 0), 4, float(cycle)
                )
        loaded = model2d.packet_latency(
            Coord(0, 0, 0), Coord(8, 8, 0), 4, cycle=3000.0, record=False
        )
        assert loaded > quiet

    def test_bus_contention_stretches_serialization(self, model3d):
        pillar = model3d.topology.pillar_xys[0]
        px, py = pillar
        src, dest = Coord(px, py, 0), Coord(px, py, 1)
        quiet = model3d.packet_latency(src, dest, 4, cycle=0.0, record=False)
        for cycle in range(3000):
            model3d.note_packet(src, dest, 4, float(cycle))
        loaded = model3d.packet_latency(
            src, dest, 4, cycle=3000.0, record=False
        )
        assert loaded > quiet

    def test_record_flag_controls_tracking(self, model2d):
        model2d.packet_latency(
            Coord(0, 0, 0), Coord(5, 5, 0), 4, cycle=1.0, record=False
        )
        assert model2d.flit_hops_total == 0
        model2d.packet_latency(
            Coord(0, 0, 0), Coord(5, 5, 0), 4, cycle=1.0, record=True
        )
        assert model2d.flit_hops_total == 40

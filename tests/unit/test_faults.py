"""Unit tests for the fault-injection subsystem.

Covers the declarative spec (round-trip, deterministic resolution, CLI
parsing), the arbiter's slot reclamation, the live fault state, the
liveness watchdog, and the NUCA bank-fault degradation mechanics.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chip import ChipConfig
from repro.core.placement import build_topology
from repro.core.system import NetworkInMemory, SystemConfig
from repro.cache.line import LineEntry
from repro.cache.nuca import NucaL2
from repro.dtdma.arbiter import DynamicTDMAArbiter
from repro.faults.spec import (
    DEFAULT_WATCHDOG_WINDOW,
    FAULTS,
    FaultEvent,
    FaultSpec,
    mesh_link_targets,
    parse_fault_arg,
)
from repro.faults.injector import install_faults
from repro.faults.state import FaultState
from repro.faults.watchdog import DeadlockError, LivenessWatchdog
from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord, Port, fault_aware_route
from repro.sim.engine import SimulationStallError


# -- FaultEvent / FaultSpec ---------------------------------------------------


class TestFaultEvent:
    def test_validates_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("gremlin", (0, 0))

    def test_validates_target_arity(self):
        with pytest.raises(ValueError, match="must have 4 elements"):
            FaultEvent("link", (0, 0))
        with pytest.raises(ValueError, match="must have 2 elements"):
            FaultEvent("pillar", (0, 0, 0))

    def test_validates_port_name(self):
        with pytest.raises(ValueError, match="bad port"):
            FaultEvent("link", (0, 0, 0, "sideways"))

    def test_transient_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("pillar", (3, 3), duration=0)

    def test_heal_cycle(self):
        assert FaultEvent("pillar", (3, 3)).heal_cycle is None
        assert FaultEvent("pillar", (3, 3), onset=100, duration=50).heal_cycle == 150

    def test_round_trip_omits_defaults(self):
        event = FaultEvent("bank", (4, 7))
        data = event.to_dict()
        assert "onset" not in data and "duration" not in data
        assert FaultEvent.from_dict(data) == event


# Strategy for arbitrary-but-valid fault events.
_ports = st.sampled_from(["north", "south", "east", "west"])
_xy = st.tuples(st.integers(0, 15), st.integers(0, 7))
_events = st.one_of(
    st.builds(
        FaultEvent, st.just("pillar"), _xy,
        onset=st.integers(0, 5000),
        duration=st.one_of(st.none(), st.integers(1, 1000)),
    ),
    st.builds(
        FaultEvent, st.just("link"),
        st.tuples(st.integers(0, 15), st.integers(0, 7),
                  st.integers(0, 1), _ports),
        onset=st.integers(0, 5000),
        duration=st.one_of(st.none(), st.integers(1, 1000)),
    ),
    st.builds(
        FaultEvent, st.just("router_port"),
        st.tuples(st.integers(0, 15), st.integers(0, 7),
                  st.integers(0, 1), _ports),
        onset=st.integers(0, 5000),
    ),
    st.builds(FaultEvent, st.just("bank"),
              st.tuples(st.integers(0, 15), st.integers(0, 15))),
)


class TestFaultSpec:
    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(_events, max_size=4),
        dead_pillars=st.integers(0, 3),
        dead_links=st.integers(0, 3),
        dead_banks=st.integers(0, 3),
        onset=st.integers(0, 10_000),
        watchdog=st.sampled_from([0, 500, DEFAULT_WATCHDOG_WINDOW]),
    )
    def test_round_trip(self, events, dead_pillars, dead_links, dead_banks,
                        onset, watchdog):
        spec = FaultSpec(
            events=tuple(events),
            dead_pillars=dead_pillars,
            dead_links=dead_links,
            dead_banks=dead_banks,
            onset=onset,
            watchdog_window=watchdog,
        )
        data = spec.to_dict()
        assert FaultSpec.from_dict(data) == spec
        # Serialized form is canonical: defaults never appear.
        if spec.is_zero and onset == 0 and watchdog == DEFAULT_WATCHDOG_WINDOW:
            assert data == {}

    def test_zero_spec_serializes_empty(self):
        assert FaultSpec().to_dict() == {}
        assert FaultSpec().is_zero

    def test_resolution_is_deterministic(self):
        spec = FaultSpec(dead_pillars=2, dead_links=3, dead_banks=2, onset=50)
        pillars = tuple((x, y) for x in range(4) for y in range(4))
        links = mesh_link_targets(8, 8, 2)
        banks = tuple((c, b) for c in range(16) for b in range(16))
        first = spec.resolve(123, pillars=pillars, links=links, banks=banks)
        second = spec.resolve(123, pillars=pillars, links=links, banks=banks)
        assert first == second
        assert len(first) == 7
        assert all(event.onset == 50 for event in first)
        # A different seed draws different targets.
        other = spec.resolve(124, pillars=pillars, links=links, banks=banks)
        assert other != first

    def test_resolution_excludes_explicit_targets(self):
        explicit = FaultEvent("pillar", (0, 0))
        spec = FaultSpec(events=(explicit,), dead_pillars=1)
        resolved = spec.resolve(1, pillars=((0, 0), (1, 1)))
        kinds = [(e.kind, e.target) for e in resolved]
        assert kinds.count(("pillar", (0, 0))) == 1
        assert ("pillar", (1, 1)) in kinds

    def test_overdraw_raises(self):
        with pytest.raises(ValueError, match="cannot draw"):
            FaultSpec(dead_pillars=3).resolve(1, pillars=((0, 0),))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(dead_pillars=-1)


class TestParseFaultArg:
    def test_basic_kinds(self):
        assert parse_fault_arg("pillar:3,3") == FaultEvent("pillar", (3, 3))
        assert parse_fault_arg("bank:4,7") == FaultEvent("bank", (4, 7))
        assert parse_fault_arg("link:2,1,0,east") == FaultEvent(
            "link", (2, 1, 0, "east")
        )

    def test_onset_and_duration(self):
        event = parse_fault_arg("router_port:1,1,0,north@500+2000")
        assert event == FaultEvent(
            "router_port", (1, 1, 0, "north"), onset=500, duration=2000
        )

    def test_bad_format_raises(self):
        with pytest.raises(ValueError, match="expected kind:target"):
            parse_fault_arg("pillar")
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_arg("wire:1,2")


# -- arbiter slot reclamation -------------------------------------------------


class TestArbiterRemoveClient:
    def test_remove_shrinks_frame(self):
        arbiter = DynamicTDMAArbiter(["a", "b", "c"])
        arbiter.remove_client("b")
        assert arbiter.clients == ["a", "c"]
        grants = [arbiter.grant({"a", "c"}) for __ in range(4)]
        assert grants == ["a", "c", "a", "c"]

    def test_removed_client_rejected_from_active_set(self):
        arbiter = DynamicTDMAArbiter(["a", "b"])
        arbiter.remove_client("a")
        with pytest.raises(ValueError, match="unregistered"):
            arbiter.grant({"a", "b"})

    def test_priority_passes_to_circular_successor(self):
        arbiter = DynamicTDMAArbiter(["a", "b", "c"])
        assert arbiter.grant({"a", "b", "c"}) == "a"
        # "a" holds priority; removing it must hand priority to "b".
        arbiter.remove_client("a")
        assert arbiter.grant({"b", "c"}) == "b"
        assert arbiter.grant({"b", "c"}) == "c"

    def test_remove_unknown_raises(self):
        arbiter = DynamicTDMAArbiter(["a"])
        with pytest.raises(ValueError, match="unknown client"):
            arbiter.remove_client("z")

    def test_remove_all_clients_allowed(self):
        arbiter = DynamicTDMAArbiter(["a", "b"])
        arbiter.remove_client("a")
        arbiter.remove_client("b")
        assert arbiter.grant(set()) is None

    def test_readd_after_remove(self):
        arbiter = DynamicTDMAArbiter(["a", "b"])
        arbiter.remove_client("a")
        arbiter.add_client("a")
        seen = {arbiter.grant({"a", "b"}) for __ in range(4)}
        assert seen == {"a", "b"}

    def test_utilization_counters_consistent_across_removal(self):
        arbiter = DynamicTDMAArbiter(["a", "b"])
        arbiter.grant({"a"})
        arbiter.grant(set())
        granted = arbiter.stats.snapshot()
        arbiter.remove_client("a")
        assert arbiter.stats.snapshot() == granted == {"arbiter.grants": 1}

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_robin_fair_after_any_removal(self, data):
        clients = list(range(6))
        arbiter = DynamicTDMAArbiter(clients)
        # Grant a few times, remove a random client, then check fairness.
        for __ in range(data.draw(st.integers(0, 6))):
            arbiter.grant(set(clients))
        victim = data.draw(st.sampled_from(clients))
        arbiter.remove_client(victim)
        survivors = [c for c in clients if c != victim]
        grants = [arbiter.grant(set(survivors)) for __ in range(2 * len(survivors))]
        assert all(grants.count(c) == 2 for c in survivors)


# -- FaultState ---------------------------------------------------------------


class TestFaultState:
    def test_mutations_are_idempotent(self):
        state = FaultState()
        seen = []
        state.add_listener(lambda kind, target, phase: seen.append(phase))
        state.inject("pillar", (3, 3))
        state.inject("pillar", (3, 3))
        assert seen == ["inject"]
        state.heal("pillar", (3, 3))
        state.heal("pillar", (3, 3))
        assert seen == ["inject", "heal"]
        assert not state.dead_pillars
        assert state.stats.snapshot()["faults.injected"] == 1
        assert state.stats.snapshot()["faults.healed"] == 1

    def test_listeners_notified(self):
        state = FaultState()
        seen = []
        state.add_listener(lambda kind, target, phase: seen.append((kind, phase)))
        state.inject("link", (1, 2, 0, "east"))
        state.heal("link", (1, 2, 0, "east"))
        assert seen == [("link", "inject"), ("link", "heal")]

    def test_live_sets_follow_the_table(self):
        state = FaultState()
        for name, kind in FAULTS.items():
            assert state.live[name] is getattr(state, kind.live)
        state.inject("link", (1, 2, 0, "east"))
        state.inject("router_port", (1, 2, 0, "north"))
        state.inject("bank", (4, 7))
        assert state.dead_links == {(Coord(1, 2, 0), Port.EAST)}
        assert state.jammed_ports == {(Coord(1, 2, 0), Port.NORTH)}
        assert state.dead_banks == {(4, 7)}
        assert state.active == 3
        summary = state.summary()
        assert summary["dead_links"] == [(1, 2, 0, "east")]
        assert summary["jammed_ports"] == [(1, 2, 0, "north")]

    def test_packet_loss_counted_once(self):
        state = FaultState()

        class FakePacket:
            lost = False

        packet = FakePacket()
        drained = []
        state.on_packet_lost = drained.append
        state.packet_lost(packet)
        state.packet_lost(packet)
        assert packet.lost
        assert len(drained) == 1
        assert state.summary()["packets_lost"] == 1

    def test_mesh_faulty_only_for_link_faults(self):
        state = FaultState()
        state.inject("pillar", (3, 3))
        assert not state.mesh_faulty
        state.inject("link", (0, 0, 0, "east"))
        assert state.mesh_faulty


# -- install-time refusals ----------------------------------------------------


def _model_system(**spec):
    return NetworkInMemory(SystemConfig(faults=FaultSpec(**spec)))


class TestInstallRefusals:
    def test_unknown_pillar_on_the_fabric(self):
        spec = FaultSpec(events=(FaultEvent("pillar", (0, 0)),))
        with pytest.raises(ValueError, match=re.escape(
            "pillar fault targets unknown pillar (0, 0); "
            "pillars are at [(1, 1), (2, 2)]"
        )):
            install_faults(_network(), spec, 1)

    def test_bank_fault_needs_a_cache(self):
        spec = FaultSpec(events=(FaultEvent("bank", (0, 0)),))
        with pytest.raises(ValueError, match=re.escape(
            "bank faults need a cache layer (network-only install "
            "cannot apply (0, 0))"
        )):
            install_faults(_network(), spec, 1)

    @pytest.mark.parametrize("spec", [
        {"dead_links": 1},
        {"events": (FaultEvent("link", (1, 1, 0, "east")),)},
        {"events": (FaultEvent("router_port", (1, 1, 0, "east")),)},
    ])
    def test_model_mode_refuses_mesh_faults(self, spec):
        with pytest.raises(ValueError, match=re.escape(
            "link/router_port faults require mode='cycle' (the analytic "
            "model carries no per-link state)"
        )):
            _model_system(**spec)

    def test_model_mode_refuses_timed_faults(self):
        with pytest.raises(ValueError, match=re.escape(
            "model mode supports only permanent onset-0 faults; "
            "use mode='cycle' for timed fault schedules"
        )):
            _model_system(events=(FaultEvent("bank", (0, 0), duration=5),))

    def test_model_mode_refuses_unknown_pillar(self):
        with pytest.raises(ValueError, match="unknown pillar"):
            _model_system(events=(FaultEvent("pillar", (0, 0)),))

    @pytest.mark.parametrize("target", [(99, 0), (0, 16), (16, 0)])
    def test_unknown_bank(self, target):
        # Clusters 0-15 of 16 banks each; either index past its end
        # names no bank.
        with pytest.raises(ValueError, match=re.escape(
            f"bank fault targets unknown bank {target}; banks are "
            "(cluster, bank) pairs from (0, 0) to (15, 15)"
        )):
            _model_system(events=(FaultEvent("bank", target),))

    @pytest.mark.parametrize("target", [
        (3, 0, 0, "east"),   # off the east edge of the 4-wide mesh
        (0, 3, 1, "north"),  # off the north edge
        (0, 0, 2, "east"),   # a third layer the 4x4x2 mesh lacks
    ])
    def test_unknown_link(self, target):
        spec = FaultSpec(events=(FaultEvent("link", target),))
        with pytest.raises(ValueError, match=re.escape(
            f"link fault targets unknown link {target}; links join "
            "neighbours on the 4x4x2 mesh"
        )):
            install_faults(_network(), spec, 1)

    @pytest.mark.parametrize("target", [
        (3, 0, 0, "east"),       # no link leaves that way
        (0, 0, 0, "vertical"),   # no pillar router at (0, 0)
        (1, 1, 2, "vertical"),   # nor on a third layer
    ])
    def test_unknown_router_port(self, target):
        spec = FaultSpec(events=(FaultEvent("router_port", target),))
        with pytest.raises(ValueError, match=re.escape(
            f"router_port fault targets unknown port {target}; ports are "
            "the links of the 4x4x2 mesh and each pillar router's "
            "'vertical' port"
        )):
            install_faults(_network(), spec, 1)

    def test_pillar_routers_vertical_ports_are_targets(self):
        spec = FaultSpec(events=tuple(
            FaultEvent("router_port", (x, y, z, "vertical"))
            for x, y in ((1, 1), (2, 2))
            for z in (0, 1)
        ))
        network = _network()
        harness = install_faults(network, spec, 1)
        network.engine.step()  # onset-0 events fire on the first cycle
        assert harness.state.active == 4


# -- fault-aware routing ------------------------------------------------------


class TestFaultAwareRoute:
    def test_matches_dimension_order_when_clear(self):
        route = fault_aware_route(
            Coord(0, 0, 0), Coord(3, 2, 0), None, frozenset()
        )
        assert route == Port.EAST

    def test_misroutes_around_dead_productive_link(self):
        dead = frozenset({(Coord(0, 0, 0), Port.EAST)})
        route = fault_aware_route(Coord(0, 0, 0), Coord(3, 2, 0), None, dead)
        assert route == Port.NORTH  # the other productive dimension

    def test_unreachable_when_both_productive_ports_dead(self):
        dead = frozenset({
            (Coord(0, 0, 0), Port.EAST),
            (Coord(0, 0, 0), Port.NORTH),
        })
        assert fault_aware_route(Coord(0, 0, 0), Coord(3, 2, 0), None, dead) is None

    def test_single_dimension_dest_has_no_detour(self):
        # Same row: the only productive port is EAST; if dead -> None.
        dead = frozenset({(Coord(0, 0, 0), Port.EAST)})
        assert fault_aware_route(Coord(0, 0, 0), Coord(3, 0, 0), None, dead) is None


# -- liveness watchdog --------------------------------------------------------


def _network(width=4, height=4, layers=2, pillars=((1, 1), (2, 2))):
    return Network(NetworkConfig(
        width=width, height=height, layers=layers, pillar_locations=pillars
    ))


class TestLivenessWatchdog:
    def test_quiet_network_never_fires(self):
        network = _network()
        watchdog = LivenessWatchdog(network, window=50)
        for __ in range(300):
            network.engine.step()
        assert watchdog.checks >= 5

    def test_moving_traffic_does_not_fire(self):
        network = _network()
        LivenessWatchdog(network, window=20)
        network.send(Coord(0, 0, 0), Coord(3, 3, 1))
        network.engine.run_until(lambda: network.in_flight == 0,
                                 max_cycles=10_000)

    def test_detects_seeded_stall(self):
        network = _network()
        state = FaultState()
        network.attach_fault_state(state)
        watchdog = LivenessWatchdog(network, window=100)
        # Jam the only productive port for this flow: hard stall.
        state.inject("router_port", (1, 0, 0, "east"))
        network.send(Coord(0, 0, 0), Coord(3, 0, 0))
        with pytest.raises(DeadlockError) as excinfo:
            for __ in range(1000):
                network.engine.step()
        error = excinfo.value
        assert error.failure_kind == "deadlock"
        assert isinstance(error, SimulationStallError)
        assert any("router(" in name for name in error.stalled_components)
        assert error.in_flight == 1
        assert watchdog.checks >= 1

    def test_fast_forwarded_windows_count_as_progress(self):
        """Idle fast-forward across a watched window is not a deadlock.

        In-flight accounting held *above* the fabric — a cycle-mode
        requester waiting out an idle gap between transaction legs —
        leaves ``network.in_flight > 0`` while every component is
        genuinely quiescent.  The engine fast-forwards such windows, and
        the watchdog must read the skipped cycles as progress instead of
        raising.  (A real deadlock never fast-forwards: a component
        holding buffered flits does not report idle.)
        """
        network = _network()
        watchdog = LivenessWatchdog(network, window=20)
        network._in_flight = 1  # accounting held above a quiescent fabric
        network.engine.run(500)
        assert watchdog.checks >= 5
        assert network.engine.fast_forwarded_cycles > 0

    def test_watched_bursty_run_still_fast_forwards(self):
        """The watchdog chunks — but never blocks — idle fast-forward."""
        network = _network()
        LivenessWatchdog(network, window=25)
        network.send(Coord(0, 0, 0), Coord(3, 3, 1))
        network.engine.run(300)
        assert network.in_flight == 0
        assert network.engine.fast_forwarded_cycles > 0

    def test_cancel_stops_checking(self):
        network = _network()
        watchdog = LivenessWatchdog(network, window=10)
        watchdog.cancel()
        for __ in range(100):
            network.engine.step()
        assert watchdog.checks == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="positive"):
            LivenessWatchdog(_network(), window=0)


# -- NUCA bank faults ---------------------------------------------------------


@pytest.fixture()
def nuca():
    return NucaL2(build_topology(ChipConfig()))


def _attach(nuca):
    state = FaultState(stats=nuca.stats)
    nuca.attach_fault_state(state)
    return state


class TestBankFaults:
    def test_dead_bank_remaps_to_alive_neighbor(self, nuca):
        state = _attach(nuca)
        state.inject("bank", (0, 0))
        decoded = None
        for address in range(0, 1 << 24, 64):
            candidate = nuca.addr_map.decode(address)
            if candidate.home_cluster == 0 and candidate.bank == 0:
                decoded = candidate
                break
        cluster = nuca.topology.clusters[0]
        assert nuca.bank_node(0, decoded) == cluster.bank_nodes[1]
        assert nuca.stats.scope("faults").counter("bank_remapped").value == 1

    def test_capacity_degrades_proportionally(self, nuca):
        state = _attach(nuca)
        banks = len(nuca.topology.clusters[0].bank_nodes)
        for bank in range(banks // 2):
            state.inject("bank", (0, bank))
        nuca.apply_bank_faults()
        store = nuca.clusters[0]
        assert store.effective_ways == store.ways // 2
        # Other clusters keep full capacity.
        assert nuca.clusters[1].effective_ways == nuca.clusters[1].ways

    def test_shrink_evicts_displaced_lines(self, nuca):
        state = _attach(nuca)
        # Fill one set of cluster 0 completely.
        store = nuca.clusters[0]
        addresses = []
        for address in range(0, 1 << 26, 64):
            decoded = nuca.addr_map.decode(address)
            if decoded.home_cluster == 0 and decoded.index == 0:
                addresses.append(address)
                if len(addresses) == store.ways:
                    break
        for address in addresses:
            nuca.access(0, address)
        assert store.free_ways(0) == 0
        banks = len(nuca.topology.clusters[0].bank_nodes)
        for bank in range(banks // 2):
            state.inject("bank", (0, bank))
        lost = nuca.apply_bank_faults()
        assert lost == store.ways - store.effective_ways
        assert nuca.stats.scope("faults").counter("bank_lines_lost").value == lost
        # Displaced lines are gone from the location map: re-access misses.
        hits_before = nuca.stats.scope("l2").counter("hits").value
        nuca.access(0, addresses[-1])
        assert nuca.stats.scope("l2").counter("hits").value == hits_before

    def test_degraded_insert_respects_effective_ways(self, nuca):
        state = _attach(nuca)
        banks = len(nuca.topology.clusters[0].bank_nodes)
        for bank in range(banks // 2):
            state.inject("bank", (0, bank))
        nuca.apply_bank_faults()
        store = nuca.clusters[0]
        filled = 0
        for address in range(0, 1 << 26, 64):
            decoded = nuca.addr_map.decode(address)
            if decoded.home_cluster == 0 and decoded.index == 0:
                nuca.access(0, address)
                filled += 1
                if filled == store.ways:
                    break
        occupied = sum(
            1 for entry in store._sets[0] if entry is not None
        )
        assert occupied == store.effective_ways

    def test_full_degraded_set_refuses_migrations(self, nuca):
        # A set at its degraded cap whose lines are all migrating has no
        # room: accepting a migration there would evict a line in transit.
        state = _attach(nuca)
        banks = len(nuca.topology.clusters[0].bank_nodes)
        for bank in range(banks // 2):
            state.inject("bank", (0, bank))
        nuca.apply_bank_faults()
        store = nuca.clusters[0]
        decoded = nuca.addr_map.decode(0)
        for tag in range(store.effective_ways):
            entry = LineEntry(tag=tag, index=decoded.index)
            entry.begin_migration(1, 100.0)
            store.insert(decoded.index, entry)
        assert not nuca._can_accept(0, decoded)

    def test_heal_restores_capacity(self, nuca):
        state = _attach(nuca)
        state.inject("bank", (0, 0))
        nuca.apply_bank_faults()
        assert nuca.clusters[0].effective_ways < nuca.clusters[0].ways
        state.heal("bank", (0, 0))
        nuca.apply_bank_faults()
        assert nuca.clusters[0].effective_ways == nuca.clusters[0].ways

    def test_all_banks_dead_rejected(self, nuca):
        state = _attach(nuca)
        banks = len(nuca.topology.clusters[0].bank_nodes)
        for bank in range(banks):
            state.inject("bank", (0, bank))
        with pytest.raises(ValueError, match="unservable"):
            nuca.apply_bank_faults()

"""Unit tests for the vector fabric's occupancy-adaptive advance.

The occupied set (sorted flat (router, port, vc) indices with buffered
flits, maintained incrementally on deposit) is what makes the per-cycle
mesh cost scale with live traffic instead of mesh size.  These tests pin
its one invariant — ``occupied_lanes()`` equals the full buffer scan at
every compaction point — across the sparse/dense regime transitions, and
cover the observability satellites: the ``noc.vector`` occupancy
histograms and the ``VECTOR_OCCUPANCY`` trace probe.
"""

from __future__ import annotations

import random

import pytest

from repro.noc.network import Network, NetworkConfig
from repro.noc.vector import SPARSE_THRESHOLD
from repro.sim.trace import VECTOR_OCCUPANCY, RingTracer
from tests.vector_paths import (
    ALWAYS_BATCHED,
    ALWAYS_SCALAR,
    assert_pinned,
    pin_crossover,
)

np = pytest.importorskip("numpy")

PILLARS = ((1, 1), (2, 2))


def make_network(width=4, height=4, layers=2):
    config = NetworkConfig(
        width=width, height=height, layers=layers, pillar_locations=PILLARS
    )
    return Network(config, fabric="vector")


def drive_random(network, cycles, rate, seed=11):
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
    return sent


def assert_occupied_set_exact(vector):
    """The compacted occupied set is exactly the nonzero buffer scan."""
    occ = vector.occupied_lanes()
    expected = np.flatnonzero(vector._buf_cnt)
    assert np.array_equal(occ, expected)
    # Staged lists were folded in by the compaction.
    assert vector._occ_new == []
    assert vector._occ_new_scalar == []
    # Membership mirrors the set unless dense mode turned bookkeeping off.
    if not vector._occ_dense:
        assert np.array_equal(np.flatnonzero(vector._in_occ), expected)


class TestOccupiedSetInvariant:
    def test_exact_mid_run_and_after_drain(self):
        network = make_network()
        vector = network.vector_fabric
        rng = random.Random(3)
        coords = list(network.coords())
        for cycle in range(120):
            for src in coords:
                if rng.random() < 0.1:
                    dest = coords[rng.randrange(len(coords))]
                    if dest != src:
                        network.send(src, dest)
            network.engine.step()
            if cycle % 10 == 0:
                assert_occupied_set_exact(vector)
        network.quiesce(max_cycles=100_000)
        assert_occupied_set_exact(vector)
        assert vector.occupied_lanes().size == 0
        assert vector.check_invariants() == []

    def test_survives_dense_sparse_transitions(self):
        """Saturate (dense mode), drain (back to sparse), stay exact."""
        network = make_network()
        vector = network.vector_fabric
        drive_random(network, cycles=80, rate=0.5, seed=7)
        saw_dense = vector._occ_dense or vector._nic_dense
        assert_occupied_set_exact(vector)
        network.quiesce(max_cycles=200_000)
        assert_occupied_set_exact(vector)
        assert not vector._occ_dense
        assert saw_dense, "saturating a 4x4x2 mesh should enter dense mode"
        assert vector.check_invariants() == []

    def test_occupied_lanes_idempotent(self):
        network = make_network()
        vector = network.vector_fabric
        drive_random(network, cycles=30, rate=0.2)
        first = vector.occupied_lanes()
        second = vector.occupied_lanes()
        assert np.array_equal(first, second)


class TestSparseDenseEquivalence:
    """Threshold 0 (always batched) vs huge (always scalar) vs default."""

    def _observables(self, threshold, seed=13):
        with pin_crossover(threshold) as steps:
            network = make_network()
            sent = drive_random(network, cycles=150, rate=0.08, seed=seed)
            network.quiesce(max_cycles=200_000)
        stats = network.stats.scope("nic")
        observables = (
            sent,
            network.completed_packets,
            network.engine.cycle,
            stats.counter("packets_received").value,
            stats.histogram("packet_latency").mean,
            network.vector_fabric.check_invariants(),
        )
        return observables, steps

    def test_identical_results_across_thresholds(self):
        batched, batched_steps = self._observables(ALWAYS_BATCHED)
        scalar, scalar_steps = self._observables(ALWAYS_SCALAR)
        default, default_steps = self._observables(SPARSE_THRESHOLD)
        assert batched == scalar == default
        assert batched[-1] == []
        assert_pinned(batched_steps, ALWAYS_BATCHED)
        assert_pinned(scalar_steps, ALWAYS_SCALAR)
        # The default crossover mixes both paths within one run.
        assert default_steps["scalar"] and default_steps["batched"]


class TestOccupancyObservability:
    def test_histograms_recorded(self):
        network = make_network()
        drive_random(network, cycles=50, rate=0.1)
        scope = network.stats.scope("noc.vector")
        occupied = scope.histogram("occupied_vcs", bucket_width=8.0)
        lanes = scope.histogram("active_lanes")
        assert occupied.count > 0
        assert lanes.count > 0
        # Something was actually occupied at some point during the run.
        assert occupied.mean > 0

    def test_histograms_equal_across_sparse_and_dense_paths(self):
        """Both paths record the same per-cycle occupancy stream."""
        snapshots = []
        for threshold in (ALWAYS_BATCHED, ALWAYS_SCALAR):
            with pin_crossover(threshold) as steps:
                network = make_network()
                drive_random(network, cycles=60, rate=0.08, seed=17)
                network.quiesce(max_cycles=200_000)
            assert_pinned(steps, threshold)
            scope = network.stats.scope("noc.vector")
            occupied = scope.histogram("occupied_vcs", bucket_width=8.0)
            lanes = scope.histogram("active_lanes")
            snapshots.append(
                (
                    occupied.count, occupied.mean,
                    lanes.count, lanes.mean,
                )
            )
        assert snapshots[0] == snapshots[1]

    def test_tracer_probe_emits_occupancy_events(self):
        network = make_network()
        tracer = RingTracer()
        network.vector_fabric.attach_tracer(tracer)
        drive_random(network, cycles=40, rate=0.1)
        events = [e for e in tracer.events() if e[1] == VECTOR_OCCUPANCY]
        assert events
        track_names = tracer.tracks()
        for ts, kind, track, occupied_vcs, active_lanes in events:
            assert track_names[track] == "noc.vector"
            assert occupied_vcs >= active_lanes >= 0

    def test_null_tracer_by_default_keeps_run_identical(self):
        """Attaching no tracer leaves observables untouched (guarded probe)."""
        results = []
        for attach in (False, True):
            network = make_network()
            if attach:
                network.vector_fabric.attach_tracer(RingTracer())
            drive_random(network, cycles=50, rate=0.1, seed=23)
            network.quiesce(max_cycles=200_000)
            results.append(
                (
                    network.completed_packets,
                    network.engine.cycle,
                    network.stats.scope("nic").histogram(
                        "packet_latency"
                    ).mean,
                )
            )
        assert results[0] == results[1]

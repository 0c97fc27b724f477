"""Property: the vector fabric's sparse scalar path equals the batched path.

The occupancy-adaptive advance picks between two implementations of the
same cycle — a scalar per-flit walk at or below ``SPARSE_THRESHOLD``
occupied lanes, the batched numpy arbitration above it.  The switch must
be invisible: for any mesh and any traffic pattern, pinning the threshold
to "never" (0) and "always" (huge) must produce bit-identical runs, and
each pinned run must take only its own path.
Bursty ON/idle phases exercise the regime transitions (burst -> dense,
idle tail -> sparse -> empty) where staging or membership bugs would
surface as divergent deliveries or latencies.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.noc.network import Network, NetworkConfig
from tests.vector_paths import (
    ALWAYS_BATCHED,
    ALWAYS_SCALAR,
    assert_pinned,
    pin_crossover,
)

np = pytest.importorskip("numpy")

PILLARS = ((1, 1), (2, 2))

# (on_cycles, idle_cycles, injection rate during the ON phase)
phases = st.lists(
    st.tuples(
        st.integers(1, 25), st.integers(0, 25),
        st.sampled_from([0.02, 0.1, 0.4]),
    ),
    min_size=1,
    max_size=4,
)


def _run(width, height, layers, schedule, seed, threshold):
    config = NetworkConfig(
        width=width, height=height, layers=layers, pillar_locations=PILLARS
    )
    with pin_crossover(threshold) as steps:
        network = Network(config, fabric="vector")
        rng = random.Random(seed)
        coords = list(network.coords())
        sent = 0
        for on_cycles, idle_cycles, rate in schedule:
            for __ in range(on_cycles):
                for src in coords:
                    if rng.random() < rate:
                        dest = coords[rng.randrange(len(coords))]
                        if dest != src:
                            network.send(src, dest)
                            sent += 1
                network.engine.step()
            for __ in range(idle_cycles):
                network.engine.step()
        network.quiesce(max_cycles=500_000)
    if sent:
        assert_pinned(steps, threshold)
    vector = network.vector_fabric
    assert vector.check_invariants() == []
    assert np.array_equal(
        vector.occupied_lanes(), np.flatnonzero(vector._buf_cnt)
    )
    stats = network.stats.scope("nic")
    return (
        sent,
        network.completed_packets,
        network.engine.cycle,
        stats.counter("packets_received").value,
        stats.histogram("packet_latency").mean,
        network.delivered_fraction(),
    )


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(3, 5),
    height=st.integers(3, 4),
    layers=st.integers(1, 2),
    schedule=phases,
    seed=st.integers(0, 2**16),
)
def test_sparse_path_equals_batched_path(width, height, layers, schedule,
                                         seed):
    scalar = _run(width, height, layers, schedule, seed, ALWAYS_SCALAR)
    batched = _run(width, height, layers, schedule, seed, ALWAYS_BATCHED)
    assert scalar == batched

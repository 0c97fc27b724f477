"""Trace round-trip, schema and zero-perturbation tests.

Three promises are checked on a 4x4x2 pillar mesh under uniform random
traffic:

* **Export fidelity** — a traced run exports Chrome-trace JSON that
  validates (monotonic timestamps per track, balanced ``B``/``E`` pairs,
  flow ids that match injected packet ids) and shows the expected
  router / pillar tracks; the JSONL exporter agrees on the event count.
* **Zero perturbation** — attaching a :class:`NullTracer` (or a
  :class:`RingTracer`) must not change simulation results: the full
  statistics snapshot is bit-identical to an untraced run, and the
  optimized fabric with a tracer still matches the frozen reference
  fabric (which carries no probe sites at all).
* **Stable export bytes** — the Chrome and JSONL documents of fixed runs
  hash to recorded digests, among them the faulted golden cycle cell,
  whose trace shows every fault kind fire.

Beyond the mesh, one hand-built cycle-mode run emits every event kind
in ``EVENTS``, so no row of the schema is dead.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from repro.core.schemes import Scheme
from repro.core.system import NetworkInMemory, SystemConfig
from repro.cpu.trace import OP_IFETCH, OP_READ, OP_WRITE
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec, simulate
from repro.faults.spec import FAULTS, FaultSpec
from repro.noc.network import Network, NetworkConfig
from repro.sim.trace import (
    EVENTS,
    FAULT,
    NullTracer,
    RingTracer,
    TraceSpec,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from tests.golden.regen import CYCLE_GRID

PILLARS = ((1, 1), (2, 2))
CYCLES = 200
SEED = 11
RATE = 0.1


def _drive(fabric="optimized", tracer=None, rate=RATE):
    config = NetworkConfig(
        width=4, height=4, layers=2, pillar_locations=PILLARS
    )
    network = Network(config, fabric=fabric, tracer=tracer)
    rng = random.Random(SEED)
    coords = list(network.coords())
    packet_ids = []
    for __ in range(CYCLES):
        for src in coords:
            if rng.random() < rate:
                dest = coords[rng.randrange(len(coords))]
                if dest != src:
                    packet_ids.append(network.send(src, dest).packet_id)
        network.engine.step()
    return network, packet_ids


class TestChromeRoundTrip:
    def test_traced_mesh_exports_valid_chrome_json(self):
        tracer = RingTracer()
        network, packet_ids = _drive(tracer=tracer)
        assert tracer.recorded > 0
        assert tracer.dropped == 0

        buf = io.StringIO()
        written = write_chrome_trace(tracer, buf)
        assert written == tracer.recorded
        info = validate_chrome_trace(buf.getvalue())

        names = set(info["tracks"].values())
        # Every router lane exists (4x4x2 = 32), plus both pillars.
        assert sum(1 for n in names if n.startswith("router.")) == 32
        assert {"pillar.1.1", "pillar.2.2"} <= names
        # Flow ids are exactly (a subset of) the injected packet ids:
        # every flow came from a real packet, and every observed flow's
        # id round-trips.
        assert info["flow_ids"] <= set(packet_ids)
        assert len(info["flow_ids"]) > 0

    def test_jsonl_agrees_on_event_count(self):
        tracer = RingTracer()
        _drive(tracer=tracer)
        chrome_buf, jsonl_buf = io.StringIO(), io.StringIO()
        assert (
            write_chrome_trace(tracer, chrome_buf)
            == write_jsonl(tracer, jsonl_buf)
        )
        header = json.loads(jsonl_buf.getvalue().splitlines()[0])
        assert header["recorded"] == tracer.recorded

    def test_component_filter_restricts_tracks(self):
        tracer = RingTracer(component_filter="pillar.*")
        _drive(tracer=tracer)
        recorded_tracks = {event[2] for event in tracer.events()}
        names = tracer.tracks()
        assert recorded_tracks  # pillar traffic exists at this rate
        for tid in recorded_tracks:
            assert names[tid].startswith("pillar.")


class TestZeroPerturbation:
    def test_null_tracer_bit_identical_to_untraced(self):
        untraced, __ = _drive(tracer=None)
        nulled, __ = _drive(tracer=NullTracer())
        assert untraced.stats.snapshot() == nulled.stats.snapshot()
        assert untraced.engine.cycle == nulled.engine.cycle
        assert untraced.in_flight == nulled.in_flight

    def test_ring_tracer_bit_identical_to_untraced(self):
        # Recording events must observe, never perturb.
        untraced, __ = _drive(tracer=None)
        traced, __ = _drive(tracer=RingTracer())
        assert untraced.stats.snapshot() == traced.stats.snapshot()
        assert untraced.engine.cycle == traced.engine.cycle

    def test_traced_optimized_matches_probe_free_reference(self):
        # The frozen reference fabric has no probe sites: it IS the
        # no-tracer build.  The optimized fabric with a live tracer must
        # still match it bit for bit.
        reference, __ = _drive(fabric="reference")
        traced, __ = _drive(fabric="optimized", tracer=RingTracer())
        assert reference.stats.snapshot() == traced.stats.snapshot()
        assert reference.engine.cycle == traced.engine.cycle
        assert reference.in_flight == traced.in_flight


class TestEveryKindIsLive:
    def test_one_run_emits_every_kind(self):
        tracer = RingTracer()
        # One pillar is dead from the start: fault.
        system = NetworkInMemory(SystemConfig(
            scheme=Scheme.CMP_DNUCA_3D, mode="cycle", tracer=tracer,
            faults=FaultSpec(dead_pillars=1),
        ))
        # Address bits 16-19 pick a line's home cluster.  Cluster 11 is
        # on the upper layer, far from CPU 0 on the lower one.
        far, shared = 11 << 16, 5 << 16
        traces = [[] for __ in range(8)]
        traces[0] = [
            # A miss: the search reaches the upper layer over a pillar,
            # so packets inject, hop and eject, and the bus frames and
            # grants slots.  Each CPU's first access stamps its search
            # plan, and every L2 access records a cache search.
            (0, OP_READ, far),
            # The fetch misses the I-cache.  Its L2 hit is CPU 0's
            # second access in a row to the line, which migrates it.
            (0, OP_IFETCH, far),
        ]
        # CPU 2 stores, long after CPU 1 has read the line, and
        # invalidates CPU 1's copy: coherence.
        traces[1] = [(0, OP_READ, shared)]
        traces[2] = [(10_000, OP_WRITE, shared)]
        system.run_trace(traces)

        assert tracer.dropped == 0
        emitted = {EVENTS[event[1]].name for event in tracer.events()}
        assert emitted == {row.name for row in EVENTS}
        buf = io.StringIO()
        write_chrome_trace(tracer, buf)
        validate_chrome_trace(buf.getvalue())


def _mesh_tracer(limit=1_000_000):
    tracer = RingTracer(limit=limit)
    _drive(tracer=tracer)
    return tracer


def _model_cell_tracer():
    # Model mode flies no packets: cache searches, search plans,
    # migrations and the dead pillar's fault event.
    spec = SimSpec(
        scheme=Scheme.CMP_DNUCA_3D,
        benchmark="swim",
        scale=ExperimentScale(name="pinned", refs_per_cpu=200),
        trace=TraceSpec(),
        faults=FaultSpec(dead_pillars=1),
    )
    system, __ = simulate(spec)
    return system.tracer


#: The golden cycle cell with one fault of every kind.
FAULTED_CYCLE_CELL = next(
    spec for spec in CYCLE_GRID if spec.faults is not None
)


def _faulted_cycle_cell_tracer():
    system, __ = simulate(FAULTED_CYCLE_CELL.with_overrides(trace=TraceSpec()))
    return system.tracer


def test_faulted_cycle_cell_fires_every_fault():
    fired = [
        (event[3], event[4], event[5])
        for event in _faulted_cycle_cell_tracer().events()
        if event[1] == FAULT
    ]
    expected = []
    for event in FAULTED_CYCLE_CELL.faults.events:
        expected.append((event.kind, event.target, "inject"))
        if event.duration is not None:
            expected.append((event.kind, event.target, "heal"))
    assert sorted(fired) == sorted(expected)
    assert {kind for kind, __, __ in fired} == set(FAULTS)
    assert any(phase == "heal" for __, __, phase in fired)


@pytest.mark.parametrize("make_tracer, chrome, jsonl", [
    pytest.param(
        _mesh_tracer,
        "fbfd2fce383c4b7ef63c88e14031a018c8fecdb6c24e61175a4e80ce50a43fb3",
        "e6d9f849a664d9443fc563bc400fdfa5a8435f364f4e08e20e74a39b0ead3a9e",
        id="mesh",
    ),
    # A 500-event ring overwrites most injects, so flows are suppressed.
    pytest.param(
        lambda: _mesh_tracer(limit=500),
        "73dd80bdc8fdd70bd2396bb7851610bb8d853ec3b57b048e6bd99db8cfce1466",
        "e5af747c2008eace288968e490e9c10cacbe5b894154a3812ea3ebd35edad1f1",
        id="mesh-ring-500",
    ),
    pytest.param(
        _model_cell_tracer,
        "473715e9207f082f916793c4fcea77c207519822a2c84e230cfc532724fbbe49",
        "301b1401b952ba70c6910d934b7c9cc10df56ed5af44c7a43ceef4a203242dbc",
        id="model-cell",
    ),
    pytest.param(
        _faulted_cycle_cell_tracer,
        "a9f3f653e03b3d8e3e0c2d965cf9da826881c63c272b276e2c54a1cb611a0bd0",
        "d65f8eae2ab3233e3b9fb4ee1fd40630aef4f787c92c6a9298632c78b616feee",
        id="faulted-cycle-cell",
    ),
])
def test_export_bytes_are_pinned(make_tracer, chrome, jsonl):
    # A change to either document's bytes must update these on purpose.
    tracer = make_tracer()
    digests = []
    for writer in (write_chrome_trace, write_jsonl):
        buf = io.StringIO()
        writer(tracer, buf)
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert digests == [chrome, jsonl]

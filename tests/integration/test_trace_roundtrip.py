"""Trace round-trip and zero-perturbation tests.

Two promises are checked on a 4x4x2 pillar mesh under uniform random
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
"""

from __future__ import annotations

import io
import json
import random

from repro.noc.network import Network, NetworkConfig
from repro.sim.trace import (
    NullTracer,
    RingTracer,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

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

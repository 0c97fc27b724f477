"""Byte pins for the serialized spec and result records.

A spec's ``to_dict()`` is hashed into its result-cache key, and a
``RunStats.to_dict()`` is what the golden and benchmark digests hash,
so these strings are a contract: the unsorted JSON (key order counts)
must never move.  The literals were recorded from the
hand-written serializers the record codec replaced; do not edit them.
``fixtures/cache_v1`` is a result-cache artifact written by that same
code, and must still read back as a hit.
"""

import json
import os

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import QUICK
from repro.experiments.orchestrator import ResultCache
from repro.experiments.spec import SimSpec
from repro.faults.spec import FaultEvent, FaultSpec
from repro.sim.trace import TraceSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

FULL_SPEC = SimSpec(
    scheme=Scheme.CMP_DNUCA_3D,
    benchmark="swim",
    scale=QUICK,
    mode="cycle",
    trace=TraceSpec(format="jsonl", limit=5000, component_filter="pillar.*"),
    faults=FaultSpec(
        events=(
            FaultEvent(
                "router_port", (1, 1, 0, "north"), onset=500, duration=2000
            ),
        ),
        dead_pillars=1,
        dead_links=2,
        dead_banks=3,
        onset=10,
        watchdog_window=5000,
    ),
)

# Every field away from its default.
FULL_STATS = RunStats(
    scheme=Scheme.CMP_DNUCA_3D,
    avg_l2_hit_latency=41.25,
    avg_l2_miss_latency=312.5,
    l2_hits=1234,
    l2_misses=56,
    migrations=7,
    ipc=0.8125,
    per_cpu_ipc=[0.75, 0.875, 0.5, 1.0],
    l1_miss_rate=0.0625,
    flit_hops=98765.0,
    bus_flits=4321.0,
    invalidations=89,
    instructions=123456.0,
    cycles=151944.0,
    packets_lost=3,
    faults_injected=4,
    delivered_fraction=0.96875,
    in_flight_packets=5,
    in_flight_mean_age=17.5,
    in_flight_max_age=40,
)

PINNED = {
    "default_spec": (
        SimSpec(scheme=Scheme.CMP_DNUCA_3D, benchmark="art", scale=QUICK),
        '{"version": 1, "scheme": "CMP-DNUCA-3D", "benchmark": "art",'
        ' "scale": {"name": "quick", "refs_per_cpu": 30000,'
        ' "warmup_fraction": 0.6, "seed": 2006}, "layers": 2,'
        ' "pillars": 8, "cache_mb": 16, "seed": 2006, "num_cpus": 8,'
        ' "fixed_floorplan": false}',
    ),
    "traced_faulty_cycle_spec": (
        FULL_SPEC,
        '{"version": 1, "scheme": "CMP-DNUCA-3D", "benchmark": "swim",'
        ' "scale": {"name": "quick", "refs_per_cpu": 30000,'
        ' "warmup_fraction": 0.6, "seed": 2006}, "layers": 2,'
        ' "pillars": 8, "cache_mb": 16, "seed": 2006, "num_cpus": 8,'
        ' "fixed_floorplan": false, "mode": "cycle",'
        ' "trace": {"format": "jsonl", "limit": 5000,'
        ' "component_filter": "pillar.*"},'
        ' "faults": {"events": [{"kind": "router_port", "target": [1, 1,'
        ' 0, "north"], "onset": 500, "duration": 2000}],'
        ' "dead_pillars": 1, "dead_links": 2, "dead_banks": 3,'
        ' "onset": 10, "watchdog_window": 5000}}',
    ),
    "fixed_floorplan_spec": (
        SimSpec(
            scheme=Scheme.CMP_DNUCA_3D, benchmark="swim", scale=QUICK,
            pillars=2, fixed_floorplan=True,
        ),
        '{"version": 1, "scheme": "CMP-DNUCA-3D", "benchmark": "swim",'
        ' "scale": {"name": "quick", "refs_per_cpu": 30000,'
        ' "warmup_fraction": 0.6, "seed": 2006}, "layers": 2,'
        ' "pillars": 2, "cache_mb": 16, "seed": 2006, "num_cpus": 8,'
        ' "fixed_floorplan": true}',
    ),
    "four_layer_spec": (
        SimSpec(
            scheme=Scheme.CMP_SNUCA_3D, benchmark="art", scale=QUICK,
            layers=4, cache_mb=64,
        ),
        '{"version": 1, "scheme": "CMP-SNUCA-3D", "benchmark": "art",'
        ' "scale": {"name": "quick", "refs_per_cpu": 30000,'
        ' "warmup_fraction": 0.6, "seed": 2006}, "layers": 4,'
        ' "pillars": 8, "cache_mb": 64, "seed": 2006, "num_cpus": 8,'
        ' "fixed_floorplan": false}',
    ),
    "run_stats": (
        FULL_STATS,
        '{"scheme": "CMP-DNUCA-3D", "avg_l2_hit_latency": 41.25,'
        ' "avg_l2_miss_latency": 312.5, "l2_hits": 1234,'
        ' "l2_misses": 56, "migrations": 7, "ipc": 0.8125,'
        ' "per_cpu_ipc": [0.75, 0.875, 0.5, 1.0],'
        ' "l1_miss_rate": 0.0625, "flit_hops": 98765.0,'
        ' "bus_flits": 4321.0, "invalidations": 89,'
        ' "instructions": 123456.0, "cycles": 151944.0,'
        ' "packets_lost": 3, "faults_injected": 4,'
        ' "delivered_fraction": 0.96875, "in_flight_packets": 5,'
        ' "in_flight_mean_age": 17.5, "in_flight_max_age": 40}',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_encodes_byte_for_byte(name):
    record, text = PINNED[name]
    assert json.dumps(record.to_dict()) == text


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decodes_pinned_bytes(name):
    record, text = PINNED[name]
    parsed = type(record).from_dict(json.loads(text))
    assert parsed == record
    assert json.dumps(parsed.to_dict()) == text


def test_artifact_written_by_the_old_serializers_is_a_hit():
    cache = ResultCache(os.path.join(FIXTURES, "cache_v1"))
    assert FULL_SPEC.spec_hash() == (
        "d063c2da72aeb14adc2a08381f78fef7fd7cde8d84cac3bc7e34c7e86459327a"
    )
    assert cache.get(FULL_SPEC) == FULL_STATS

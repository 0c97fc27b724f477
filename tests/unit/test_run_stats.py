"""RunStats derived-metric tests."""

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats


def make_stats(hits=80, misses=20):
    return RunStats(
        scheme=Scheme.CMP_DNUCA_3D,
        avg_l2_hit_latency=50.0,
        avg_l2_miss_latency=300.0,
        l2_hits=hits,
        l2_misses=misses,
        migrations=5,
        ipc=1.0,
        per_cpu_ipc=[1.0] * 8,
        l1_miss_rate=0.1,
        flit_hops=1000.0,
        bus_flits=100.0,
        invalidations=3,
        instructions=10_000.0,
        cycles=10_000.0,
    )


def test_l2_accesses_sum():
    assert make_stats().l2_accesses == 100


def test_hit_rate():
    assert make_stats().l2_hit_rate == 0.8


def test_hit_rate_empty():
    assert make_stats(hits=0, misses=0).l2_hit_rate == 0.0


def test_round_trip_identity():
    stats = make_stats()
    clone = RunStats.from_dict(stats.to_dict())
    assert clone == stats
    assert clone.scheme is Scheme.CMP_DNUCA_3D


def test_to_dict_is_json_safe():
    import json

    encoded = json.dumps(make_stats().to_dict())
    assert RunStats.from_dict(json.loads(encoded)) == make_stats()


def test_unknown_key_refused():
    data = {**make_stats().to_dict(), "ipcc": 1.0}
    with pytest.raises(TypeError, match="ipcc"):
        RunStats.from_dict(data)


def test_fields_added_with_defaults_may_be_absent():
    # Artifacts written before the survivorship fields still load.
    data = make_stats().to_dict()
    for name in ("delivered_fraction", "in_flight_packets",
                 "in_flight_mean_age", "in_flight_max_age"):
        del data[name]
    assert RunStats.from_dict(data) == make_stats()

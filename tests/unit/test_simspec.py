"""SimSpec identity, serialization, and seeding invariants."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.core.system import NetworkInMemory, RunStats, SystemConfig
from repro.experiments.config import QUICK, ExperimentScale
from repro.experiments.spec import SPEC_VERSION, SimSpec
from repro.faults.spec import FaultEvent, FaultSpec
from repro.sim.trace import TraceSpec


def make_spec(**overrides) -> SimSpec:
    fields = dict(scheme=Scheme.CMP_DNUCA_3D, benchmark="art", scale=QUICK)
    fields.update(overrides)
    return SimSpec(**fields)


class TestRoundTrip:
    def test_to_from_dict_identity(self):
        spec = make_spec(layers=4, pillars=2, cache_mb=64, seed=7)
        assert SimSpec.from_dict(spec.to_dict()) == spec

    def test_version_mismatch_rejected(self):
        data = make_spec().to_dict()
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError):
            SimSpec.from_dict(data)

    @pytest.mark.parametrize("fabric", ["vector", "reference", "auto"])
    def test_stale_fabric_rejected(self, fabric):
        # A spec naming any fabric but the optimized one is refused at
        # the boundary instead of running as a different cell.
        data = make_spec(mode="cycle").to_dict()
        data["fabric"] = fabric
        with pytest.raises(ValueError, match=repr(fabric)):
            SimSpec.from_dict(data)

    def test_optimized_fabric_key_accepted(self):
        spec = make_spec(mode="cycle")
        data = spec.to_dict()
        data["fabric"] = "optimized"
        assert SimSpec.from_dict(data) == spec

    def test_chip_that_does_not_place_rejected(self):
        # Three layers do not tile: the spec itself refuses them, so no
        # worker is ever handed the cell.
        with pytest.raises(ValueError, match="layer count 3"):
            SimSpec.make(Scheme.CMP_DNUCA_3D, "swim", layers=3)
        data = make_spec().to_dict()
        data["layers"] = 3
        with pytest.raises(ValueError, match="layer count 3"):
            SimSpec.from_dict(data)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            SimSpec.make(Scheme.CMP_DNUCA_3D, "swim", mode="warp")
        data = make_spec().to_dict()
        data["mode"] = "warp"
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            SimSpec.from_dict(data)

    @pytest.mark.parametrize("mode, faults, message", [
        ("model", FaultSpec(events=(FaultEvent("link", (9, 2, 0, "east")),)),
         "require mode='cycle'"),
        ("model", FaultSpec(events=(FaultEvent("pillar", (2, 2), onset=5),)),
         "onset-0"),
        ("model", FaultSpec(dead_pillars=9),
         "cannot draw 9 random pillar faults from 8 candidates"),
        ("model", FaultSpec(events=(FaultEvent("pillar", (3, 3)),)),
         "unknown pillar (3, 3)"),
        ("cycle", FaultSpec(events=(FaultEvent("bank", (99, 0)),)),
         "unknown bank (99, 0)"),
        ("cycle", FaultSpec(events=(FaultEvent("link", (15, 0, 0, "east")),)),
         "unknown link (15, 0, 0, 'east')"),
    ], ids=["mesh-in-model", "timed-in-model", "too-many-random",
            "pillar", "bank", "link"])
    def test_fault_the_cell_cannot_take_rejected(self, mode, faults, message):
        """Refused when the spec is built or decoded, with the message
        the system's own fault install gives."""
        with pytest.raises(ValueError, match=re.escape(message)):
            make_spec(mode=mode, faults=faults)
        data = make_spec(mode=mode).to_dict()
        data["faults"] = faults.to_dict()
        with pytest.raises(ValueError, match=re.escape(message)):
            SimSpec.from_dict(data)
        config = SystemConfig(mode=mode, faults=faults, fault_seed=QUICK.seed)
        with pytest.raises(ValueError, match=re.escape(message)):
            NetworkInMemory(config)

    def test_make_fills_ambient_scale_and_seed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        spec = SimSpec.make(Scheme.CMP_DNUCA_2D, "swim")
        assert spec.scale == QUICK
        assert spec.seed == QUICK.seed


class TestUnknownKeys:
    """A misspelled key is refused, never read as the field's default."""

    SPEC = make_spec(
        mode="cycle",
        trace=TraceSpec(format="jsonl", limit=100),
        faults=FaultSpec(
            events=(FaultEvent("pillar", (2, 2), onset=5, duration=10),),
            dead_banks=1,
        ),
    )

    @pytest.mark.parametrize("path, typo", [
        ((), "mdoe"),
        (("scale",), "warmup_fracton"),
        (("trace",), "limt"),
        (("faults",), "dead_pilars"),
        (("faults", "events", 0), "durration"),
    ])
    def test_misspelled_key_raises(self, path, typo):
        data = self.SPEC.to_dict()
        assert SimSpec.from_dict(data) == self.SPEC
        record = data
        for step in path:
            record = record[step]
        record[typo] = 1
        with pytest.raises(TypeError, match=typo):
            SimSpec.from_dict(data)

    @pytest.mark.parametrize("path, key", [
        ((), "layers"), ((), "pillars"), ((), "cache_mb"), ((), "seed"),
        ((), "num_cpus"), ((), "fixed_floorplan"),
        (("scale",), "warmup_fraction"), (("scale",), "seed"),
    ])
    def test_topology_and_scale_keys_stay_required(self, path, key):
        data = self.SPEC.to_dict()
        record = data
        for step in path:
            record = record[step]
        del record[key]
        with pytest.raises(KeyError, match=key):
            SimSpec.from_dict(data)


class TestHashing:
    def test_hash_is_stable_across_instances(self):
        assert make_spec().spec_hash() == make_spec().spec_hash()

    def test_every_field_changes_the_hash(self):
        base = make_spec()
        variants = [
            make_spec(scheme=Scheme.CMP_DNUCA_2D),
            make_spec(benchmark="swim"),
            make_spec(scale=ExperimentScale(name="t", refs_per_cpu=10)),
            make_spec(layers=4),
            make_spec(pillars=4),
            make_spec(cache_mb=32),
            make_spec(seed=1),
            make_spec(num_cpus=4),
            make_spec(fixed_floorplan=True),
        ]
        hashes = {spec.spec_hash() for spec in variants}
        assert base.spec_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_hashes_pinned(self):
        # Literal cache keys: a field added or removed without care
        # would move them and orphan every cached artifact.
        assert make_spec().spec_hash() == (
            "ca191bc7ad605928929e9bd9182ca2dd36ae00567c4db26ecfc5656177683787"
        )
        assert make_spec(mode="cycle").spec_hash() == (
            "f0023d5331c7a758b1d3fda8d7b3576e3f0aefe92a7e9e4869b488dc5775edc6"
        )

    def test_specs_usable_as_dict_keys(self):
        results = {make_spec(): 1, make_spec(benchmark="swim"): 2}
        assert results[make_spec()] == 1

    def test_mode_and_trace_defaults_leave_hash_unchanged(self):
        # ``mode``/``trace`` are omitted from to_dict() at their defaults,
        # so introducing them did not invalidate any cached artifact.
        data = make_spec().to_dict()
        assert "mode" not in data
        assert "trace" not in data

    def test_mode_and_trace_change_the_hash(self):
        from repro.sim.trace import TraceSpec

        base = make_spec()
        cycle = make_spec(mode="cycle")
        traced = make_spec(trace=TraceSpec())
        assert len({
            base.spec_hash(), cycle.spec_hash(), traced.spec_hash()
        }) == 3

    def test_traced_spec_round_trips(self):
        from repro.sim.trace import TraceSpec

        spec = make_spec(
            mode="cycle",
            trace=TraceSpec(
                format="jsonl", limit=123, component_filter="router.*"
            ),
        )
        assert SimSpec.from_dict(spec.to_dict()) == spec


class TestSeeding:
    def test_cell_seed_pure_function_of_spec(self):
        assert make_spec().cell_seed() == make_spec().cell_seed()

    def test_schemes_share_the_workload(self):
        """Paired comparison: topology knobs must not perturb traces."""
        base = make_spec()
        for variant in (
            make_spec(scheme=Scheme.CMP_SNUCA_3D),
            make_spec(layers=4),
            make_spec(pillars=2),
            make_spec(cache_mb=64),
            make_spec(fixed_floorplan=True),
        ):
            assert variant.workload_hash() == base.workload_hash()
            assert variant.cell_seed() == base.cell_seed()

    def test_workload_identity_changes_the_seed(self):
        base = make_spec()
        for variant in (
            make_spec(benchmark="swim"),
            make_spec(seed=1),
            make_spec(num_cpus=4),
            make_spec(scale=ExperimentScale(name="t", refs_per_cpu=10)),
        ):
            assert variant.cell_seed() != base.cell_seed()


scales = st.builds(
    ExperimentScale,
    name=st.sampled_from(["quick", "full", "tiny"]),
    refs_per_cpu=st.integers(1, 10**6),
    warmup_fraction=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**31),
)
# A 3D chip needs two or four layers; a 2D scheme ignores the count.
specs = st.sampled_from(list(Scheme)).flatmap(
    lambda scheme: st.builds(
        SimSpec,
        scheme=st.just(scheme),
        benchmark=st.sampled_from(["art", "swim", "mgrid"]),
        scale=scales,
        layers=st.sampled_from([2, 4] if scheme.is_3d else [1, 2, 4]),
        pillars=st.sampled_from([2, 4, 8]),
        cache_mb=st.sampled_from([16, 32, 64]),
        seed=st.integers(0, 2**31),
        num_cpus=st.sampled_from([4, 8, 16]),
        fixed_floorplan=st.booleans(),
    )
)


@settings(max_examples=50, deadline=None)
@given(spec=specs)
def test_property_spec_round_trip(spec):
    """Any spec survives to_dict/from_dict with its hash intact."""
    clone = SimSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.cell_seed() == spec.cell_seed()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    hit_latency=finite,
    miss_latency=finite,
    hits=st.integers(0, 10**9),
    misses=st.integers(0, 10**9),
    migrations=st.integers(0, 10**6),
    ipc=finite,
    per_cpu_ipc=st.lists(finite, max_size=8),
    l1_miss_rate=finite,
    flit_hops=finite,
    bus_flits=finite,
    invalidations=st.integers(0, 10**9),
    instructions=finite,
    cycles=finite,
)
def test_property_run_stats_round_trip(
    scheme, hit_latency, miss_latency, hits, misses, migrations, ipc,
    per_cpu_ipc, l1_miss_rate, flit_hops, bus_flits, invalidations,
    instructions, cycles,
):
    """RunStats round-trips bit-exactly, including through JSON floats."""
    import json

    stats = RunStats(
        scheme=scheme,
        avg_l2_hit_latency=hit_latency,
        avg_l2_miss_latency=miss_latency,
        l2_hits=hits,
        l2_misses=misses,
        migrations=migrations,
        ipc=ipc,
        per_cpu_ipc=per_cpu_ipc,
        l1_miss_rate=l1_miss_rate,
        flit_hops=flit_hops,
        bus_flits=bus_flits,
        invalidations=invalidations,
        instructions=instructions,
        cycles=cycles,
    )
    direct = RunStats.from_dict(stats.to_dict())
    assert direct == stats
    through_json = RunStats.from_dict(
        json.loads(json.dumps(stats.to_dict()))
    )
    assert through_json == stats

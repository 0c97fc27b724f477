"""Unit tests for the CPU model and the synthetic workload generators."""

import hashlib
import json
from array import array

import numpy as np
import pytest

from repro.cpu.core import InOrderCore
from repro.cpu.trace import (
    OP_IFETCH,
    OP_READ,
    OP_WRITE,
    Trace,
    op_name,
    validate_trace,
)
from repro.workloads.benchmarks import BENCHMARKS, BENCHMARK_NAMES, get_benchmark
from repro.workloads.generator import SyntheticWorkload
from tests.property.test_property_run_trace import (
    retire_gap,
    retire_reference,
)


class TestInOrderCore:
    """The core's accounting under the reference retire rule, which
    ``tests/property/test_property_run_trace.py`` holds
    ``NetworkInMemory.run_trace`` to."""

    def test_gap_retirement(self):
        core = InOrderCore(0)
        retire_gap(core, 10)
        assert core.clock == 10 and core.instructions == 10

    def test_read_stalls(self):
        core = InOrderCore(0)
        retire_reference(core, OP_READ, stall_cycles=50)
        assert core.clock == 51
        assert core.memory_stall_cycles == 50

    def test_write_never_stalls(self):
        core = InOrderCore(0)
        retire_reference(core, OP_WRITE, stall_cycles=50)
        assert core.clock == 1
        assert core.memory_stall_cycles == 0

    def test_ipc(self):
        core = InOrderCore(0)
        retire_gap(core, 9)
        retire_reference(core, OP_READ, stall_cycles=10)
        assert core.ipc == pytest.approx(10 / 20)

    def test_reset_stats_keeps_clock(self):
        core = InOrderCore(0)
        retire_gap(core, 100)
        core.reset_stats()
        assert core.clock == 100
        assert core.instructions == 0
        retire_gap(core, 50)
        assert core.ipc == pytest.approx(1.0)

    def test_cpi_base_scaling(self):
        core = InOrderCore(0, cpi_base=2.0)
        retire_gap(core, 5)
        assert core.clock == 10


class TestTraceValidation:
    def test_op_names(self):
        assert op_name(OP_READ) == "read"
        assert op_name(OP_WRITE) == "write"
        assert op_name(OP_IFETCH) == "ifetch"
        with pytest.raises(ValueError):
            op_name(9)

    def test_validate_trace_passes_good_events(self):
        events = [(0, OP_READ, 0x100), (3, OP_WRITE, 0x200)]
        assert list(validate_trace(events)) == events

    def test_validate_trace_rejects_bad(self):
        with pytest.raises(ValueError):
            list(validate_trace([(-1, OP_READ, 0)]))
        with pytest.raises(ValueError):
            list(validate_trace([(0, 7, 0)]))
        with pytest.raises(ValueError):
            list(validate_trace([(0, OP_READ, -4)]))


class TestBenchmarkProfiles:
    def test_all_nine_present(self):
        assert len(BENCHMARK_NAMES) == 9
        assert set(BENCHMARK_NAMES) == {
            "ammp", "apsi", "art", "equake", "fma3d",
            "galgel", "mgrid", "swim", "wupwise",
        }

    def test_table5_transaction_counts(self):
        # Spot-check the recorded Table 5 values.
        assert BENCHMARKS["mgrid"].l2_transactions_paper == 204_815_737
        assert BENCHMARKS["fma3d"].l2_transactions_paper == 12_599_496

    def test_intense_benchmarks_have_higher_miss_estimates(self):
        heavy = min(
            BENCHMARKS[name].expected_l1_miss_rate
            for name in ("mgrid", "swim", "wupwise")
        )
        light = max(
            BENCHMARKS[name].expected_l1_miss_rate
            for name in ("art", "fma3d")
        )
        assert heavy > light

    def test_get_benchmark_unknown(self):
        with pytest.raises(ValueError):
            get_benchmark("doom")


class TestSyntheticWorkload:
    def test_trace_length(self):
        workload = SyntheticWorkload("art", refs_per_cpu=1000)
        trace = workload.cpu_trace(0)
        assert len(trace) == 1000

    def test_events_are_valid(self):
        workload = SyntheticWorkload("swim", refs_per_cpu=500)
        list(validate_trace(workload.cpu_trace(3)))

    def test_deterministic_given_seed(self):
        a = SyntheticWorkload("mgrid", refs_per_cpu=200, seed=5).cpu_trace(0)
        b = SyntheticWorkload("mgrid", refs_per_cpu=200, seed=5).cpu_trace(0)
        assert a == b

    def test_seed_changes_trace(self):
        a = SyntheticWorkload("mgrid", refs_per_cpu=200, seed=5).cpu_trace(0)
        b = SyntheticWorkload("mgrid", refs_per_cpu=200, seed=6).cpu_trace(0)
        assert a != b

    def test_cpus_have_distinct_traces(self):
        workload = SyntheticWorkload("apsi", refs_per_cpu=200)
        assert workload.cpu_trace(0) != workload.cpu_trace(1)

    def test_traces_returns_all_cpus(self):
        workload = SyntheticWorkload("ammp", num_cpus=4, refs_per_cpu=50)
        assert len(workload.traces()) == 4

    def test_write_fraction_respected(self):
        workload = SyntheticWorkload("swim", refs_per_cpu=20_000)
        trace = workload.cpu_trace(0)
        writes = sum(1 for __, op, __ in trace if op == OP_WRITE)
        fraction = writes / len(trace)
        # Stream+hot write at profile rate; residual barely writes.
        assert 0.1 < fraction < 0.4

    def test_ifetch_fraction_respected(self):
        workload = SyntheticWorkload("ammp", refs_per_cpu=20_000)
        trace = workload.cpu_trace(0)
        fraction = (
            sum(1 for __, op, __ in trace if op == OP_IFETCH) / len(trace)
        )
        assert fraction == pytest.approx(0.05, abs=0.01)

    def test_cpu_id_bounds(self):
        workload = SyntheticWorkload("art", num_cpus=2, refs_per_cpu=10)
        with pytest.raises(ValueError):
            workload.cpu_trace(2)

    def test_addresses_cover_shared_region(self):
        workload = SyntheticWorkload("galgel", refs_per_cpu=5_000)
        addresses = {addr for __, op, addr in workload.cpu_trace(0)
                     if op != OP_IFETCH}
        shared = [a for a in addresses if 0x1000_0000 <= a < 0x8000_0000]
        assert len(shared) > 100

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticWorkload("art", num_cpus=0)
        with pytest.raises(ValueError):
            SyntheticWorkload("art", refs_per_cpu=0)


# sha256 of ``json.dumps(list(trace))`` for 2000-reference traces, as
# generated when a trace was a list of tuples: the columns must replay
# exactly those events.
PINNED_TRACES = [
    pytest.param(
        "swim", 2006, 0,
        "bc4cc015826e5d4ed4613e9e671ce618a7315e3ac4ff53e02e18a841e68aa3a0",
        id="swim-2006-cpu0",
    ),
    pytest.param(
        "art", 4242, 3,
        "da2f8033584bbeb1e09915cca31ee8a490c3014aba9888b599f9a55a341d94d8",
        id="art-4242-cpu3",
    ),
]


class TestTraceContract:
    """What ``run_trace``, the tests and the benchmark rely on."""

    @pytest.mark.parametrize("name, seed, cpu, digest", PINNED_TRACES)
    def test_events_match_pinned_digest(self, name, seed, cpu, digest):
        trace = SyntheticWorkload(
            name, refs_per_cpu=2000, seed=seed
        ).cpu_trace(cpu)
        events = json.dumps(list(trace)).encode()
        assert hashlib.sha256(events).hexdigest() == digest

    def test_events_are_tuples_of_plain_ints(self):
        # A numpy scalar would turn run_trace's clocks into numpy floats.
        for event in SyntheticWorkload("swim", refs_per_cpu=500).cpu_trace(1):
            assert type(event) is tuple and len(event) == 3
            assert all(type(value) is int for value in event)

    def test_len_and_equality_as_for_lists(self):
        def trace(seed, cpu=0):
            return SyntheticWorkload(
                "mgrid", refs_per_cpu=200, seed=seed
            ).cpu_trace(cpu)

        a, same, other = trace(5), trace(5), trace(6)
        assert len(a) == 200
        assert a == same and not a != same
        assert a != other and not a == other
        assert a != trace(5, cpu=1)

    def test_each_iteration_is_a_fresh_pass(self):
        trace = SyntheticWorkload("art", refs_per_cpu=300).cpu_trace(2)
        first = list(trace)
        assert len(first) == 300
        assert list(trace) == first

    def test_columns_hold_at_most_24_bytes_per_event(self):
        trace = SyntheticWorkload("art", refs_per_cpu=1000).cpu_trace(0)
        columns = (trace.gaps, trace.ops, trace.addresses)
        held = sum(column.itemsize * len(column) for column in columns)
        assert held <= 24 * len(trace)

    def test_columns_must_be_equal_length_int64_buffers(self):
        ints = np.arange(4, dtype=np.int64)
        assert list(Trace(ints, ints, array("q", range(4))))[3] == (3, 3, 3)
        with pytest.raises(TypeError, match="'i' of 4 bytes"):
            Trace(ints, ints, ints.astype(np.int32))
        with pytest.raises(ValueError, match="4 gaps, 3 ops, 4 addresses"):
            Trace(ints, ints[:3], ints)

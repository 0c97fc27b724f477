"""The per-CPU run loop against the one-heap-operation-per-reference loop.

`reference_run_trace` is the driver loop as it was before
`NetworkInMemory.run_trace` ran each CPU in an inner loop: one
``heappushpop`` per reference, and the retire arithmetic of the former
``InOrderCore.retire_gap``/``retire_reference`` (kept here as
`retire_gap` and `retire_reference`).  Run on twin systems, the two loops
must leave every reported statistic and every core's accounting equal,
and a generated ``Trace`` must replay as its events in lists do.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.core.system import _OP_TO_TYPE, NetworkInMemory, SystemConfig
from repro.cpu.core import InOrderCore
from repro.cpu.trace import OP_IFETCH, OP_READ, OP_WRITE
from repro.workloads.generator import SyntheticWorkload

NUM_CPUS = 8


def retire_gap(core: InOrderCore, gap: int) -> None:
    """Execute ``gap`` non-memory instructions."""
    core.clock += gap * core.cpi_base
    core.instructions += gap


def retire_reference(core: InOrderCore, op: int, stall_cycles: float) -> None:
    """Execute one memory instruction with the given L2 stall.

    Stores never stall (buffered write-through); reads and fetches stall
    for the full transaction latency when ``stall_cycles`` > 0.
    """
    core.clock += core.cpi_base
    core.instructions += 1
    if op != OP_WRITE and stall_cycles > 0:
        core.clock += stall_cycles
        core.memory_stall_cycles += stall_cycles


def reference_run_trace(system: NetworkInMemory, traces, warmup_events=0):
    """One ``heappushpop`` per reference over ``(clock, cpu)`` keys."""
    iterators = [iter(t) for t in traces]
    heap = [(0.0, cpu) for cpu in range(len(system.cores))]
    heapq.heapify(heap)
    processed = 0
    warm = False
    __, cpu = heapq.heappop(heap)
    while True:
        if not warm and processed >= warmup_events:
            system._end_warmup()
            warm = True
        event = next(iterators[cpu], None)
        if event is None:
            if not heap:
                break
            __, cpu = heapq.heappop(heap)
            continue
        gap, op, address = event
        access_type = _OP_TO_TYPE[op]
        core = system.cores[cpu]
        retire_gap(core, gap)
        coherence = system.l1s.access(cpu, address, access_type, core.clock)
        stall = 0.0
        targets = coherence.invalidate_cpus
        if targets:
            system._invalidations.increment(len(targets))
            system.pricer.charge_invalidations(
                system.topology.cpu_positions[cpu], targets, core.clock
            )
        if coherence.needs_l2:
            result = system.l2_transaction(
                cpu, address, access_type, core.clock
            )
            core.l2_accesses += 1
            if op != OP_WRITE:
                stall = result.latency
        retire_reference(core, op, stall)
        __, cpu = heapq.heappushpop(heap, (core.clock, cpu))
        processed += 1
    return system.collect_stats()


def core_state(system: NetworkInMemory) -> list[tuple]:
    return [
        (
            core.clock, core.instructions, core.memory_stall_cycles,
            core.l2_accesses, core.clock_at_reset,
        )
        for core in system.cores
    ]


def assert_loops_agree(scheme: Scheme, traces, warmup_events: int) -> None:
    new = NetworkInMemory(SystemConfig(scheme=scheme))
    old = NetworkInMemory(SystemConfig(scheme=scheme))
    got = new.run_trace(traces, warmup_events=warmup_events)
    want = reference_run_trace(old, traces, warmup_events)
    assert got.to_dict() == want.to_dict()
    assert core_state(new) == core_state(old)


# Lines 1 MB apart share a cluster set and an L1 set, so a few dozen of
# them force L1 and L2 evictions, back-invalidations and, on CMP-DNUCA,
# swaps; the wide range reaches every home cluster.
conflicting = st.builds(
    lambda line, tag: line * 64 + tag * (1 << 20),
    st.integers(0, 3), st.integers(0, 40),
)
addresses = st.one_of(conflicting, st.integers(0, 1 << 24))
events = st.tuples(
    st.integers(0, 12),
    st.sampled_from([OP_READ, OP_READ, OP_WRITE, OP_IFETCH]),
    addresses,
)
# Unequal lengths, empty traces included.
traces = st.lists(
    st.lists(events, max_size=40), min_size=NUM_CPUS, max_size=NUM_CPUS
)
# Stores never stall, so zero-gap write-only traces keep the clocks of
# all CPUs tied and the CPU id decides every turn.
tied_traces = st.lists(
    st.lists(
        st.tuples(st.just(0), st.just(OP_WRITE), addresses), max_size=30
    ),
    min_size=NUM_CPUS, max_size=NUM_CPUS,
)
schemes = st.sampled_from([Scheme.CMP_DNUCA, Scheme.CMP_DNUCA_3D])


def assert_warmup_agrees(scheme: Scheme, traces, data) -> None:
    """Warm-up at 0, mid-trace, exactly the total, or past the end.

    Past the end the traces run dry before warm-up ends, which
    ``run_trace`` rejects, naming the warm-up and the reference count.
    """
    total = sum(len(trace) for trace in traces)
    where = data.draw(st.sampled_from(["zero", "mid", "total", "past"]))
    if where == "past":
        warmup = total + data.draw(st.integers(1, 50))
        system = NetworkInMemory(SystemConfig(scheme=scheme))
        with pytest.raises(ValueError, match=rf"={warmup} .* {total} refer"):
            system.run_trace(traces, warmup_events=warmup)
        return
    if where == "zero":
        warmup = 0
    elif where == "mid" and total > 1:
        warmup = data.draw(st.integers(1, total - 1))
    else:
        # "total", or "mid" with no reference strictly inside the traces.
        warmup = total
    assert_loops_agree(scheme, traces, warmup)


@settings(max_examples=60, deadline=None)
@given(scheme=schemes, per_cpu=traces, data=st.data())
def test_run_loop_matches_reference(scheme, per_cpu, data):
    assert_warmup_agrees(scheme, per_cpu, data)


@settings(max_examples=30, deadline=None)
@given(scheme=schemes, per_cpu=tied_traces, data=st.data())
def test_tied_clocks_go_to_the_lower_cpu(scheme, per_cpu, data):
    assert_warmup_agrees(scheme, per_cpu, data)


def test_warmup_at_total_resets_every_stat():
    """Warm-up ending on the last reference leaves nothing measured."""
    per_cpu = [
        [(3, OP_READ, 0x40 * (cpu + 1)), (1, OP_WRITE, 0x2000)]
        for cpu in range(NUM_CPUS)
    ]
    total = 2 * NUM_CPUS
    assert_loops_agree(Scheme.CMP_DNUCA_3D, per_cpu, total)
    system = NetworkInMemory(SystemConfig(scheme=Scheme.CMP_DNUCA_3D))
    stats = system.run_trace(per_cpu, warmup_events=total)
    assert stats.instructions == 0 and stats.l2_accesses == 0
    assert all(core.clock > 0 for core in system.cores)


@pytest.mark.parametrize("scheme", [Scheme.CMP_DNUCA, Scheme.CMP_DNUCA_3D])
def test_generated_traces_replay_as_their_events(scheme):
    """A generated ``Trace`` replays exactly as its events in lists do.

    Both loops consume the same ``Trace`` objects, so each ``iter()``
    must start a fresh pass; warm-up ends mid-trace.
    """
    per_cpu = SyntheticWorkload(
        "swim", num_cpus=NUM_CPUS, refs_per_cpu=300, seed=2006
    ).traces()
    warmup = 300 * NUM_CPUS // 2 + 7
    assert_loops_agree(scheme, per_cpu, warmup)
    columns = NetworkInMemory(SystemConfig(scheme=scheme))
    lists = NetworkInMemory(SystemConfig(scheme=scheme))
    got = columns.run_trace(per_cpu, warmup_events=warmup)
    want = lists.run_trace(
        [list(trace) for trace in per_cpu], warmup_events=warmup
    )
    assert got.to_dict() == want.to_dict()
    assert core_state(columns) == core_state(lists)


@pytest.mark.parametrize("warmup", [200 * NUM_CPUS + 5, 10**9])
def test_warmup_past_the_traces_raises(warmup):
    """A warm-up the traces cannot finish is an error, not a full sample."""
    per_cpu = SyntheticWorkload(
        "swim", num_cpus=NUM_CPUS, refs_per_cpu=200, seed=1
    ).traces()
    system = NetworkInMemory(SystemConfig(scheme=Scheme.CMP_DNUCA_3D))
    with pytest.raises(
        ValueError,
        match=rf"warmup_events={warmup} exceeds the {200 * NUM_CPUS} refer",
    ):
        system.run_trace(per_cpu, warmup_events=warmup)

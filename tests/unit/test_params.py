"""The fixed parameters: Table 4's values and what the code relies on.

Nothing can set a constant, so nothing validates one at run time; this
test holds each to its Table 4 value and to the preconditions of the
code that reads it.
"""

from repro import params
from repro.core import latency_model


def is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def test_constants_hold_table4_and_their_preconditions():
    assert (
        params.LINE_BYTES, params.FLIT_BYTES, params.LINE_FLITS,
        params.REQUEST_FLITS,
    ) == (64, 16, 4, 1)
    assert (
        params.TAG_LATENCY, params.BANK_LATENCY, params.MEMORY_LATENCY,
        params.CPI_BASE,
    ) == (4, 5, 260, 1.0)
    assert (params.NUM_CLUSTERS, params.BANK_KB, params.L2_WAYS) == (
        16, 64, 16
    )
    assert (params.L1_KB, params.L1_WAYS, params.L1_SETS) == (64, 2, 512)
    assert (
        latency_model.HOP_CYCLES, latency_model.INJECTION_OVERHEAD,
        latency_model.BUS_OVERHEAD, latency_model.Q_MESH,
        latency_model.Q_BUS, latency_model.MESH_CAPACITY_FACTOR,
        latency_model.LOAD_WINDOW, latency_model.MAX_UTILIZATION,
    ) == (2.0, 1.0, 2.0, 0.7, 1.0, 0.40, 2048.0, 0.95)

    # The round kernels price only the pairs that can set a round's
    # worst, which is exact while a packet's latency never falls as its
    # hops or the load grow: every weight >= 0, positive capacity and
    # window, a utilization clamp below 1 and packets of >= 1 flit.
    for weight in (
        latency_model.HOP_CYCLES, latency_model.INJECTION_OVERHEAD,
        latency_model.BUS_OVERHEAD, latency_model.Q_MESH,
        latency_model.Q_BUS,
    ):
        assert weight >= 0
    assert latency_model.MESH_CAPACITY_FACTOR > 0
    assert latency_model.LOAD_WINDOW > 0
    assert 0 <= latency_model.MAX_UTILIZATION < 1
    assert params.REQUEST_FLITS >= 1 and params.LINE_FLITS >= 1

    # A line is a whole number of flits, and the L1s, the L2 and the
    # directory slice addresses into lines, sets and clusters by bits.
    assert params.LINE_FLITS * params.FLIT_BYTES == params.LINE_BYTES
    assert is_power_of_two(params.LINE_BYTES)
    assert is_power_of_two(params.NUM_CLUSTERS)
    assert params.L1_KB * 1024 // params.LINE_BYTES % params.L1_WAYS == 0
    assert is_power_of_two(params.L1_SETS)

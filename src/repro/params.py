"""The fixed system of the paper's Table 4.

Every figure, example and benchmark runs exactly these values, so each
is a constant with one definition here rather than a config field that
restates it.  The module imports nothing from ``repro``, so any layer
may read it.  ``tests/unit/test_params.py`` pins each value and asserts
what the simulator relies on: the line is a power of two and a whole
number of flits, every packet is at least one flit, and the L1 set
count is a power of two.
"""

#: Bytes in a cache line: the unit the L1s, the L2 and the workloads
#: address, and the payload of a data packet.
LINE_BYTES = 64
#: Bytes in one 128-bit flit.
FLIT_BYTES = 16
#: Flits in a packet carrying a line (data, refill, migration).
LINE_FLITS = LINE_BYTES // FLIT_BYTES
#: Flits in a request header or tag query.
REQUEST_FLITS = 1

#: Cycles of a cluster's tag-array probe (Cacti, 24 KB array).
TAG_LATENCY = 4
#: Cycles of a bank access (Cacti, 64 KB bank).
BANK_LATENCY = 5
#: Cycles of an off-chip memory access.
MEMORY_LATENCY = 260
#: Cycles per retired instruction of the in-order cores, before stalls.
CPI_BASE = 1.0

#: The L2: 16 clusters of 64 KB banks, 16-way set associative.  The
#: cache size, and so the banks per cluster, is a spec axis (Fig 16).
NUM_CLUSTERS = 16
BANK_KB = 64
L2_WAYS = 16

#: Each private L1 array (instructions and data are separate arrays).
L1_KB = 64
L1_WAYS = 2
L1_SETS = L1_KB * 1024 // LINE_BYTES // L1_WAYS

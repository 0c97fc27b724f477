"""L1 caches and distributed directory-based MSI coherence.

The paper keeps private L1 caches coherent with a distributed
directory-based protocol over the MSI states; L1s are write-through
(Table 4), so writes always reach the L2 and dirty data never hides in an
L1.  The coherence layer is functional — it reports which invalidation
messages each access implies so the timing layer can charge their network
traffic.
"""

from repro.coherence.l1cache import L1Cache
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherentL1System, CoherenceEvent

__all__ = [
    "L1Cache",
    "Directory",
    "CoherentL1System",
    "CoherenceEvent",
]

"""The MSI protocol engine binding L1 caches to the directory.

`CoherentL1System.access` is the front door for every CPU memory
reference.  It filters references through the private L1s and returns a
:class:`CoherenceEvent` describing what the L2 and the network must do:
whether an L2 transaction is needed, and which L1s must receive
invalidations.  Consistent with the write-through L1s, the protocol is:

* **read / ifetch hit** — L1 satisfies it; no L2 traffic.
* **read / ifetch miss** — L2 read; the reader becomes a sharer.
* **write** — propagated to the L2 (write-through) unless it coalesces
  in the CPU's write buffer; all *other* sharers are invalidated, and a
  writer that misses the L1 allocates the line (write-allocate).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.cache.nuca import IFETCH, WRITE, AccessType
from repro.coherence.l1cache import L1Cache
from repro.coherence.directory import Directory
from repro.params import LINE_BYTES
from repro.sim.trace import COHERENCE, NULL_TRACER, Tracer


class CoherenceEvent(NamedTuple):
    """Consequences of one CPU memory reference.

    Immutable, so every reference without invalidations shares one of the
    module constants below; only a write-through that invalidates another
    L1 builds a new event, to carry the directory's list of those CPUs.
    """

    l1_hit: bool
    needs_l2: bool
    invalidate_cpus: Sequence[int] = ()


#: A read or fetch that hits the L1, or a store that coalesces into the
#: write buffer over an L1 hit.
L1_HIT = CoherenceEvent(True, False)
#: A store that coalesces into the write buffer over an L1 miss.
COALESCED_MISS = CoherenceEvent(False, False)
#: A read or fetch that misses the L1, or a write-through over an L1
#: miss that invalidates no other L1.
L1_MISS = CoherenceEvent(False, True)
#: A write-through over an L1 hit that invalidates no other L1.
WRITE_THROUGH_HIT = CoherenceEvent(True, True)


class CoherentL1System:
    """All private L1s plus the sharer directory, MSI over write-through."""

    def __init__(self, num_cpus: int, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-CPU tracks for writer-initiated invalidations; L2-initiated
        # back-invalidations land on one shared "coherence" track.
        self._cpu_tracks = [
            self.tracer.track(f"cpu.{cpu}") for cpu in range(num_cpus)
        ]
        self._sys_track = self.tracer.track("coherence")
        # Split I/D: instruction fetches and data references index
        # separate 64 KB arrays, as in Table 4.
        self.dcaches = [L1Cache(cpu) for cpu in range(num_cpus)]
        self.icaches = [L1Cache(cpu) for cpu in range(num_cpus)]
        self.directory = Directory(num_cpus)
        # Small write-combining buffer per CPU (8 lines, LRU): stores to a
        # line already in the buffer coalesce into the earlier
        # write-through transaction instead of re-writing the L2.
        self._write_buffers: list[list[int]] = [[] for __ in range(num_cpus)]
        self._write_buffer_entries = 8
        self.coalesced_writes = 0

    def access(
        self,
        cpu_id: int,
        address: int,
        access_type: AccessType,
        cycle: float = 0.0,
    ) -> CoherenceEvent:
        """Process one reference; returns the resulting coherence event.

        ``cycle`` only timestamps trace events; callers advancing
        simulated time should pass their clock.
        """
        if access_type is IFETCH:
            cache = self.icaches[cpu_id]
        else:
            cache = self.dcaches[cpu_id]

        if access_type is WRITE:
            line = cache.line_of(address)
            hit = cache.lookup(address)
            buffer = self._write_buffers[cpu_id]
            if line in buffer:
                # Coalesced in the write buffer: the earlier write-through
                # already updated the L2 and invalidated the sharers.
                buffer.remove(line)
                buffer.insert(0, line)
                self.coalesced_writes += 1
                return L1_HIT if hit else COALESCED_MISS
            buffer.insert(0, line)
            if len(buffer) > self._write_buffer_entries:
                buffer.pop()
            invalidated = self.directory.write_invalidate(line, cpu_id)
            # The writer is never among the invalidated CPUs, so its
            # fill and their invalidations touch disjoint state.
            if not hit:
                evicted = cache.fill(address)
                self.directory.add_sharer(line, cpu_id)
                if evicted is not None:
                    self.directory.drop_sharer(evicted, cpu_id)
            # Write-through: the L2 sees every store.
            if not invalidated:
                return WRITE_THROUGH_HIT if hit else L1_MISS
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(
                    COHERENCE,
                    cycle,
                    self._cpu_tracks[cpu_id],
                    "write_invalidate",
                    line,
                    tuple(invalidated),
                )
            for target in invalidated:
                self.dcaches[target].invalidate(address)
                self.icaches[target].invalidate(address)
                target_buffer = self._write_buffers[target]
                if line in target_buffer:
                    target_buffer.remove(line)
            return CoherenceEvent(hit, True, invalidated)

        # READ / IFETCH: a hit needs nothing beyond the L1 probe.
        if cache.lookup(address):
            return L1_HIT
        evicted = cache.fill(address)
        self.directory.add_sharer(cache.line_of(address), cpu_id)
        if evicted is not None:
            self.directory.drop_sharer(evicted, cpu_id)
        return L1_MISS

    def l2_eviction(self, line_address: int, cycle: float = 0.0) -> list[int]:
        """Back-invalidate L1 copies when the L2 evicts a line (inclusion)."""
        targets = self.directory.invalidate_line(line_address)
        tracer = self.tracer
        if tracer.enabled and targets:
            tracer.emit(
                COHERENCE, cycle, self._sys_track, "l2_eviction", line_address,
                tuple(targets),
            )
        # The L2 numbers lines in the same LINE_BYTES units as the L1s.
        address = line_address * LINE_BYTES
        for target in targets:
            self.dcaches[target].invalidate(address)
            self.icaches[target].invalidate(address)
        return targets

    # -- statistics --------------------------------------------------------------

    def miss_rate(self, cpu_id: Optional[int] = None) -> float:
        caches = (
            [self.dcaches[cpu_id], self.icaches[cpu_id]]
            if cpu_id is not None
            else self.dcaches + self.icaches
        )
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        total = hits + misses
        return misses / total if total else 0.0

"""The MSI protocol engine binding L1 caches to the directory.

`CoherentL1System.access` is the front door for every CPU memory
reference.  It filters references through the private L1s and returns a
:class:`CoherenceEvent` describing what the L2 and the network must do:
whether an L2 transaction is needed, and which L1s must receive
invalidations.  Consistent with the write-through L1s, the protocol is:

* **read / ifetch hit** — L1 satisfies it; no L2 traffic.
* **read / ifetch miss** — L2 read; the reader becomes a sharer.
* **write** — always propagated to the L2 (write-through); all *other*
  sharers are invalidated.  With no-write-allocate (default), a writing
  CPU that does not hold the line does not gain it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache.nuca import IFETCH, WRITE, AccessType
from repro.coherence.l1cache import L1Cache, L1Config
from repro.coherence.directory import Directory
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass(slots=True)
class CoherenceEvent:
    """Consequences of one CPU memory reference.

    One is built per reference, positionally.  Reads and coalesced
    writes share the immutable ``()`` default for ``invalidate_cpus``
    instead of each allocating an empty list.
    """

    cpu_id: int
    address: int
    access_type: AccessType
    l1_hit: bool
    needs_l2: bool
    invalidate_cpus: Sequence[int] = ()
    l1_evicted_line: Optional[int] = None


class CoherentL1System:
    """All private L1s plus the sharer directory, MSI over write-through."""

    def __init__(
        self,
        num_cpus: int,
        config: Optional[L1Config] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config or L1Config()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-CPU tracks for writer-initiated invalidations; L2-initiated
        # back-invalidations land on one shared "coherence" track.
        self._cpu_tracks = [
            self.tracer.track(f"cpu.{cpu}") for cpu in range(num_cpus)
        ]
        self._sys_track = self.tracer.track("coherence")
        # Split I/D: instruction fetches and data references index
        # separate 64 KB arrays, as in Table 4.
        self.dcaches = [L1Cache(cpu, self.config) for cpu in range(num_cpus)]
        self.icaches = [L1Cache(cpu, self.config) for cpu in range(num_cpus)]
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
                return CoherenceEvent(cpu_id, address, access_type, hit, False)
            buffer.insert(0, line)
            if len(buffer) > self._write_buffer_entries:
                buffer.pop()
            invalidated = self.directory.write_invalidate(line, cpu_id)
            tracer = self.tracer
            if tracer.enabled and invalidated:
                tracer.coherence(
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
            evicted = None
            if not hit and self.config.write_allocate:
                evicted = cache.fill(address)
                self.directory.add_sharer(line, cpu_id)
                if evicted is not None:
                    self.directory.drop_sharer(evicted, cpu_id)
            # Write-through: the L2 sees every store.
            return CoherenceEvent(
                cpu_id, address, access_type, hit, True, invalidated, evicted
            )

        # READ / IFETCH: a hit needs nothing beyond the L1 probe.
        if cache.lookup(address):
            return CoherenceEvent(cpu_id, address, access_type, True, False)
        evicted = cache.fill(address)
        self.directory.add_sharer(cache.line_of(address), cpu_id)
        if evicted is not None:
            self.directory.drop_sharer(evicted, cpu_id)
        return CoherenceEvent(
            cpu_id, address, access_type, False, True, (), evicted
        )

    def l2_eviction(self, line_address: int, cycle: float = 0.0) -> list[int]:
        """Back-invalidate L1 copies when the L2 evicts a line (inclusion)."""
        targets = self.directory.invalidate_line(line_address)
        tracer = self.tracer
        if tracer.enabled and targets:
            tracer.coherence(
                cycle, self._sys_track, "l2_eviction", line_address,
                tuple(targets),
            )
        address = line_address * self.config.line_bytes
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

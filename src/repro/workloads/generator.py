"""Synthetic memory-reference trace generation.

Generates per-CPU traces with the structure of an OpenMP scientific code
(the paper's SPEC OMP suite):

* **chunked streaming** — the dominant pattern.  All CPUs stream through a
  *global shared array* in contiguous chunks (an OpenMP parallel loop:
  each thread grabs a chunk, sweeps it, grabs another).  With probability
  ``affinity`` a CPU picks its next chunk from its own preferred region of
  the array (static scheduling affinity); otherwise anywhere (dynamic
  scheduling, re-partitioned loops).  Each 64 B line receives
  ``refs_per_line`` references per sweep — the knob that sets the L1 miss
  rate — and over time the *same lines are touched by different CPUs*,
  which is what makes naive migration churn (paper Fig 14) instead of
  trivially localizing everything.
* **hot-set** references hit a small per-CPU region that stays L1-resident
  (loop scalars, stack).
* **residual** references scatter uniformly over the shared array
  (indirect/irregular accesses).
* **instruction fetches** walk a small per-CPU code loop.

All sampling is vectorized with numpy and fully deterministic given the
seed.  Each CPU's trace is a :class:`~repro.cpu.trace.Trace`, whose
gap, op and address columns are copied from the sampled int64 arrays;
iterating it yields ``(gap, op, address)`` events.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.params import LINE_BYTES
from repro.sim.rng import make_rng
from repro.cpu.trace import OP_READ, OP_WRITE, OP_IFETCH, Trace
from repro.workloads.benchmarks import BenchmarkProfile, get_benchmark

# Disjoint address regions (byte addresses).
_SHARED_BASE = 0x1000_0000
_HOT_BASE = 0x8000_0000
_CODE_BASE = 0xC000_0000
_CODE_BYTES = 24 * 1024


class SyntheticWorkload:
    """Trace factory for one benchmark profile on ``num_cpus`` CPUs."""

    def __init__(
        self,
        benchmark: str | BenchmarkProfile,
        num_cpus: int = 8,
        refs_per_cpu: int = 150_000,
        seed: int = 2006,
        chunk_kb: int = 8,
    ):
        self.profile = (
            benchmark
            if isinstance(benchmark, BenchmarkProfile)
            else get_benchmark(benchmark)
        )
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        if refs_per_cpu < 1:
            raise ValueError("need at least one reference per CPU")
        if chunk_kb < 1:
            raise ValueError("chunk size must be at least 1 KB")
        self.num_cpus = num_cpus
        self.refs_per_cpu = refs_per_cpu
        self.seed = seed
        self.chunk_bytes = chunk_kb * 1024
        self.shared_bytes = int(self.profile.working_set_mb * 1024 * 1024)
        if self.shared_bytes < self.chunk_bytes * num_cpus:
            raise ValueError("shared array smaller than one chunk per CPU")
        self._hot_lines = max(1, self.profile.hot_set_kb * 1024 // LINE_BYTES)

    # -- trace construction ------------------------------------------------------

    def cpu_trace(self, cpu_id: int) -> Trace:
        """Generate the full reference trace for one CPU."""
        if not 0 <= cpu_id < self.num_cpus:
            raise ValueError(f"cpu {cpu_id} out of range")
        profile = self.profile
        n = self.refs_per_cpu
        rng = make_rng(self.seed, f"{profile.name}.cpu{cpu_id}")

        # Instruction gaps: geometric around the memory-instruction density.
        gap_mean = (1.0 - profile.mem_ratio) / profile.mem_ratio
        gaps = rng.geometric(1.0 / (gap_mean + 1.0), size=n) - 1

        # Reference categories.
        draw = rng.random(n)
        is_ifetch = draw < profile.ifetch_fraction
        data_draw = rng.random(n)
        stream_cut = profile.stream_fraction
        hot_cut = stream_cut + profile.hot_fraction
        is_stream = (~is_ifetch) & (data_draw < stream_cut)
        is_hot = (~is_ifetch) & (data_draw >= stream_cut) & (data_draw < hot_cut)
        is_residual = (~is_ifetch) & (data_draw >= hot_cut)

        addresses = self._stream_addresses(rng, n, is_stream, cpu_id)

        # Hot set: Zipf-popular lines in a small private region.
        hot_line = self._zipf_lines(rng, n, self._hot_lines, profile.zipf_alpha)
        hot_addr = _HOT_BASE + (cpu_id << 24) + hot_line * LINE_BYTES
        addresses = np.where(is_hot, hot_addr, addresses)

        # Residual: popularity-skewed lines over the shared hot structures
        # (lookup tables, boundary data).  The pool is capped so these are
        # genuinely reused lines, not a cold-miss generator.
        residual_pool = min(self.shared_bytes, 2 * 1024 * 1024)
        residual_line = self._zipf_lines(
            rng, n, residual_pool // LINE_BYTES, profile.zipf_alpha
        )
        addresses = np.where(
            is_residual, _SHARED_BASE + residual_line * LINE_BYTES, addresses
        )

        # Instruction fetches: sequential walk of a small loop body.
        ifetch_pos = np.cumsum(np.where(is_ifetch, 4, 0))
        ifetch_addr = _CODE_BASE + (cpu_id << 24) + (ifetch_pos % _CODE_BYTES)
        addresses = np.where(is_ifetch, ifetch_addr, addresses)

        # Sub-line offsets for data references (8-byte words).
        word = rng.integers(0, LINE_BYTES // 8, size=n) * 8
        addresses = np.where(
            is_ifetch, addresses, addresses // LINE_BYTES * LINE_BYTES + word
        )

        # Operations: writes come from the stream (output arrays) and the
        # hot set (scalars); the residual shared structures are
        # overwhelmingly read-only (lookup tables, boundary reads).
        ops = np.full(n, OP_READ, dtype=np.int64)
        write_draw = rng.random(n)
        write_prob = np.where(is_residual, 0.02, profile.write_fraction)
        is_write = (~is_ifetch) & (write_draw < write_prob)
        ops[is_write] = OP_WRITE
        ops[is_ifetch] = OP_IFETCH

        return Trace(gaps, ops, addresses)

    def traces(self) -> list[Trace]:
        """Traces for all CPUs (the input to ``NetworkInMemory.run_trace``)."""
        return [self.cpu_trace(cpu) for cpu in range(self.num_cpus)]

    # -- streaming ------------------------------------------------------------------

    def _stream_addresses(
        self,
        rng: np.random.Generator,
        n: int,
        is_stream: np.ndarray,
        cpu_id: int,
    ) -> np.ndarray:
        """Chunked streaming over the global shared array.

        The CPU's stream position advances ``line/refs_per_line`` bytes per
        stream reference; every time it crosses a chunk boundary the CPU
        "grabs" a new chunk — from its preferred region with probability
        ``affinity`` (modelled via ``1 - sharing``), anywhere otherwise.
        """
        profile = self.profile
        step = max(1, LINE_BYTES // profile.refs_per_line)
        position = np.cumsum(np.where(is_stream, step, 0))
        chunk_index = position // self.chunk_bytes
        within = position % self.chunk_bytes
        num_chunks = int(chunk_index[-1]) + 1 if n else 1

        total_chunks = self.shared_bytes // self.chunk_bytes
        chunks_per_cpu = total_chunks // self.num_cpus
        preferred_base = cpu_id * chunks_per_cpu

        anywhere = rng.random(num_chunks) < profile.sharing
        preferred = preferred_base + rng.integers(
            0, max(1, chunks_per_cpu), size=num_chunks
        )
        random_chunk = rng.integers(0, total_chunks, size=num_chunks)
        chosen = np.where(anywhere, random_chunk, preferred)

        base = _SHARED_BASE + chosen[chunk_index] * self.chunk_bytes
        return base + within

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _zipf_lines(
        rng: np.random.Generator, n: int, num_lines: int, alpha: float
    ) -> np.ndarray:
        """Popularity-skewed line indices in ``[0, num_lines)``.

        A bounded power-law via inverse transform: low indices are
        proportionally hotter, with the skew controlled by ``alpha``, but
        no single line dominates the way an unbounded Zipf head does —
        real hot *lines* are L1-resident, so the L2 sees the body of the
        popularity distribution, not its head.
        """
        if num_lines <= 1:
            return np.zeros(n, dtype=np.int64)
        shape = 1.0 + 4.0 * alpha
        uniform = rng.random(n)
        return (num_lines * uniform**shape).astype(np.int64)

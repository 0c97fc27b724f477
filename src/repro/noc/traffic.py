"""Synthetic traffic generators for network characterization.

These drive the cycle-accurate fabric directly (no cache model) and are
used by the microbenchmarks and by the calibration of the contention-aware
latency model: uniform random, hotspot (a fraction of traffic targets a
small set of nodes — the pillar-congestion scenario of Section 3.3), and
transpose permutation traffic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.engine import ClockedComponent
from repro.sim.rng import make_rng
from repro.noc.network import Network
from repro.noc.packet import MessageClass
from repro.noc.routing import Coord


class TrafficGenerator(ClockedComponent):
    """Bernoulli packet injection at every node.

    Each cycle, each node independently injects a packet with probability
    ``injection_rate`` (packets/node/cycle) toward a destination chosen by
    :meth:`pick_destination`.
    """

    def __init__(
        self,
        network: Network,
        injection_rate: float,
        seed: int = 1,
        size_flits: Optional[int] = None,
        warmup_cycles: int = 0,
    ):
        if not 0 <= injection_rate <= 1:
            raise ValueError("injection rate must be in [0, 1]")
        self.network = network
        self.injection_rate = injection_rate
        self.size_flits = size_flits
        self.warmup_cycles = warmup_cycles
        self.rng = make_rng(seed, f"traffic.{type(self).__name__}")
        self.sources = list(network.coords())
        self.packets_sent = 0
        network.engine.register(self)

    @property
    def injection_rate(self) -> float:
        return self._injection_rate

    @injection_rate.setter
    def injection_rate(self, rate: float) -> None:
        self._injection_rate = rate
        if rate > 0:
            self.wake()

    def is_idle(self) -> bool:
        """Idle iff injection is switched off (rate 0 draws no randoms)."""
        return self._injection_rate <= 0

    def pick_destination(self, src: Coord) -> Coord:
        raise NotImplementedError

    def evaluate(self, cycle: int) -> None:
        pass

    def advance(self, cycle: int) -> None:
        if self._injection_rate <= 0:
            # Skip the Bernoulli draws entirely so the RNG stream is
            # identical whether idle cycles are ticked or skipped.
            return
        # One vectorized draw per cycle: numpy's Generator produces the
        # same variates for random(n) as for n scalar random() calls, so
        # this consumes the identical stream at a fraction of the cost.
        draws = self.rng.random(len(self.sources))
        for index in np.flatnonzero(draws < self._injection_rate):
            src = self.sources[index]
            dest = self.pick_destination(src)
            if dest == src:
                continue
            self.network.send(
                src,
                dest,
                size_flits=self.size_flits,
                message_class=MessageClass.SYNTHETIC,
            )
            self.packets_sent += 1

    def run(self, cycles: int) -> None:
        """Inject for ``cycles`` cycles, then drain the network."""
        self.network.engine.run(cycles)
        self.injection_rate, saved = 0.0, self.injection_rate
        self.network.quiesce()
        self.injection_rate = saved


class UniformRandomTraffic(TrafficGenerator):
    """Destinations drawn uniformly over all other nodes."""

    def pick_destination(self, src: Coord) -> Coord:
        nodes = self.sources
        while True:
            dest = nodes[int(self.rng.integers(len(nodes)))]
            if dest != src:
                return dest

    def advance(self, cycle: int) -> None:
        # Batched override of the generic per-source loop: one uniform
        # destination draw for all of this cycle's injectors, with a
        # vectorized rejection pass for src==dest collisions (the same
        # distribution as pick_destination's scalar rejection loop, a
        # different consumption of the RNG stream).  At saturation this
        # is ~50 sends/cycle, and the draw cost stops scaling with mesh
        # size.
        if self._injection_rate <= 0:
            return
        sources = self.sources
        count = len(sources)
        draws = self.rng.random(count)
        hits = np.flatnonzero(draws < self._injection_rate)
        if hits.size == 0:
            return
        dests = self.rng.integers(count, size=hits.size)
        collide = np.flatnonzero(dests == hits)
        while collide.size:
            redraw = self.rng.integers(count, size=collide.size)
            dests[collide] = redraw
            collide = collide[redraw == hits[collide]]
        send = self.network.send
        for src_index, dest_index in zip(hits.tolist(), dests.tolist()):
            send(
                sources[src_index],
                sources[dest_index],
                size_flits=self.size_flits,
                message_class=MessageClass.SYNTHETIC,
            )
            self.packets_sent += 1


class HotspotTraffic(TrafficGenerator):
    """A fraction of packets target designated hotspot nodes.

    Models the pillar-contention scenario: when CPUs share a pillar, the
    pillar router receives a disproportionate share of traffic.
    """

    def __init__(
        self,
        network: Network,
        injection_rate: float,
        hotspots: list[Coord],
        hotspot_fraction: float = 0.5,
        seed: int = 1,
        size_flits: Optional[int] = None,
    ):
        super().__init__(network, injection_rate, seed, size_flits)
        if not hotspots:
            raise ValueError("need at least one hotspot node")
        if not 0 <= hotspot_fraction <= 1:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hotspots = hotspots
        self.hotspot_fraction = hotspot_fraction

    def pick_destination(self, src: Coord) -> Coord:
        if self.rng.random() < self.hotspot_fraction:
            choices = [h for h in self.hotspots if h != src]
            if choices:
                return choices[int(self.rng.integers(len(choices)))]
        return UniformRandomTraffic.pick_destination(self, src)


class TransposeTraffic(TrafficGenerator):
    """Matrix-transpose permutation: node (x, y) sends to (y, x)."""

    def pick_destination(self, src: Coord) -> Coord:
        cfg = self.network.config
        x = src.y % cfg.width
        y = src.x % cfg.height
        return Coord(x, y, src.z)

"""Structured event tracing for the 3D NUCA stack.

The paper's results all hinge on *where* cycles go — L2 search hops,
pillar contention, migration churn — so every subsystem carries probe
sites that emit typed events to a :class:`Tracer`.  Two implementations
exist:

* :class:`NullTracer` (module singleton :data:`NULL_TRACER`): the default.
  ``enabled`` is a plain ``False`` bool, and every probe site guards on it
  *before* building any event arguments, so the disabled path adds one
  attribute load + branch and zero allocation — preserving the PR 3
  hot-path rules.
* :class:`RingTracer`: records events as plain tuples into a bounded ring
  (oldest events overwritten once full, with drop counting) keyed by
  integer track ids.  Components register one track per router / pillar /
  bank cluster at construction time via :meth:`Tracer.track`; a component
  glob filter can suppress whole tracks at registration.

Export targets:

* :func:`write_chrome_trace` — Chrome-trace-event JSON loadable in
  ``chrome://tracing`` / Perfetto: one thread-track per component,
  complete ``B``/``E`` slice pairs, and flow events (``s``/``t``/``f``)
  tying a packet's inject → hops → eject together across tracks.
  Timestamps are simulator cycles reported as microseconds.
* :func:`write_jsonl` — one JSON object per event for scripted analysis,
  preceded by a header line with track names and drop counts.

Adding a new event type: pick the next event-kind constant, name it in
``EVENT_NAMES``, list its field names in ``_FIELDS``, add a probe method
named after the kind (``packet_hop``, ``bus_grant``, ...) to
:class:`Tracer` as a no-op and to :class:`RingTracer` as a recorder, and
teach ``_chrome_slice`` how to label it.  Probe sites must keep the
guard-on-bool rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import IO, Iterator, Optional, Union

# Event kinds (index 1 of every event tuple).  Int constants, not an
# enum: probe sites sit on the simulation hot path and tuple layouts are
# internal to this module.
PACKET_INJECT = 0
PACKET_HOP = 1
PACKET_EJECT = 2
LINK_TRANSFER = 3
BUS_GRANT = 4
BUS_FRAME = 5
CACHE_SEARCH = 6
SEARCH_PLAN = 7
MIGRATION = 8
COHERENCE = 9
FAULT = 10

EVENT_NAMES = {
    PACKET_INJECT: "packet_inject",
    PACKET_HOP: "packet_hop",
    PACKET_EJECT: "packet_eject",
    LINK_TRANSFER: "link_transfer",
    BUS_GRANT: "bus_grant",
    BUS_FRAME: "bus_frame",
    CACHE_SEARCH: "cache_search",
    SEARCH_PLAN: "search_plan",
    MIGRATION: "migration",
    COHERENCE: "coherence",
    FAULT: "fault",
}

# Field names for the per-kind payload (event tuple positions 3..).
_FIELDS = {
    PACKET_INJECT: ("packet_id", "src", "dest", "size_flits", "message_class"),
    PACKET_HOP: ("packet_id", "out_port", "out_vc"),
    PACKET_EJECT: ("packet_id", "latency"),
    LINK_TRANSFER: ("packet_id", "vc"),
    BUS_GRANT: ("packet_id", "src_layer", "dest_layer", "vc"),
    BUS_FRAME: ("old_size", "new_size"),
    CACHE_SEARCH: ("cpu", "line", "step", "hit"),
    SEARCH_PLAN: ("cpu", "step1_clusters", "step2_clusters"),
    MIGRATION: ("line", "src_cluster", "dest_cluster"),
    COHERENCE: ("kind", "line", "targets"),
    FAULT: ("kind", "target", "phase"),
}


class Tracer:
    """Probe-site protocol; the base class doubles as the null tracer.

    Every probe method (``packet_inject``, ``packet_hop``, ``bus_grant``
    and the rest, one per event kind) is a no-op here.  Probe sites must
    never call them without first checking ``tracer.enabled`` — the
    guard, not the no-op body, is what keeps the disabled path
    allocation-free.
    ``track()`` is called off the hot path (component construction) and
    always safe.
    """

    enabled = False

    def track(self, name: str) -> int:
        """Register (or look up) a named track; returns its id."""
        return 0

    # Probe methods — one per event kind, no-ops when tracing is off.
    def packet_inject(self, ts, track, packet):
        pass

    def packet_hop(self, ts, track, packet_id, out_port, out_vc):
        pass

    def packet_eject(self, ts, track, packet_id, latency):
        pass

    def link_transfer(self, ts, track, packet_id, vc):
        pass

    def bus_grant(self, ts, track, packet_id, src_layer, dest_layer, vc):
        pass

    def bus_frame(self, ts, track, old_size, new_size):
        pass

    def cache_search(self, ts, track, cpu, line, step, hit):
        pass

    def search_plan(self, ts, track, cpu, step1_clusters, step2_clusters):
        pass

    def migration(self, ts, track, line, src_cluster, dest_cluster):
        pass

    def coherence(self, ts, track, kind, line, targets):
        pass

    def fault(self, ts, track, kind, target, phase):
        pass


class NullTracer(Tracer):
    """Disabled tracer; use the module singleton :data:`NULL_TRACER`."""


NULL_TRACER = NullTracer()


class RingTracer(Tracer):
    """Records typed events into a bounded ring with drop counting.

    Events are ``(ts, kind, track_id, *payload)`` tuples.  Once ``limit``
    events are held, the oldest are overwritten and ``dropped`` counts
    the overwrites.  Tracks suppressed by the ``component_filter`` glob
    record nothing (and are not counted as drops).
    """

    enabled = True

    def __init__(self, limit: int = 1_000_000, component_filter: Optional[str] = None):
        if limit <= 0:
            raise ValueError("trace limit must be positive")
        self.limit = limit
        self.component_filter = component_filter
        self.dropped = 0
        self._events: list[tuple] = []
        self._head = 0  # overwrite cursor once the ring is full
        self._track_names: list[str] = []
        self._track_on: list[bool] = []
        self._track_ids: dict[str, int] = {}

    # -- track registry (construction-time, not hot) --------------------

    def track(self, name: str) -> int:
        tid = self._track_ids.get(name)
        if tid is None:
            tid = len(self._track_names)
            self._track_ids[name] = tid
            self._track_names.append(name)
            self._track_on.append(
                self.component_filter is None
                or fnmatchcase(name, self.component_filter)
            )
        return tid

    def tracks(self) -> list[str]:
        return list(self._track_names)

    def track_enabled(self, track: int) -> bool:
        return self._track_on[track]

    # -- ring ------------------------------------------------------------

    def _append(self, event: tuple) -> None:
        events = self._events
        if len(events) < self.limit:
            events.append(event)
        else:
            events[self._head] = event
            self._head += 1
            if self._head == self.limit:
                self._head = 0
            self.dropped += 1

    @property
    def recorded(self) -> int:
        return len(self._events)

    def events(self) -> Iterator[tuple]:
        """Surviving events, oldest first."""
        events = self._events
        head = self._head
        yield from events[head:]
        yield from events[:head]

    # -- probe methods ----------------------------------------------------

    def packet_inject(self, ts, track, packet):
        if self._track_on[track]:
            self._append(
                (
                    ts,
                    PACKET_INJECT,
                    track,
                    packet.packet_id,
                    tuple(packet.src),
                    tuple(packet.dest),
                    packet.size_flits,
                    packet.message_class.value,
                )
            )

    def packet_hop(self, ts, track, packet_id, out_port, out_vc):
        if self._track_on[track]:
            self._append((ts, PACKET_HOP, track, packet_id, out_port, out_vc))

    def packet_eject(self, ts, track, packet_id, latency):
        if self._track_on[track]:
            self._append((ts, PACKET_EJECT, track, packet_id, latency))

    def link_transfer(self, ts, track, packet_id, vc):
        if self._track_on[track]:
            self._append((ts, LINK_TRANSFER, track, packet_id, vc))

    def bus_grant(self, ts, track, packet_id, src_layer, dest_layer, vc):
        if self._track_on[track]:
            self._append(
                (ts, BUS_GRANT, track, packet_id, src_layer, dest_layer, vc)
            )

    def bus_frame(self, ts, track, old_size, new_size):
        if self._track_on[track]:
            self._append((ts, BUS_FRAME, track, old_size, new_size))

    def cache_search(self, ts, track, cpu, line, step, hit):
        if self._track_on[track]:
            self._append((ts, CACHE_SEARCH, track, cpu, line, step, hit))

    def search_plan(self, ts, track, cpu, step1_clusters, step2_clusters):
        if self._track_on[track]:
            self._append(
                (ts, SEARCH_PLAN, track, cpu, step1_clusters, step2_clusters)
            )

    def migration(self, ts, track, line, src_cluster, dest_cluster):
        if self._track_on[track]:
            self._append((ts, MIGRATION, track, line, src_cluster, dest_cluster))

    def coherence(self, ts, track, kind, line, targets):
        if self._track_on[track]:
            self._append((ts, COHERENCE, track, kind, line, targets))

    def fault(self, ts, track, kind, target, phase):
        if self._track_on[track]:
            self._append((ts, FAULT, track, kind, target, phase))


@dataclass(frozen=True)
class TraceSpec:
    """Declarative tracing request, embeddable in a frozen ``SimSpec``.

    ``format`` is ``"chrome"`` or ``"jsonl"``; ``limit`` bounds the event
    ring; ``component_filter`` is an fnmatch glob over track names (e.g.
    ``"pillar.*"``).
    """

    format: str = "chrome"
    limit: int = 1_000_000
    component_filter: Optional[str] = None

    FORMATS = ("chrome", "jsonl")

    def __post_init__(self) -> None:
        if self.format not in self.FORMATS:
            raise ValueError(
                f"unknown trace format {self.format!r}; "
                f"choose from {list(self.FORMATS)}"
            )
        if self.limit <= 0:
            raise ValueError("trace limit must be positive")

    def make_tracer(self) -> RingTracer:
        return RingTracer(limit=self.limit, component_filter=self.component_filter)

    def filename_suffix(self) -> str:
        return ".trace.json" if self.format == "chrome" else ".trace.jsonl"

    def to_dict(self) -> dict:
        data: dict = {"format": self.format, "limit": self.limit}
        if self.component_filter is not None:
            data["component_filter"] = self.component_filter
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpec":
        return cls(
            format=data.get("format", "chrome"),
            limit=data.get("limit", 1_000_000),
            component_filter=data.get("component_filter"),
        )


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

# How long each point event is drawn in the Chrome timeline, in cycles.
_SLICE_DUR = 1.0


def _chrome_slice(kind: int, payload: tuple) -> tuple[str, str, dict]:
    """(name, category, args) for one event's B/E slice."""
    args = dict(zip(_FIELDS[kind], payload))
    if kind == PACKET_INJECT:
        return f"inject p{payload[0]}", "packet", args
    if kind == PACKET_HOP:
        return f"p{payload[0]} -> {payload[1]}", "packet", args
    if kind == PACKET_EJECT:
        return f"eject p{payload[0]}", "packet", args
    if kind == LINK_TRANSFER:
        return f"link p{payload[0]}", "packet", args
    if kind == BUS_GRANT:
        return (
            f"slot p{payload[0]} L{payload[1]}->L{payload[2]}",
            "dtdma",
            args,
        )
    if kind == BUS_FRAME:
        return f"frame {payload[0]}->{payload[1]}", "dtdma", args
    if kind == CACHE_SEARCH:
        label = "hit" if payload[3] else "miss"
        return f"search cpu{payload[0]} step{payload[2]} {label}", "cache", args
    if kind == SEARCH_PLAN:
        return f"search_plan cpu{payload[0]}", "cache", args
    if kind == MIGRATION:
        return f"migrate {payload[1]}->{payload[2]}", "cache", args
    if kind == COHERENCE:
        return f"coherence {payload[0]}", "coherence", args
    if kind == FAULT:
        return f"fault {payload[0]} {payload[1]} {payload[2]}", "fault", args
    raise ValueError(f"unknown event kind {kind}")


# Flow-event phase per packet-lifetime kind: "s" starts the flow at
# inject, "t" continues it at every hop, "f" finishes it at eject.
_FLOW_PHASE = {
    PACKET_INJECT: "s",
    PACKET_HOP: "t",
    LINK_TRANSFER: "t",
    BUS_GRANT: "t",
    PACKET_EJECT: "f",
}


def write_chrome_trace(tracer: RingTracer, stream: IO[str]) -> int:
    """Write a Chrome-trace-event JSON document; returns events written.

    One ``pid=1`` process with one thread per track; each simulator event
    becomes an adjacent ``B``/``E`` pair (balanced by construction) with a
    flow event bound inside the slice for packet-lifetime kinds.  Events
    are emitted track-by-track in non-decreasing ``ts`` order.
    """
    track_names = tracer.tracks()
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for tid, name in enumerate(track_names):
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 1,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    per_track: dict[int, list[tuple]] = {}
    count = 0
    started_flows: set = set()
    for event in tracer.events():
        per_track.setdefault(event[2], []).append(event)
        count += 1
        if event[1] == PACKET_INJECT:
            started_flows.add(event[3])

    for tid in sorted(per_track):
        events = per_track[tid]
        # Append order is already chronological per time base; the stable
        # sort only repairs cross-time-base stragglers (e.g. a lazily
        # built search plan stamped at ts 0).
        events.sort(key=lambda event: event[0])
        for event in events:
            ts, kind = float(event[0]), event[1]
            payload = event[3:]
            name, category, args = _chrome_slice(kind, payload)
            trace_events.append(
                {
                    "ph": "B",
                    "name": name,
                    "cat": category,
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "args": args,
                }
            )
            # A packet whose inject was overwritten in the ring has no
            # flow start; suppress its later flow steps so the document
            # stays strictly valid.
            flow_phase = _FLOW_PHASE.get(kind)
            if flow_phase is not None and payload[0] not in started_flows:
                flow_phase = None
            if flow_phase is not None:
                flow: dict = {
                    "ph": flow_phase,
                    "name": "packet",
                    "cat": "packet",
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "id": payload[0],
                }
                if flow_phase == "f":
                    flow["bp"] = "e"
                trace_events.append(flow)
            trace_events.append(
                {
                    "ph": "E",
                    "pid": 1,
                    "tid": tid,
                    "ts": ts + _SLICE_DUR,
                }
            )

    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracks": track_names,
            "recorded": tracer.recorded,
            "dropped": tracer.dropped,
        },
    }
    # dumps() (one-shot) takes the C-accelerated encoder; dump() streams
    # through the pure-Python encoder and is ~20x slower on big traces.
    # Compact separators save ~15% on multi-hundred-MB documents.
    stream.write(json.dumps(document, separators=(",", ":")))
    stream.write("\n")
    return count


def write_jsonl(tracer: RingTracer, stream: IO[str]) -> int:
    """Write one JSON object per event; returns events written.

    The first line is a header object carrying the track table and drop
    count, so a truncated ring is never mistaken for a complete run.
    """
    track_names = tracer.tracks()
    header = {
        "format": "repro-trace",
        "version": 1,
        "tracks": track_names,
        "recorded": tracer.recorded,
        "dropped": tracer.dropped,
    }
    stream.write(json.dumps(header) + "\n")
    count = 0
    for event in tracer.events():
        kind = event[1]
        record = {
            "ts": float(event[0]),
            "event": EVENT_NAMES[kind],
            "track": track_names[event[2]],
        }
        record.update(zip(_FIELDS[kind], event[3:]))
        stream.write(json.dumps(record) + "\n")
        count += 1
    return count


def write_trace(
    tracer: RingTracer, path: str, format: str = "chrome"
) -> tuple[int, int]:
    """Export ``tracer`` to ``path``; returns ``(written, dropped)``."""
    with open(path, "w", encoding="utf-8") as stream:
        if format == "chrome":
            written = write_chrome_trace(tracer, stream)
        elif format == "jsonl":
            written = write_jsonl(tracer, stream)
        else:
            raise ValueError(
                f"unknown trace format {format!r}; "
                f"choose from {list(TraceSpec.FORMATS)}"
            )
    return written, tracer.dropped


# ---------------------------------------------------------------------------
# Validation (used by tests and CI smoke checks)
# ---------------------------------------------------------------------------


def validate_chrome_trace(document: Union[dict, str]) -> dict:
    """Validate a Chrome-trace-event document; raises ValueError on defects.

    Checks the invariants the exporter promises: every ``B`` has a
    matching ``E`` on the same track (balanced, never left open), ``B``
    timestamps are non-decreasing per track, and every flow step/finish
    (``t``/``f``) refers to a flow id that some ``s`` event started.
    Returns summary info: track names, per-kind slice counts, flow ids.
    """
    if isinstance(document, str):
        document = json.loads(document)
    events = document["traceEvents"]
    track_names: dict[int, str] = {}
    open_slices: dict[int, int] = {}
    last_ts: dict[int, float] = {}
    started_flows: set = set()
    continued_flows: set = set()
    slice_count = 0
    for event in events:
        phase = event["ph"]
        tid = event.get("tid")
        if phase == "M":
            if event["name"] == "thread_name":
                track_names[tid] = event["args"]["name"]
            continue
        ts = event["ts"]
        if phase == "B":
            if ts < last_ts.get(tid, float("-inf")):
                raise ValueError(
                    f"track {tid} ts went backwards: {ts} after {last_ts[tid]}"
                )
            last_ts[tid] = ts
            open_slices[tid] = open_slices.get(tid, 0) + 1
            slice_count += 1
        elif phase == "E":
            if open_slices.get(tid, 0) <= 0:
                raise ValueError(f"track {tid}: E without matching B at ts {ts}")
            open_slices[tid] -= 1
        elif phase in ("s", "t", "f"):
            if phase == "s":
                started_flows.add(event["id"])
            else:
                continued_flows.add(event["id"])
        else:
            raise ValueError(f"unexpected phase {phase!r}")
    unclosed = {tid: n for tid, n in open_slices.items() if n}
    if unclosed:
        raise ValueError(f"unbalanced B/E pairs on tracks {unclosed}")
    orphans = continued_flows - started_flows
    if orphans:
        raise ValueError(f"flow steps without a start: {sorted(orphans)[:10]}")
    return {
        "tracks": track_names,
        "slices": slice_count,
        "flow_ids": started_flows,
    }

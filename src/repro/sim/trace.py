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

Probe sites call ``tracer.emit(KIND, ts, track, *payload)`` behind an
``if tracer.enabled:`` guard.  Every event kind is one :class:`EventKind`
row of :data:`EVENTS`, which both exporters read; adding a kind is one
row plus its probe site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import IO, Callable, Iterator, NamedTuple, Optional, Union

from repro.codec import Record


class EventKind(NamedTuple):
    """One row of the event schema, read by both exporters."""

    #: The JSONL ``event`` value.
    name: str
    #: The Chrome slice category.
    category: str
    #: Names of the payload fields (event tuple positions 3..).
    fields: tuple[str, ...]
    #: The Chrome slice name, built from the payload tuple.
    label: Callable[[tuple], str]
    #: Chrome flow phase of a packet-lifetime kind: ``"s"`` starts the
    #: packet's flow at inject, ``"t"`` continues it, ``"f"`` ends it.
    flow: Optional[str] = None


#: The event schema; a kind constant is its row's index.
EVENTS: tuple[EventKind, ...] = (
    EventKind("packet_inject", "packet",
              ("packet_id", "src", "dest", "size_flits", "message_class"),
              lambda p: f"inject p{p[0]}", "s"),
    EventKind("packet_hop", "packet", ("packet_id", "out_port", "out_vc"),
              lambda p: f"p{p[0]} -> {p[1]}", "t"),
    EventKind("packet_eject", "packet", ("packet_id", "latency"),
              lambda p: f"eject p{p[0]}", "f"),
    EventKind("bus_grant", "dtdma",
              ("packet_id", "src_layer", "dest_layer", "vc"),
              lambda p: f"slot p{p[0]} L{p[1]}->L{p[2]}", "t"),
    EventKind("bus_frame", "dtdma", ("old_size", "new_size"),
              lambda p: f"frame {p[0]}->{p[1]}"),
    EventKind("cache_search", "cache", ("cpu", "line", "step", "hit"),
              lambda p: f"search cpu{p[0]} step{p[2]} "
                        f"{'hit' if p[3] else 'miss'}"),
    EventKind("search_plan", "cache",
              ("cpu", "step1_clusters", "step2_clusters"),
              lambda p: f"search_plan cpu{p[0]}"),
    EventKind("migration", "cache", ("line", "src_cluster", "dest_cluster"),
              lambda p: f"migrate {p[1]}->{p[2]}"),
    EventKind("coherence", "coherence", ("kind", "line", "targets"),
              lambda p: f"coherence {p[0]}"),
    EventKind("fault", "fault", ("kind", "target", "phase"),
              lambda p: f"fault {p[0]} {p[1]} {p[2]}"),
)

# Event kinds (index 1 of every event tuple).  Int constants, not an
# enum: probe sites sit on the simulation hot path.
(PACKET_INJECT, PACKET_HOP, PACKET_EJECT, BUS_GRANT, BUS_FRAME, CACHE_SEARCH,
 SEARCH_PLAN, MIGRATION, COHERENCE, FAULT) = range(len(EVENTS))


class Tracer:
    """Probe-site protocol; the base class doubles as the null tracer.

    :meth:`emit` is a no-op here.  Probe sites must never call it
    without first checking ``tracer.enabled`` — the guard, not the no-op
    body, is what keeps the disabled path allocation-free.
    ``track()`` is called off the hot path (component construction) and
    always safe.
    """

    enabled = False

    def track(self, name: str) -> int:
        """Register (or look up) a named track; returns its id."""
        return 0

    def emit(self, kind: int, ts, track: int, *payload) -> None:
        """Record one event; ``payload`` follows ``EVENTS[kind].fields``."""


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

    def emit(self, kind: int, ts, track: int, *payload) -> None:
        if not self._track_on[track]:
            return
        event = (ts, kind, track) + payload
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


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

# How long each point event is drawn in the Chrome timeline, in cycles.
_SLICE_DUR = 1.0


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
            ts, row = float(event[0]), EVENTS[event[1]]
            payload = event[3:]
            trace_events.append(
                {
                    "ph": "B",
                    "name": row.label(payload),
                    "cat": row.category,
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "args": dict(zip(row.fields, payload)),
                }
            )
            # A packet whose inject was overwritten in the ring has no
            # flow start; suppress its later flow steps so the document
            # stays strictly valid.
            flow_phase = row.flow
            if flow_phase is not None and payload[0] in started_flows:
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
        row = EVENTS[event[1]]
        record = {
            "ts": float(event[0]),
            "event": row.name,
            "track": track_names[event[2]],
        }
        record.update(zip(row.fields, event[3:]))
        stream.write(json.dumps(record) + "\n")
        count += 1
    return count


#: Export formats: ``{format: (writer, file suffix)}``.
_FORMATS = {
    "chrome": (write_chrome_trace, ".trace.json"),
    "jsonl": (write_jsonl, ".trace.jsonl"),
}


def _exporter(format: str) -> tuple[Callable, str]:
    """``format``'s ``(writer, suffix)``; ``ValueError`` if it is unknown."""
    try:
        return _FORMATS[format]
    except KeyError:
        raise ValueError(
            f"unknown trace format {format!r}; choose from {list(_FORMATS)}"
        ) from None


def write_trace(
    tracer: RingTracer, path: str, format: str = "chrome"
) -> tuple[int, int]:
    """Export ``tracer`` to ``path``; returns ``(written, dropped)``.

    An unknown ``format`` raises before ``path`` is opened, so an
    existing file there is left as it was.
    """
    writer, __ = _exporter(format)
    with open(path, "w", encoding="utf-8") as stream:
        written = writer(tracer, stream)
    return written, tracer.dropped


@dataclass(frozen=True)
class TraceSpec(Record):
    """Declarative tracing request, embeddable in a frozen ``SimSpec``.

    ``format`` is ``"chrome"`` or ``"jsonl"``; ``limit`` bounds the event
    ring; ``component_filter`` is an fnmatch glob over track names (e.g.
    ``"pillar.*"``).
    """

    format: str = "chrome"
    limit: int = 1_000_000
    component_filter: Optional[str] = None

    FORMATS = tuple(_FORMATS)

    def __post_init__(self) -> None:
        _exporter(self.format)
        if self.limit <= 0:
            raise ValueError("trace limit must be positive")

    def make_tracer(self) -> RingTracer:
        return RingTracer(limit=self.limit, component_filter=self.component_filter)

    def filename_suffix(self) -> str:
        return _FORMATS[self.format][1]


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

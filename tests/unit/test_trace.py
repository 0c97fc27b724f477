"""Unit tests for the structured event tracing layer."""

import io
import json

import pytest

import repro.sim.trace as trace_module
from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import Coord
from repro.sim.trace import (
    BUS_FRAME,
    BUS_GRANT,
    EVENTS,
    NULL_TRACER,
    PACKET_EJECT,
    PACKET_HOP,
    PACKET_INJECT,
    NullTracer,
    RingTracer,
    TraceSpec,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.track("router.0.0.0") == 0
        # emit() is a no-op; nothing to observe but no crash either.
        tracer.emit(PACKET_HOP, 1, 0, 7, "EAST", 0)
        tracer.emit(BUS_FRAME, 2, 0, 1, 3)

    def test_module_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False


class TestEventSchema:
    def test_kind_constants_index_their_rows(self):
        # PACKET_INJECT names row "packet_inject", and so on: the
        # constants and the table cannot drift apart.
        for index, row in enumerate(EVENTS):
            assert getattr(trace_module, row.name.upper()) == index

    def test_only_packet_kinds_carry_flows(self):
        # A flow's id is the event's first payload field.
        for row in EVENTS:
            if row.flow is not None:
                assert row.fields[0] == "packet_id"


class TestRingTracer:
    def test_records_in_order(self):
        tracer = RingTracer()
        track = tracer.track("router.0.0.0")
        tracer.emit(PACKET_HOP, 5, track, 1, "EAST", 0)
        tracer.emit(PACKET_EJECT, 9, track, 1, 4)
        events = list(tracer.events())
        assert [event[0] for event in events] == [5, 9]
        assert tracer.recorded == 2
        assert tracer.dropped == 0

    def test_ring_overwrites_oldest_and_counts_drops(self):
        tracer = RingTracer(limit=3)
        track = tracer.track("t")
        for ts in range(5):
            tracer.emit(PACKET_HOP, ts, track, ts, "EAST", 0)
        assert tracer.recorded == 3
        assert tracer.dropped == 2
        # Oldest two (ts 0, 1) were overwritten; survivors oldest-first.
        assert [event[0] for event in tracer.events()] == [2, 3, 4]

    def test_track_dedup(self):
        tracer = RingTracer()
        a = tracer.track("pillar.3.3")
        b = tracer.track("pillar.3.3")
        c = tracer.track("pillar.7.5")
        assert a == b
        assert a != c
        assert tracer.tracks() == ["pillar.3.3", "pillar.7.5"]

    def test_component_filter_suppresses_tracks(self):
        tracer = RingTracer(component_filter="pillar.*")
        router = tracer.track("router.0.0.0")
        pillar = tracer.track("pillar.3.3")
        assert not tracer.track_enabled(router)
        assert tracer.track_enabled(pillar)
        tracer.emit(PACKET_HOP, 1, router, 1, "EAST", 0)
        tracer.emit(BUS_GRANT, 2, pillar, 1, 0, 1, 0)
        events = list(tracer.events())
        assert len(events) == 1
        assert events[0][2] == pillar
        # Filtered events are suppressed, not dropped.
        assert tracer.dropped == 0

    def test_packet_inject_captures_packet_fields(self):
        # The NIC's inject probe records the packet's fields.
        tracer = RingTracer()
        network = Network(
            NetworkConfig(width=2, height=2, layers=2,
                          pillar_locations=((0, 0),)),
            tracer=tracer,
        )
        packet = network.send(Coord(0, 0, 0), Coord(1, 1, 1))
        network.quiesce()
        (event,) = [e for e in tracer.events() if e[1] == PACKET_INJECT]
        assert event[3] == packet.packet_id
        assert event[4] == (0, 0, 0)
        assert event[5] == (1, 1, 1)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            RingTracer(limit=0)


class TestTraceSpec:
    def test_defaults_round_trip(self):
        spec = TraceSpec()
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_filter_round_trip(self):
        spec = TraceSpec(format="jsonl", limit=99, component_filter="router.*")
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_format_rejected(self):
        with pytest.raises(ValueError, match="chrome"):
            TraceSpec(format="binary")

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(limit=-1)

    def test_filename_suffix(self):
        assert TraceSpec(format="chrome").filename_suffix() == ".trace.json"
        assert TraceSpec(format="jsonl").filename_suffix() == ".trace.jsonl"

    def test_make_tracer(self):
        tracer = TraceSpec(limit=10, component_filter="cpu.*").make_tracer()
        assert isinstance(tracer, RingTracer)
        assert tracer.limit == 10
        assert tracer.component_filter == "cpu.*"


def _sample_tracer():
    tracer = RingTracer()
    router = tracer.track("router.0.0.0")
    pillar = tracer.track("pillar.3.3")
    empty = tracer.track("cluster.0")  # registered but never records
    tracer.emit(
        PACKET_INJECT, 0, router, 11, (0, 0, 0), (1, 1, 1), 4, "request"
    )
    tracer.emit(PACKET_HOP, 1, router, 11, "UP", 0)
    tracer.emit(BUS_GRANT, 2, pillar, 11, 0, 1, 0)
    tracer.emit(PACKET_EJECT, 5, router, 11, 5)
    tracer.emit(BUS_FRAME, 3, pillar, 0, 2)
    return tracer, empty


class TestChromeExport:
    def test_valid_and_flows_match_packet_ids(self):
        tracer, __ = _sample_tracer()
        buf = io.StringIO()
        written = write_chrome_trace(tracer, buf)
        assert written == 5
        info = validate_chrome_trace(buf.getvalue())
        assert info["slices"] == 5
        assert info["flow_ids"] == {11}

    def test_all_registered_tracks_in_metadata(self):
        # Empty tracks still appear so the timeline always shows every
        # router/pillar/cluster lane.
        tracer, __ = _sample_tracer()
        buf = io.StringIO()
        write_chrome_trace(tracer, buf)
        info = validate_chrome_trace(buf.getvalue())
        assert set(info["tracks"].values()) == {
            "router.0.0.0", "pillar.3.3", "cluster.0"
        }

    def test_per_track_sort_repairs_stragglers(self):
        # bus_frame was recorded at ts 3 after the ts 5 eject on another
        # track; per-track ordering must still be monotonic.
        tracer, __ = _sample_tracer()
        buf = io.StringIO()
        write_chrome_trace(tracer, buf)
        validate_chrome_trace(buf.getvalue())  # raises on regression

    def test_document_reports_drops(self):
        tracer = RingTracer(limit=2)
        track = tracer.track("t")
        for ts in range(4):
            tracer.emit(PACKET_HOP, ts, track, ts, "EAST", 0)
        buf = io.StringIO()
        write_chrome_trace(tracer, buf)
        document = json.loads(buf.getvalue())
        assert document["otherData"]["dropped"] == 2
        assert document["otherData"]["recorded"] == 2
        validate_chrome_trace(document)  # drops never unbalance B/E


class TestJsonlExport:
    def test_header_plus_one_line_per_event(self):
        tracer, __ = _sample_tracer()
        buf = io.StringIO()
        written = write_jsonl(tracer, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert written == 5
        assert len(lines) == 6
        header = lines[0]
        assert header["format"] == "repro-trace"
        assert header["tracks"] == ["router.0.0.0", "pillar.3.3", "cluster.0"]
        inject = lines[1]
        assert inject["event"] == "packet_inject"
        assert inject["track"] == "router.0.0.0"
        assert inject["packet_id"] == 11


class TestWriteTrace:
    def test_writes_both_formats(self, tmp_path):
        tracer, __ = _sample_tracer()
        chrome = tmp_path / "out.trace.json"
        jsonl = tmp_path / "out.trace.jsonl"
        assert write_trace(tracer, str(chrome), "chrome") == (5, 0)
        assert write_trace(tracer, str(jsonl), "jsonl") == (5, 0)
        validate_chrome_trace(chrome.read_text())
        assert len(jsonl.read_text().splitlines()) == 6

    def test_unknown_format_rejected(self, tmp_path):
        tracer, __ = _sample_tracer()
        target = tmp_path / "x"
        target.write_text("earlier run\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(tracer, str(target), "xml")
        # The format is checked before the file is opened for writing.
        assert target.read_text() == "earlier run\n"


class TestValidateChromeTrace:
    def _minimal(self, events):
        return {"traceEvents": events}

    def test_detects_ts_regression(self):
        events = [
            {"ph": "B", "tid": 0, "ts": 5.0, "name": "a"},
            {"ph": "E", "tid": 0, "ts": 6.0},
            {"ph": "B", "tid": 0, "ts": 2.0, "name": "b"},
            {"ph": "E", "tid": 0, "ts": 3.0},
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(self._minimal(events))

    def test_detects_unbalanced_pairs(self):
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(
                self._minimal([{"ph": "B", "tid": 0, "ts": 1.0, "name": "a"}])
            )
        with pytest.raises(ValueError, match="E without"):
            validate_chrome_trace(
                self._minimal([{"ph": "E", "tid": 0, "ts": 1.0}])
            )

    def test_detects_orphan_flow(self):
        events = [
            {"ph": "t", "tid": 0, "ts": 1.0, "id": 9, "name": "packet"},
        ]
        with pytest.raises(ValueError, match="without a start"):
            validate_chrome_trace(self._minimal(events))

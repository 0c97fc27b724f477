"""Unit tests for the versioned wire messages of the sweep service.

Every message round-trips through ``to_dict``/``from_dict``; every
request parser rejects a payload from a different protocol revision
with :class:`~repro.serve.protocol.VersionMismatchError`.  Error bodies
are the deliberate exception — a mismatch report must be parseable by
the very peer it rejects.
"""

import json

import pytest

from repro.core.schemes import Scheme
from repro.core.system import RunStats
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    CellFailureWire,
    CellOutcome,
    CellResultWire,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    JobResults,
    JobSnapshot,
    LeaseCell,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
    ReleaseAck,
    ResultAck,
    ResultPush,
    SubmitRequest,
    VersionMismatchError,
    check_version,
)

TINY = ExperimentScale(name="tiny", refs_per_cpu=50)


def make_spec(benchmark="art") -> SimSpec:
    return SimSpec.make(Scheme.CMP_DNUCA_3D, benchmark, scale=TINY)


def make_stats(spec: SimSpec) -> RunStats:
    return RunStats(
        scheme=spec.scheme,
        avg_l2_hit_latency=42.0,
        avg_l2_miss_latency=300.0,
        l2_hits=10,
        l2_misses=2,
        migrations=1,
        ipc=0.5,
        per_cpu_ipc=[0.5] * 8,
        l1_miss_rate=0.1,
        flit_hops=100.0,
        bus_flits=10.0,
        invalidations=0,
        instructions=1000.0,
        cycles=2000.0,
    )


class TestVersioning:
    def test_every_message_is_stamped(self):
        spec = make_spec()
        messages = [
            SubmitRequest(specs=(spec,), tenant="t"),
            LeaseRequest(worker_id="w1"),
            HeartbeatRequest(token="tok"),
            HeartbeatAck(
                lease_id="l1", ttl_s=15.0,
                expires_in_s=10.0, cells_outstanding=2,
            ),
            ResultPush(token="tok", outcomes=(), worker_id="w1"),
            ResultAck(accepted=1, stale=0, lease_open=True),
            ErrorBody(kind="bad_request", message="nope"),
            LeaseGrant(lease_id="l1", token="tok", ttl_s=15.0, cells=()),
        ]
        for message in messages:
            assert message.to_dict()["protocol_version"] == PROTOCOL_VERSION

    def test_check_version_rejects_missing_and_wrong(self):
        check_version({"protocol_version": PROTOCOL_VERSION})
        for bad in ({}, {"protocol_version": PROTOCOL_VERSION + 1},
                    {"protocol_version": "1"}, "not-a-mapping"):
            with pytest.raises(VersionMismatchError) as excinfo:
                check_version(bad)
            assert excinfo.value.expected == PROTOCOL_VERSION
            assert excinfo.value.status == 400

    def test_requests_reject_version_skew(self):
        spec = make_spec()
        payloads = [
            (SubmitRequest, SubmitRequest(specs=(spec,)).to_dict()),
            (LeaseRequest, LeaseRequest(worker_id="w").to_dict()),
            (HeartbeatRequest, HeartbeatRequest(token="t").to_dict()),
            (ResultPush, ResultPush(token="t", outcomes=()).to_dict()),
        ]
        for cls, payload in payloads:
            cls.from_dict(payload)  # sanity: current version parses
            payload["protocol_version"] = PROTOCOL_VERSION + 1
            with pytest.raises(VersionMismatchError):
                cls.from_dict(payload)

    def test_error_body_parses_without_version(self):
        # The one deliberate exception: a peer rejected for version skew
        # must still be able to read the rejection.
        parsed = ErrorBody.from_dict({"error": {
            "kind": "protocol_mismatch", "message": "skew",
            "expected_version": PROTOCOL_VERSION, "got_version": 99,
        }})
        assert parsed.kind == "protocol_mismatch"
        assert parsed.expected_version == PROTOCOL_VERSION
        assert parsed.got_version == 99


class TestRoundTrips:
    def test_submit_request(self):
        request = SubmitRequest(
            specs=(make_spec(), make_spec("swim")), tenant="lab",
        )
        parsed = SubmitRequest.from_dict(request.to_dict())
        assert parsed == request

    def test_submit_request_validates_specs(self):
        with pytest.raises(TypeError, match="list"):
            SubmitRequest.from_dict({
                "protocol_version": PROTOCOL_VERSION, "specs": "nope",
            })
        with pytest.raises(TypeError, match="tenant"):
            SubmitRequest.from_dict({
                "protocol_version": PROTOCOL_VERSION,
                "specs": [], "tenant": 7,
            })

    def test_lease_grant_with_cells(self):
        spec = make_spec()
        grant = LeaseGrant(
            lease_id="l000001-abc", token="deadbeef", ttl_s=15.0,
            cells=(LeaseCell(
                spec=spec, spec_hash=spec.spec_hash(),
                tenant="lab", attempt=2,
            ),),
        )
        parsed = LeaseGrant.from_dict(grant.to_dict())
        assert parsed == grant
        assert not parsed.is_empty
        assert parsed.cells[0].attempt == 2

    def test_empty_grant(self):
        grant = LeaseGrant(
            lease_id="", token="", ttl_s=15.0, cells=(), retry_after_s=0.5,
        )
        parsed = LeaseGrant.from_dict(grant.to_dict())
        assert parsed.is_empty
        assert parsed.retry_after_s == 0.5

    def test_lease_request_validation(self):
        for bad in ({"worker_id": ""}, {"worker_id": 3},
                    {"worker_id": "w", "max_cells": 0}):
            with pytest.raises(TypeError):
                LeaseRequest.from_dict({
                    "protocol_version": PROTOCOL_VERSION, **bad,
                })

    def test_result_push_with_outcomes(self):
        spec = make_spec()
        push = ResultPush(
            token="tok",
            worker_id="w1",
            outcomes=(
                CellOutcome(
                    spec_hash=spec.spec_hash(), stats=make_stats(spec),
                ),
                CellOutcome(
                    spec_hash="ffff", simulated=True,
                    error={"kind": "crash", "message": "sig 9",
                           "attempts": 1},
                ),
            ),
        )
        parsed = ResultPush.from_dict(push.to_dict())
        assert parsed == push
        assert parsed.outcomes[0].stats.ipc == 0.5
        assert parsed.outcomes[1].error["kind"] == "crash"

    def test_cell_outcome_requires_exactly_one_of_stats_error(self):
        with pytest.raises(TypeError, match="exactly one"):
            CellOutcome.from_dict({"spec_hash": "aa"})
        with pytest.raises(TypeError, match="exactly one"):
            CellOutcome.from_dict({
                "spec_hash": "aa",
                "stats": make_stats(make_spec()).to_dict(),
                "error": {"kind": "error", "message": "x"},
            })

    @pytest.mark.parametrize("error", [
        {}, {"knd": "timeout"}, {"kind": "crash", "message": "sig 9"},
        {"kind": "crash", "message": "sig 9", "attempts": "1"},
        {"kind": "crash", "message": "sig 9", "attempts": 1, "x": 0},
    ])
    def test_failure_bodies_are_validated(self, error):
        with pytest.raises(TypeError, match="kind, message, attempts"):
            CellOutcome.from_dict({"spec_hash": "aa", "error": error})
        failure = {"spec": make_spec().to_dict(), "spec_hash": "aa",
                   "error": error}
        with pytest.raises(TypeError, match="kind, message, attempts"):
            CellFailureWire.from_dict(failure)

    def test_error_body_optional_fields_skipped_when_unset(self):
        body = ErrorBody(kind="queue_full", message="full",
                         retry_after_s=2.0, pending=10, limit=10)
        wire = body.to_dict()
        assert "expected_version" not in wire["error"]
        assert wire["error"]["retry_after_s"] == 2.0
        assert ErrorBody.from_dict(wire) == body


# ---------------------------------------------------------------------------
# Wire-format pinning: the exact JSON every message class puts on the wire.
# ---------------------------------------------------------------------------

SPEC = make_spec()
STATS = make_stats(SPEC)
HASH = SPEC.spec_hash()
SPEC_WIRE = SPEC.to_dict()
STATS_WIRE = STATS.to_dict()
ERROR = {"kind": "timeout", "message": "cell exceeded 1.0s", "attempts": 2}
CRASH = {"kind": "crash", "message": "sig 9", "attempts": 1}
SNAPSHOT_FIELDS = dict(
    job_id="j000001-abc123", tenant="lab", state="done", cells=2,
    queued=0, running=0, done=1, failed=1, cached=0, deduped=0,
    simulated=1, failure_kinds={"timeout": 1},
    created_at=1700000000.5, elapsed_s=1.25,
)
DETAIL_ROW = {
    "index": 0, "spec_hash": HASH, "label": "CMP-DNUCA-3D/art",
    "state": "done", "origin": "simulated",
}
RESULT = CellResultWire(
    index=0, spec=SPEC, spec_hash=HASH, origin="simulated", stats=STATS,
)
FAILURE = CellFailureWire(index=1, spec=SPEC, spec_hash=HASH, error=ERROR)
SNAPSHOT_WIRE = {
    "job_id": "j000001-abc123", "tenant": "lab", "state": "done",
    "cells": 2, "queued": 0, "running": 0, "done": 1, "failed": 1,
    "cached": 0, "deduped": 0, "simulated": 1,
    "failure_kinds": {"timeout": 1},
    "created_at": 1700000000.5, "elapsed_s": 1.25,
}
RESULT_WIRE = {
    "index": 0, "spec": SPEC_WIRE, "spec_hash": HASH,
    "origin": "simulated", "stats": STATS_WIRE,
}
FAILURE_WIRE = {
    "index": 1, "spec": SPEC_WIRE, "spec_hash": HASH, "error": ERROR,
}
CRASH_OUTCOME_WIRE = {"spec_hash": "ffff", "simulated": True, "error": CRASH}

#: (message, its exact wire payload).  Key order is part of the format:
#: the comparison is on the serialized JSON text.
PINNED = {
    "error_full": (
        ErrorBody(kind="queue_full", message="full",
                  retry_after_s=2.0, pending=10, limit=10),
        {"error": {"kind": "queue_full", "message": "full",
                   "retry_after_s": 2.0, "pending": 10, "limit": 10},
         "protocol_version": 1},
    ),
    "error_minimal": (
        ErrorBody(kind="bad_request", message="nope"),
        {"error": {"kind": "bad_request", "message": "nope"},
         "protocol_version": 1},
    ),
    "error_skew": (
        ErrorBody(kind="protocol_mismatch", message="skew",
                  expected_version=1, got_version=2),
        {"error": {"kind": "protocol_mismatch", "message": "skew",
                   "expected_version": 1, "got_version": 2},
         "protocol_version": 1},
    ),
    "submit_tenant": (
        SubmitRequest(specs=(SPEC,), tenant="lab"),
        {"specs": [SPEC_WIRE], "tenant": "lab", "protocol_version": 1},
    ),
    "submit_no_tenant": (
        SubmitRequest(specs=(SPEC,)),
        {"specs": [SPEC_WIRE], "protocol_version": 1},
    ),
    "snapshot_detail": (
        JobSnapshot(**SNAPSHOT_FIELDS, cells_detail=(DETAIL_ROW,)),
        {**SNAPSHOT_WIRE, "cells_detail": [DETAIL_ROW],
         "protocol_version": 1},
    ),
    "snapshot_plain": (
        JobSnapshot(**SNAPSHOT_FIELDS),
        {**SNAPSHOT_WIRE, "protocol_version": 1},
    ),
    "cell_result": (RESULT, RESULT_WIRE),
    "cell_result_no_origin": (
        CellResultWire(
            index=1, spec=SPEC, spec_hash=HASH, origin=None, stats=STATS,
        ),
        {"index": 1, "spec": SPEC_WIRE, "spec_hash": HASH,
         "origin": None, "stats": STATS_WIRE},
    ),
    "cell_failure": (FAILURE, FAILURE_WIRE),
    "job_results": (
        JobResults(
            snapshot=JobSnapshot(**SNAPSHOT_FIELDS),
            results=(RESULT,),
            failures=(FAILURE,),
        ),
        {**SNAPSHOT_WIRE, "protocol_version": 1,
         "results": [RESULT_WIRE], "failures": [FAILURE_WIRE]},
    ),
    "lease_request": (
        LeaseRequest(worker_id="w1", max_cells=3),
        {"worker_id": "w1", "max_cells": 3, "protocol_version": 1},
    ),
    "lease_cell": (
        LeaseCell(spec=SPEC, spec_hash=HASH, tenant="lab", attempt=2),
        {"spec": SPEC_WIRE, "spec_hash": HASH, "tenant": "lab",
         "attempt": 2},
    ),
    "lease_grant": (
        LeaseGrant(
            lease_id="l000001-abc", token="deadbeef", ttl_s=15.0,
            cells=(LeaseCell(
                spec=SPEC, spec_hash=HASH, tenant="lab", attempt=1,
            ),),
        ),
        {"lease_id": "l000001-abc", "token": "deadbeef", "ttl_s": 15.0,
         "cells": [{"spec": SPEC_WIRE, "spec_hash": HASH,
                    "tenant": "lab", "attempt": 1}],
         "retry_after_s": 0.0, "protocol_version": 1},
    ),
    "lease_grant_empty": (
        LeaseGrant(
            lease_id="", token="", ttl_s=15.0, cells=(), retry_after_s=0.5,
        ),
        {"lease_id": "", "token": "", "ttl_s": 15.0, "cells": [],
         "retry_after_s": 0.5, "protocol_version": 1},
    ),
    "heartbeat_request": (
        HeartbeatRequest(token="tok"),
        {"token": "tok", "protocol_version": 1},
    ),
    "heartbeat_ack": (
        HeartbeatAck(
            lease_id="l1", ttl_s=15.0, expires_in_s=10.0,
            cells_outstanding=2,
        ),
        {"lease_id": "l1", "ttl_s": 15.0, "expires_in_s": 10.0,
         "cells_outstanding": 2, "protocol_version": 1},
    ),
    "outcome_stats": (
        CellOutcome(spec_hash=HASH, stats=STATS),
        {"spec_hash": HASH, "simulated": True, "stats": STATS_WIRE},
    ),
    "outcome_error": (
        CellOutcome(spec_hash="ffff", error=CRASH),
        CRASH_OUTCOME_WIRE,
    ),
    "outcome_cached": (
        CellOutcome(spec_hash=HASH, stats=STATS, simulated=False),
        {"spec_hash": HASH, "simulated": False, "stats": STATS_WIRE},
    ),
    "result_push": (
        ResultPush(
            token="tok",
            outcomes=(CellOutcome(spec_hash="ffff", error=CRASH),),
            worker_id="w1",
        ),
        {"token": "tok", "worker_id": "w1",
         "outcomes": [CRASH_OUTCOME_WIRE], "protocol_version": 1},
    ),
    "lease_release": (
        LeaseRelease(token="tok", spec_hashes=("aa", "bb")),
        {"token": "tok", "spec_hashes": ["aa", "bb"],
         "protocol_version": 1},
    ),
    "release_ack": (
        ReleaseAck(released=1, lease_open=False),
        {"released": 1, "lease_open": False, "protocol_version": 1},
    ),
    "result_ack": (
        ResultAck(accepted=1, stale=0, lease_open=True),
        {"accepted": 1, "stale": 0, "lease_open": True,
         "protocol_version": 1},
    ),
}

VERSIONED = sorted(
    name for name, (message, wire) in PINNED.items()
    if "protocol_version" in wire and not isinstance(message, ErrorBody)
)


class TestWirePinning:
    def test_every_message_class_is_pinned(self):
        pinned = {type(message) for message, __ in PINNED.values()}
        assert pinned == {
            ErrorBody, SubmitRequest, JobSnapshot, CellResultWire,
            CellFailureWire, JobResults, LeaseRequest, LeaseCell,
            LeaseGrant, HeartbeatRequest, HeartbeatAck, CellOutcome,
            ResultPush, LeaseRelease, ReleaseAck, ResultAck,
        }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_encodes_byte_for_byte(self, name):
        message, wire = PINNED[name]
        assert json.dumps(message.to_dict()) == json.dumps(wire)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_decodes_pinned_payload(self, name):
        message, wire = PINNED[name]
        parsed = type(message).from_dict(json.loads(json.dumps(wire)))
        assert parsed == message
        assert json.dumps(parsed.to_dict()) == json.dumps(wire)

    @pytest.mark.parametrize("name", VERSIONED)
    def test_versioned_messages_reject_skew(self, name):
        message, wire = PINNED[name]
        for version in (PROTOCOL_VERSION + 1, None, "1"):
            skewed = {**wire, "protocol_version": version}
            with pytest.raises(VersionMismatchError):
                type(message).from_dict(skewed)

    def test_bool_is_not_an_int(self):
        # isinstance(True, int) holds in Python; the wire must not care.
        with pytest.raises(TypeError, match="max_cells"):
            LeaseRequest.from_dict({
                "protocol_version": PROTOCOL_VERSION,
                "worker_id": "w1", "max_cells": True,
            })
        with pytest.raises(TypeError, match="attempt"):
            LeaseCell.from_dict({
                "spec": SPEC_WIRE, "spec_hash": HASH, "attempt": False,
            })

"""The sweep service's wire protocol: HTTP framing + versioned messages.

Two layers live here, shared by the server, the clients, and the remote
worker so that none of them can drift apart:

**HTTP framing.** The service deliberately avoids web-framework
dependencies — the container ships only the scientific toolchain — so
:func:`read_request` parses one request (request line, headers, a
Content-Length body) from a stream reader and :func:`render_response` /
:func:`render_stream_head` serialize responses; normal replies carry
``Content-Length`` and close the connection, NDJSON event streams send
headers up front and write lines until the job finishes.  One request
per connection keeps the framing trivial and matches the clients' usage.

**Versioned wire messages.** Every request/response body is a frozen
:class:`WireMessage` dataclass serialized by the record codec
(:mod:`repro.codec`), so a key that names no field is refused.
Top-level messages carry
``protocol_version`` (:data:`PROTOCOL_VERSION`) and ``from_dict`` calls
:func:`check_version` first, so a head and a worker (or a client) built
from different protocol revisions fail loudly with a structured
``protocol_mismatch`` error instead of silently misreading fields.
:class:`ErrorBody` (nested under ``"error"``, parsed without a version
check) and :class:`JobResults` (snapshot flattened) override the codec.
NDJSON *events* remain plain dicts — they are an append-only stream
reached through a versioned snapshot, not a negotiated surface.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, fields
from typing import ClassVar, Mapping, Optional
from urllib.parse import parse_qs, unquote

from repro.codec import Record, checked, decode_fields, encode_fields
from repro.core.system import RunStats
from repro.experiments.spec import SimSpec

#: Bump on any incompatible change to the message shapes below.  The
#: server rejects mismatched submissions/leases with a structured 400,
#: and workers refuse to start against a head of a different version.
PROTOCOL_VERSION = 1

#: Reject request bodies beyond this (a 100k-cell grid is ~40 MB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ProtocolError(ValueError):
    """Malformed or oversized request; maps to a 400/413 response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def segments(self) -> list[str]:
        """Non-empty path segments: ``/jobs/ab12/events`` ->
        ``["jobs", "ab12", "events"]``."""
        return [part for part in self.path.split("/") if part]


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Request | None:
    """Parse one request; None when the peer closed before sending one."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(400, "non-integer Content-Length") from None
    if length < 0 or length > max_body:
        raise ProtocolError(413, f"body of {length} bytes exceeds {max_body}")
    body = await reader.readexactly(length) if length else b""

    path, _sep, query_string = target.partition("?")
    return Request(
        method=method.upper(),
        path=unquote(path),
        query=parse_qs(query_string),
        headers=headers,
        body=body,
    )


def _head(
    status: int, content_type: str, extra_headers: tuple[tuple[str, str], ...]
) -> list[str]:
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return lines


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """A complete fixed-length response."""
    lines = _head(status, content_type, extra_headers)
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_stream_head(
    status: int = 200,
    content_type: str = "application/x-ndjson",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """Headers for a streamed body delimited by connection close."""
    lines = _head(status, content_type, extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# ---------------------------------------------------------------------------
# Versioned wire messages
# ---------------------------------------------------------------------------


class VersionMismatchError(ProtocolError):
    """The peer speaks a different protocol revision (or none at all)."""

    def __init__(self, got):
        super().__init__(
            400,
            f"protocol version mismatch: expected {PROTOCOL_VERSION}, "
            f"got {got!r}",
        )
        self.expected = PROTOCOL_VERSION
        self.got = got


def check_version(data: Mapping) -> None:
    """Raise :class:`VersionMismatchError` unless ``data`` carries ours."""
    got = data.get("protocol_version") if isinstance(data, Mapping) else None
    if got != PROTOCOL_VERSION:
        raise VersionMismatchError(got)


def _versioned(payload: dict) -> dict:
    payload["protocol_version"] = PROTOCOL_VERSION
    return payload


_NON_EMPTY = checked(bool, "a non-empty string")

#: A failed cell's body: exactly these keys, each of exactly this type.
_FAILURE_FIELDS = {"kind": str, "message": str, "attempts": int}
_FAILURE_WANT = "a {kind, message, attempts} object"


def is_failure_body(error) -> bool:
    """True for a well-formed ``{kind, message, attempts}`` failure."""
    return (
        isinstance(error, dict)
        and error.keys() == _FAILURE_FIELDS.keys()
        and all(type(error[key]) is want
                for key, want in _FAILURE_FIELDS.items())
    )


class WireMessage(Record):
    """Base of every wire message: the record codec, versioned.

    Fields map to JSON through :mod:`repro.codec`.  Top-level messages
    also carry ``protocol_version``, written last and checked first.
    """

    #: False for messages that only travel nested inside another.
    versioned: ClassVar[bool] = True

    def to_dict(self) -> dict:
        payload = encode_fields(self)
        return _versioned(payload) if self.versioned else payload

    @classmethod
    def from_dict(cls, data: Mapping):
        if not cls.versioned:
            return super().from_dict(data)
        check_version(data)
        return cls(**decode_fields(cls, data, extra=("protocol_version",)))


@dataclass(frozen=True, kw_only=True)
class ErrorBody(WireMessage):
    """Structured error payload: ``{"error": {...}, "protocol_version"}``.

    ``kind`` carries either a transport-level condition (``bad_request``,
    ``queue_full``, ``protocol_mismatch``, ``unknown_job``,
    ``unknown_lease``, ``unknown_artifact``, ``internal``) or — inside
    job results — a PR-5 cell failure kind ("error" | "timeout" |
    "crash" | "stall" | "deadlock" | "worker_lost").
    """

    kind: str
    message: str
    retry_after_s: Optional[float] = None
    pending: Optional[int] = None
    limit: Optional[int] = None
    expected_version: Optional[int] = None
    got_version: Optional[int] = None

    def to_dict(self) -> dict:
        return _versioned({"error": encode_fields(self)})

    @classmethod
    def from_dict(cls, data: Mapping) -> "ErrorBody":
        # Error bodies are deliberately parsed *without* a version check:
        # a mismatch report must be readable by the very peer it rejects.
        error = data.get("error", {}) if isinstance(data, Mapping) else {}
        if not isinstance(error, Mapping):
            error = {}
        return cls(
            kind=str(error.get("kind", "error")),
            message=str(error.get("message", data)),
            **{
                spec.name: error.get(spec.name)
                for spec in fields(cls)
                if spec.default is None
            },
        )


@dataclass(frozen=True, kw_only=True)
class SubmitRequest(WireMessage):
    """``POST /jobs`` body: one tenant's grid of spec cells."""

    specs: tuple[SimSpec, ...]
    tenant: Optional[str] = None  # None: fall back to header/default


@dataclass(frozen=True, kw_only=True)
class JobSnapshot(WireMessage):
    """One job's status: per-state counts, health, optional cell detail."""

    job_id: str
    tenant: str
    state: str  # "running" | "done"
    cells: int
    queued: int
    running: int
    done: int
    failed: int
    cached: int
    deduped: int
    simulated: int
    failure_kinds: dict = field(default_factory=dict)
    created_at: float = 0.0
    elapsed_s: float = 0.0
    cells_detail: Optional[tuple[dict, ...]] = None

    @classmethod
    def from_job(cls, job, detail: bool = False) -> "JobSnapshot":
        """Snapshot a live :class:`~repro.serve.scheduler.Job`."""
        return cls.from_dict(_versioned(job.snapshot(detail=detail)))


@dataclass(frozen=True, kw_only=True)
class CellResultWire(WireMessage):
    """One delivered cell inside a :class:`JobResults` body."""

    versioned = False

    index: int = 0
    spec: SimSpec
    spec_hash: str
    origin: Optional[str]
    stats: RunStats


@dataclass(frozen=True, kw_only=True)
class CellFailureWire(WireMessage):
    """One failed cell inside a :class:`JobResults` body."""

    versioned = False

    index: int = 0
    spec: SimSpec
    spec_hash: str
    error: dict = field(metadata=checked(is_failure_body, _FAILURE_WANT))


@dataclass(frozen=True, kw_only=True)
class JobResults(WireMessage):
    """``GET /jobs/<id>/results`` body: snapshot + stats + failures.

    On the wire the snapshot's fields sit at the top level, next to the
    ``results`` and ``failures`` lists.
    """

    snapshot: JobSnapshot
    results: tuple[CellResultWire, ...]
    failures: tuple[CellFailureWire, ...]

    @classmethod
    def from_job(cls, job) -> "JobResults":
        return cls.from_dict(_versioned(job.results_dict()))

    def to_dict(self) -> dict:
        payload = self.snapshot.to_dict()
        payload["results"] = [item.to_dict() for item in self.results]
        payload["failures"] = [item.to_dict() for item in self.failures]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobResults":
        check_version(data)
        lists = ("results", "failures")
        return cls(
            snapshot=JobSnapshot.from_dict(
                {key: value for key, value in data.items() if key not in lists}
            ),
            results=tuple(
                CellResultWire.from_dict(item)
                for item in data.get("results", ())
            ),
            failures=tuple(
                CellFailureWire.from_dict(item)
                for item in data.get("failures", ())
            ),
        )


@dataclass(frozen=True, kw_only=True)
class LeaseRequest(WireMessage):
    """``POST /leases`` body: a worker asking for a batch of cells."""

    worker_id: str = field(metadata=_NON_EMPTY)
    max_cells: int = field(
        default=4, metadata=checked(lambda n: n >= 1, "a positive integer")
    )


@dataclass(frozen=True, kw_only=True)
class LeaseCell(WireMessage):
    """One leased cell: the spec to execute plus its book-keeping."""

    versioned = False

    spec: SimSpec
    spec_hash: str
    tenant: str = "default"
    attempt: int = 1  # 1-based count of workers this cell has been leased to


@dataclass(frozen=True, kw_only=True)
class LeaseGrant(WireMessage):
    """``POST /leases`` response: a batch of cells + lease token + TTL.

    An empty grant (``lease_id == ""``, no cells) means no work was
    queued; the worker should poll again after ``retry_after_s``.
    """

    lease_id: str = ""
    token: str = ""
    ttl_s: float = 0.0
    cells: tuple[LeaseCell, ...] = ()
    retry_after_s: float = 0.0

    @property
    def is_empty(self) -> bool:
        return not self.cells


@dataclass(frozen=True, kw_only=True)
class HeartbeatRequest(WireMessage):
    """``POST /leases/<id>/heartbeat`` body: extend the lease TTL."""

    token: str = field(metadata=_NON_EMPTY)


@dataclass(frozen=True, kw_only=True)
class HeartbeatAck(WireMessage):
    """Heartbeat response: the renewed deadline and remaining cells."""

    lease_id: str
    ttl_s: float = 0.0
    expires_in_s: float = 0.0
    cells_outstanding: int = 0


@dataclass(frozen=True, kw_only=True)
class CellOutcome(WireMessage):
    """One executed cell: stats or a ``{kind, message, attempts}`` error.

    What :func:`repro.serve.scheduler.cell_outcome` returns and what
    :meth:`~repro.serve.scheduler.JobStore.push_results` folds, for the
    head's local pool and remote workers alike.
    """

    versioned = False

    spec_hash: str
    simulated: bool = True  # False: served from a worker-side cache
    stats: Optional[RunStats] = None
    error: Optional[dict] = None

    def __post_init__(self):
        if (self.stats is None) == (self.error is None):
            raise TypeError(
                "a cell outcome carries exactly one of 'stats' or 'error'"
            )
        if self.error is not None and not is_failure_body(self.error):
            raise TypeError(f"'error' must be {_FAILURE_WANT}")


@dataclass(frozen=True, kw_only=True)
class ResultPush(WireMessage):
    """``POST /leases/<id>/results`` body: completed cells of a lease."""

    token: str = ""
    worker_id: str = ""
    outcomes: tuple[CellOutcome, ...]


@dataclass(frozen=True, kw_only=True)
class LeaseRelease(WireMessage):
    """``POST /leases/<id>/release`` body: give unstarted cells back.

    A draining worker's graceful counterpart to lease expiry: the named
    cells requeue immediately (no TTL wait) and the grant's charge
    against their retry budget is refunded.  An empty ``spec_hashes``
    releases every remaining cell of the lease.
    """

    token: str = field(metadata=_NON_EMPTY)
    spec_hashes: tuple[str, ...] = ()


@dataclass(frozen=True, kw_only=True)
class ReleaseAck(WireMessage):
    """Release response: cells requeued, and whether the lease survives."""

    released: int = 0
    lease_open: bool = False


@dataclass(frozen=True, kw_only=True)
class ResultAck(WireMessage):
    """Result-push response.

    ``accepted`` cells resolved a pending execution; ``stale`` cells
    were already resolved elsewhere (a reaped lease's worker pushing
    late, or a duplicate push) and were discarded.  ``lease_open`` is
    False once the head no longer tracks the lease — the worker should
    stop executing that batch, its remaining cells have been requeued.
    """

    accepted: int = 0
    stale: int = 0
    lease_open: bool = False

"""Clients for the sweep service.

* :class:`ServeClient` — synchronous, ``http.client``-based; what the
  CLI's ``repro sweep --server URL`` and the remote worker
  (:mod:`repro.serve.worker`) use.  :meth:`ServeClient.sweep` submits a
  grid (retrying with backoff while the server sheds load), waits on the
  NDJSON event stream, and folds the delivered results back into an
  ordinary :class:`~repro.experiments.orchestrator.SweepSummary`, so
  server-side and local sweeps are interchangeable to callers.
* :class:`AsyncServeClient` — raw-asyncio, one connection per request;
  used by the load harness to hold a thousand submissions in flight on
  one event loop.

Both speak the versioned typed messages of :mod:`repro.serve.protocol`
(:class:`SubmitRequest` out, :class:`JobSnapshot`/:class:`JobResults`
back, the lease triple for workers) and raise one :class:`ServeError`
hierarchy: every failure — transport, backpressure, protocol skew,
unknown resources, server faults — is a subclass carrying the parsed
:class:`~repro.serve.protocol.ErrorBody` and a BSD-``sysexits``-style
``exit_code`` the CLI returns verbatim.  Neither client imports
anything beyond the stdlib.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import random
import time
from typing import Iterator, Optional, Sequence
from urllib.parse import urlsplit

from repro.experiments.orchestrator import CellFailure, SweepSummary
from repro.experiments.spec import SimSpec
from repro.serve.backoff import TRANSIENT_ERRORS, Backoff, jittered
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    JobResults,
    JobSnapshot,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
    ReleaseAck,
    ResultAck,
    ResultPush,
    SubmitRequest,
)


class ServeError(RuntimeError):
    """Base of every client-visible service failure.

    ``error`` is the parsed structured body (synthesized for transport
    failures), ``status`` the HTTP status (None when the request never
    got a response), and ``exit_code`` what ``repro sweep --server``
    exits with — BSD ``sysexits`` values, so scripts can tell a full
    queue (75, retryable) from protocol skew (76, upgrade something).
    """

    exit_code = 70  # EX_SOFTWARE: unclassified server-side failure

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        error: Optional[ErrorBody] = None,
    ):
        super().__init__(message)
        self.status = status
        self.error = error or ErrorBody(kind="error", message=message)

    @property
    def kind(self) -> str:
        return self.error.kind


class ServeConnectionError(ServeError):
    """The head is unreachable (refused, reset, or timed out)."""

    exit_code = 69  # EX_UNAVAILABLE


class ServerBusy(ServeError):
    """429: the store's pending-cell queue is full; retry later."""

    exit_code = 75  # EX_TEMPFAIL

    def __init__(self, message, *, status=None, error=None,
                 retry_after_s: float = 1.0):
        super().__init__(message, status=status, error=error)
        self.retry_after_s = retry_after_s


class ProtocolMismatch(ServeError):
    """The head speaks a different protocol revision than this client."""

    exit_code = 76  # EX_PROTOCOL


class BadRequestError(ServeError):
    """400: the server rejected the request body as malformed."""

    exit_code = 65  # EX_DATAERR


class UnknownResourceError(ServeError):
    """404: no such job, lease, artifact, or route."""

    exit_code = 66  # EX_NOINPUT


class ServerInternalError(ServeError):
    """5xx: the handler itself failed."""

    exit_code = 70  # EX_SOFTWARE


def raise_for_status(status: int, headers, body: dict) -> None:
    """Map a non-2xx response onto the :class:`ServeError` hierarchy."""
    if 200 <= status < 300:
        return
    error = ErrorBody.from_dict(body if isinstance(body, dict) else {})
    message = f"HTTP {status}: {error.kind}: {error.message}"
    if error.kind == "queue_full" or status == 429:
        retry_after = error.retry_after_s
        if retry_after is None:
            try:
                retry_after = float((headers or {}).get("Retry-After", 1.0))
            except (TypeError, ValueError):
                retry_after = 1.0
        raise ServerBusy(
            message, status=status, error=error,
            retry_after_s=float(retry_after),
        )
    if error.kind == "protocol_mismatch":
        raise ProtocolMismatch(message, status=status, error=error)
    if status == 404:
        raise UnknownResourceError(message, status=status, error=error)
    if status in (400, 405, 413):
        raise BadRequestError(message, status=status, error=error)
    if status >= 500:
        raise ServerInternalError(message, status=status, error=error)
    raise ServeError(message, status=status, error=error)


def summary_from_results(results: JobResults) -> SweepSummary:
    """Fold a job's typed results into an ordinary sweep summary.

    ``simulated`` counts cells this server actually ran for the job;
    dedup ride-alongs and submit-time cache hits both count as
    ``cached`` (no simulation happened on this job's behalf), mirroring
    what a warm local sweep would report.
    """
    summary = SweepSummary()
    for item in results.results:
        summary.results[item.spec] = item.stats
        if item.origin == "simulated":
            summary.simulated += 1
        else:
            summary.cached += 1
    for item in results.failures:
        summary.failures.append(CellFailure(spec=item.spec, **item.error))
    summary.elapsed_s = results.snapshot.elapsed_s
    return summary


class _RetryBudget:
    """One call's retry allowance on a :class:`ServeClient`.

    A small bounded count of transient resets (connection reset / broken
    pipe mid-exchange), plus an ``outage_grace_s`` wall-clock window
    during which *any* connection failure — including refused
    connections while the head restarts — is retried, each retry after
    a full-jitter backoff sleep.
    """

    def __init__(self, client: "ServeClient"):
        self._client = client
        self._backoff = Backoff(base_s=0.05, cap_s=2.0, rng=client._rng)
        self.reset()

    def reset(self) -> None:
        """Progress was made: restore the whole budget."""
        self._transient_left = self._client.transient_retries
        self._deadline: Optional[float] = None
        self._backoff.reset()

    def pause(self, exc: Optional[ServeConnectionError]) -> bool:
        """Sleep before retrying after ``exc`` (None: the peer closed
        cleanly); False, without sleeping, once the budget is spent."""
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + self._client.outage_grace_s
        transient = exc is not None and isinstance(
            exc.__cause__, TRANSIENT_ERRORS
        )
        if transient and self._transient_left > 0:
            self._transient_left -= 1
        elif now >= self._deadline:
            return False
        time.sleep(self._backoff.next_delay())
        return True


class ServeClient:
    """Synchronous client; one HTTP connection per call.

    Idempotent requests (GETs, including the mid-stream event follow)
    transparently retry on transient transport resets
    (:data:`~repro.serve.backoff.TRANSIENT_ERRORS`), and — when
    ``outage_grace_s`` is positive — keep retrying *any* connection
    failure with full-jitter backoff until the grace window expires, so
    a head restart mid-sweep looks like a pause rather than a crash.
    Non-idempotent POSTs are never silently replayed.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8731,
        tenant: str = "default",
        timeout_s: float = 300.0,
        outage_grace_s: float = 0.0,
        transient_retries: int = 3,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.outage_grace_s = outage_grace_s
        self.transient_retries = transient_retries
        self._rng = rng

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "ServeClient":
        """Client for ``http://host:port`` (the CLI's --server value)."""
        parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
        if parts.scheme != "http":
            raise ValueError(f"only http:// servers are supported: {url!r}")
        return cls(
            host=parts.hostname or "127.0.0.1",
            port=parts.port or 8731,
            **kwargs,
        )

    # -- transport -------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        idempotent: Optional[bool] = None,
    ) -> tuple[int, dict, dict]:
        """One request, retried when it is safe to replay it.

        GETs default to idempotent; POSTs must opt in explicitly.  Retries
        draw on a :class:`_RetryBudget`.
        """
        if idempotent is None:
            idempotent = method == "GET"
        retry = _RetryBudget(self)
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServeConnectionError as exc:
                if not idempotent or not retry.pause(exc):
                    raise

    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = None
            headers = {"X-Repro-Tenant": self.tenant}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, TimeoutError, OSError) as exc:
                raise ServeConnectionError(
                    f"head {self.host}:{self.port} unreachable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            parsed = json.loads(raw) if raw else {}
            return response.status, dict(response.getheaders()), parsed
        finally:
            conn.close()

    def _json(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        status, headers, body = self._request(method, path, payload)
        raise_for_status(status, headers, body)
        return body

    # -- surface ---------------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def check_protocol(self) -> dict:
        """Health check that also enforces protocol-version agreement."""
        health = self.health()
        got = health.get("protocol_version")
        if got != PROTOCOL_VERSION:
            raise ProtocolMismatch(
                f"head {self.host}:{self.port} speaks protocol {got!r}, "
                f"this client speaks {PROTOCOL_VERSION}",
                error=ErrorBody(
                    kind="protocol_mismatch",
                    message="head/client protocol skew",
                    expected_version=PROTOCOL_VERSION,
                    got_version=got if isinstance(got, int) else None,
                ),
            )
        return health

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def submit(self, specs: Sequence[SimSpec]) -> JobSnapshot:
        """Submit a grid; returns the snapshot (raises ServerBusy on 429)."""
        request = SubmitRequest(specs=tuple(specs), tenant=self.tenant)
        return JobSnapshot.from_dict(
            self._json("POST", "/jobs", request.to_dict())
        )

    def job(self, job_id: str, detail: bool = True) -> JobSnapshot:
        suffix = "" if detail else "?detail=0"
        return JobSnapshot.from_dict(
            self._json("GET", f"/jobs/{job_id}{suffix}")
        )

    def results(self, job_id: str) -> JobResults:
        return JobResults.from_dict(
            self._json("GET", f"/jobs/{job_id}/results")
        )

    def artifact(self, spec_hash: str) -> dict:
        return self._json("GET", f"/cells/{spec_hash}")

    # -- worker surface --------------------------------------------------------

    def lease(self, worker_id: str, max_cells: int = 4) -> LeaseGrant:
        """Ask the head for a batch of cells (empty grant when idle)."""
        request = LeaseRequest(worker_id=worker_id, max_cells=max_cells)
        return LeaseGrant.from_dict(
            self._json("POST", "/leases", request.to_dict())
        )

    def heartbeat(self, lease_id: str, token: str) -> HeartbeatAck:
        request = HeartbeatRequest(token=token)
        return HeartbeatAck.from_dict(
            self._json(
                "POST", f"/leases/{lease_id}/heartbeat", request.to_dict()
            )
        )

    def push_results(self, lease_id: str, push: ResultPush) -> ResultAck:
        return ResultAck.from_dict(
            self._json("POST", f"/leases/{lease_id}/results", push.to_dict())
        )

    def release(
        self,
        lease_id: str,
        token: str,
        spec_hashes: Sequence[str] = (),
    ) -> ReleaseAck:
        """Give unstarted leased cells back to the head's queue.

        An empty ``spec_hashes`` releases every cell still on the
        lease.  Used by a draining worker so its unfinished work is
        re-queued immediately instead of waiting out the lease TTL.
        """
        request = LeaseRelease(token=token, spec_hashes=tuple(spec_hashes))
        return ReleaseAck.from_dict(
            self._json("POST", f"/leases/{lease_id}/release",
                       request.to_dict())
        )

    # -- event streaming -------------------------------------------------------

    def iter_events(self, job_id: str) -> Iterator[dict]:
        """The job's NDJSON event stream, replayed then followed to the end.

        Survives a dropped stream: on a transient mid-stream reset (or
        any connection failure within ``outage_grace_s``) the client
        reconnects and — because the server replays the job's event log
        from the start — skips the events it already yielded, so callers
        see each event once.  A clean end-of-stream after a ``done``
        event terminates the iterator.
        """
        yielded = 0
        retry = _RetryBudget(self)
        while True:
            exc: Optional[ServeConnectionError] = None
            try:
                for event in self._iter_events_once(job_id, skip=yielded):
                    yielded += 1
                    retry.reset()
                    yield event
                    if event.get("event") == "done":
                        return
            except ServeConnectionError as err:
                exc = err
            if not retry.pause(exc):
                if exc is not None:
                    raise exc
                return  # clean EOF with no grace window: stream is over

    def _iter_events_once(self, job_id: str, skip: int = 0) -> Iterator[dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            try:
                conn.request(
                    "GET",
                    f"/jobs/{job_id}/events",
                    headers={"X-Repro-Tenant": self.tenant},
                )
                response = conn.getresponse()
            except (ConnectionError, TimeoutError, OSError) as exc:
                raise ServeConnectionError(
                    f"head {self.host}:{self.port} unreachable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if response.status != 200:
                raw = response.read()
                raise_for_status(
                    response.status,
                    dict(response.getheaders()),
                    json.loads(raw) if raw else {},
                )
            seen = 0
            while True:
                try:
                    line = response.readline()
                except (ConnectionError, TimeoutError, OSError) as exc:
                    raise ServeConnectionError(
                        f"head {self.host}:{self.port} event stream "
                        f"interrupted: {type(exc).__name__}: {exc}"
                    ) from exc
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                seen += 1
                if seen > skip:
                    yield event
        finally:
            conn.close()

    def wait(self, job_id: str) -> JobResults:
        """Follow the event stream until the job ends; returns results."""
        for event in self.iter_events(job_id):
            if event.get("event") == "done":
                break
        return self.results(job_id)

    def sweep(
        self,
        specs: Sequence[SimSpec],
        max_retries: int = 20,
        progress=None,
    ) -> SweepSummary:
        """Submit + wait + fold into a SweepSummary (the CLI client path).

        Respects backpressure: a 429 sleeps for the server's suggested
        Retry-After and resubmits, up to ``max_retries`` times.
        """
        attempt = 0
        while True:
            try:
                snapshot = self.submit(specs)
                break
            except ServerBusy as busy:
                attempt += 1
                if attempt > max_retries:
                    raise
                delay = jittered(busy.retry_after_s, rng=self._rng)
                if progress is not None:
                    progress(
                        f"server busy; retrying in {delay:.1f}s "
                        f"({attempt}/{max_retries})"
                    )
                time.sleep(delay)
        for event in self.iter_events(snapshot.job_id):
            if event.get("event") == "done":
                break
            if progress is not None and event.get("state") in (
                "done", "failed"
            ):
                progress(
                    f"{event.get('label', event.get('spec_hash'))}: "
                    f"{event['state']} ({event.get('origin', '-')})"
                )
        return summary_from_results(self.results(snapshot.job_id))


class AsyncServeClient:
    """Asyncio client: one short-lived connection per request.

    GETs retry transient transport resets (bounded), mirroring the
    synchronous client; POSTs are never replayed.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8731,
        tenant: str = "default",
        transient_retries: int = 3,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.transient_retries = transient_retries

    async def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict]:
        retries_left = self.transient_retries if method == "GET" else 0
        backoff = Backoff(base_s=0.05, cap_s=2.0)
        while True:
            try:
                return await self._request_once(method, path, payload)
            except ServeConnectionError as exc:
                if retries_left <= 0 or not isinstance(
                    exc.__cause__, TRANSIENT_ERRORS
                ):
                    raise
                retries_left -= 1
                await asyncio.sleep(backoff.next_delay())

    async def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-Repro-Tenant: {self.tenant}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer = None
        retry_after = None
        try:
            # Any transport failure — refused, or reset anywhere in the
            # exchange — surfaces as ServeConnectionError, so _request's
            # transient-retry loop sees every reset.
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionResetError("peer closed before replying")
            status = int(status_line.split()[1])
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "retry-after":
                    retry_after = value.strip()
            raw = await reader.read()
        except (ConnectionError, OSError) as exc:
            raise ServeConnectionError(
                f"head {self.host}:{self.port} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            if writer is not None:
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
        parsed = json.loads(raw) if raw.strip() else {}
        headers = (
            {"Retry-After": retry_after} if retry_after is not None else {}
        )
        raise_for_status(status, headers, parsed)
        return status, parsed

    async def submit(self, specs: Sequence[SimSpec]) -> JobSnapshot:
        request = SubmitRequest(specs=tuple(specs), tenant=self.tenant)
        __, body = await self._request("POST", "/jobs", request.to_dict())
        return JobSnapshot.from_dict(body)

    async def job(self, job_id: str, detail: bool = False) -> JobSnapshot:
        suffix = "" if detail else "?detail=0"
        __, body = await self._request("GET", f"/jobs/{job_id}{suffix}")
        return JobSnapshot.from_dict(body)

    async def results(self, job_id: str) -> JobResults:
        __, body = await self._request("GET", f"/jobs/{job_id}/results")
        return JobResults.from_dict(body)

    async def stats(self) -> dict:
        __, body = await self._request("GET", "/stats")
        return body

    async def wait(
        self, job_id: str, poll_s: float = 0.05, timeout_s: float = 600.0
    ) -> JobSnapshot:
        """Poll the job until done; returns the final (detail-free) snapshot."""
        deadline = time.monotonic() + timeout_s
        while True:
            snapshot = await self.job(job_id, detail=False)
            if snapshot.state == "done":
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot.state} "
                    f"after {timeout_s:.0f}s"
                )
            await asyncio.sleep(poll_s)

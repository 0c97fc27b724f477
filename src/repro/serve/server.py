"""Async HTTP/JSON front end for the sweep service.

``python -m repro serve`` boots one :class:`SweepServer` over a
:class:`~repro.serve.scheduler.JobStore`.  The surface is deliberately
small and stdlib-only:

==============================  ================================================
``GET  /healthz``               liveness + role, pool state, protocol version
``GET  /stats``                 store-wide counters (dedup, cache, leases)
``POST /jobs``                  submit a grid (:class:`SubmitRequest`)
                                -> 202 :class:`JobSnapshot`, or 429 + Retry-After
``GET  /jobs/<id>``             job status snapshot (per-cell states, health)
``GET  /jobs/<id>/events``      NDJSON stream: replay + follow until job end
``GET  /jobs/<id>/results``     delivered stats + structured failures
``GET  /cells/<hash>``          the raw cached artifact for one spec hash
``POST /leases``                worker pull (:class:`LeaseRequest`) -> 201
                                :class:`LeaseGrant` (200 + empty grant if idle)
``POST /leases/<id>/heartbeat`` extend the lease -> :class:`HeartbeatAck`
``POST /leases/<id>/results``   push outcomes (:class:`ResultPush`) ->
                                :class:`ResultAck`
``POST /leases/<id>/release``   drain: give unstarted cells back
                                (:class:`LeaseRelease`) -> :class:`ReleaseAck`
==============================  ================================================

Request/response bodies are the frozen dataclasses of
:mod:`repro.serve.protocol`, each stamped with ``protocol_version``; a
submission or lease call from a different protocol revision is rejected
with a structured 400 ``protocol_mismatch`` error so head/worker skew
fails loudly.  Submissions go through the :func:`repro.api.submit`
facade — the server is just HTTP framing around it.  Tenants identify
themselves via the ``"tenant"`` body field or the ``X-Repro-Tenant``
header; there is no authentication (the service is a lab-cluster tool,
bind it accordingly).

Error responses are :class:`~repro.serve.protocol.ErrorBody` JSON::

    {"error": {"kind": "queue_full", "message": "...", "retry_after_s": 2.0},
     "protocol_version": 1}

with cell-level failures inside job results carrying the PR-5
``CellFailure`` kinds ("error" | "timeout" | "crash" | "stall" |
"deadlock" | "worker_lost").
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Callable, Optional

from repro import api
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorBody,
    HeartbeatAck,
    HeartbeatRequest,
    LeaseCell,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
    JobResults,
    JobSnapshot,
    ProtocolError,
    ReleaseAck,
    Request,
    ResultAck,
    ResultPush,
    SubmitRequest,
    VersionMismatchError,
    read_request,
    render_response,
    render_stream_head,
)
from repro.serve.scheduler import (
    JobStore,
    QueueFullError,
    UnknownLeaseError,
)

SERVER_NAME = "repro-serve/1"

#: Poll hint handed to workers when the queues are empty.
IDLE_RETRY_S = 0.5


def _json_body(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


class _Reject(Exception):
    """An endpoint's structured error reply (an :class:`ErrorBody`)."""

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        headers: tuple[tuple[str, str], ...] = (),
        **extra,
    ):
        super().__init__(message)
        self.status = status
        self.body = ErrorBody(kind=kind, message=message, **extra).to_dict()
        self.headers = headers


class SweepServer:
    """One asyncio HTTP server bound to one job store."""

    def __init__(
        self, store: JobStore, host: str = "127.0.0.1", port: int = 0
    ):
        self.store = store
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> int:
        """Bind and listen; returns the actual port (useful with port 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                reply = (
                    None if request is None
                    else await self._route(request, writer)
                )
            except ProtocolError as exc:
                reply = exc.status, ErrorBody(
                    kind="bad_request", message=exc.message
                ).to_dict()
            except asyncio.IncompleteReadError:
                reply = None
            except _Reject as reject:
                reply = reject.status, reject.body, reject.headers
            if reply is not None:  # None: nothing read, or streamed
                self._reply(writer, *reply)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # never let a handler kill the server
            with contextlib.suppress(Exception):
                self._reply(writer, 500, ErrorBody(
                    kind="internal", message=f"{type(exc).__name__}: {exc}"
                ).to_dict())
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        obj: dict,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        writer.write(render_response(
            status,
            _json_body(obj),
            extra_headers=(("Server", SERVER_NAME),) + extra_headers,
        ))

    async def _route(self, request: Request, writer: asyncio.StreamWriter):
        """Run the endpoint for ``request``: ``(status, body)`` or None."""
        head, *rest = request.segments or [""]
        method = request.method
        if method == "GET" and not rest and head == "healthz":
            return 200, self._health()
        if method == "GET" and not rest and head == "stats":
            return 200, self.store.stats_dict()
        if method == "GET" and len(rest) == 1 and head == "cells":
            return 200, self._artifact(rest[0])
        allowed = {"jobs": "GET" if rest else "POST", "leases": "POST"}
        if head not in allowed:
            raise _Reject(404, "not_found", f"no route for {request.path}")
        if method != allowed[head]:
            raise _Reject(
                405, "method_not_allowed", f"use {allowed[head]}",
                headers=(("Allow", allowed[head]),),
            )
        if head == "leases":
            return self._lease_route(request, rest)
        if not rest:
            return await self._submit(request)
        return await self._job_route(request, writer, rest)

    def _parse_body(self, request: Request, message_cls):
        """Parse + validate a typed request body, or reject it with a
        structured 400 (``protocol_mismatch`` for version skew,
        ``bad_request`` for anything else malformed)."""
        try:
            return message_cls.from_dict(json.loads(request.body or b"{}"))
        except VersionMismatchError as exc:
            raise _Reject(
                400, "protocol_mismatch", exc.message,
                expected_version=exc.expected,
                got_version=exc.got if isinstance(exc.got, int) else None,
            ) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise _Reject(
                400, "bad_request",
                f"invalid {message_cls.__name__} body: {exc}",
            ) from None

    # -- endpoints -------------------------------------------------------------

    def _health(self) -> dict:
        return {
            "status": "ok",
            "server": SERVER_NAME,
            "protocol_version": PROTOCOL_VERSION,
            "role": "head" if self.store.workers == 0 else "head+local",
            "workers": self.store.workers,
            "executor": self.store.executor_kind,
            "pending_cells": self.store.pending_cells,
            "max_pending": self.store.max_pending,
            "leases_open": self.store.leases_open,
        }

    async def _submit(self, request: Request):
        submit = self._parse_body(request, SubmitRequest)
        tenant = (
            submit.tenant
            or request.headers.get("x-repro-tenant")
            or "default"
        )
        try:
            job = await api.submit(
                list(submit.specs), tenant=tenant, store=self.store
            )
        except QueueFullError as exc:
            raise _Reject(
                429, "queue_full", str(exc),
                headers=(
                    ("Retry-After", f"{max(1, round(exc.retry_after_s))}"),
                ),
                pending=exc.pending,
                limit=exc.limit,
                retry_after_s=exc.retry_after_s,
            ) from None
        return 202, JobSnapshot.from_job(job).to_dict()

    async def _job_route(
        self, request: Request, writer: asyncio.StreamWriter, rest: list
    ):
        job_id, *tail = rest
        job = self.store.get_job(job_id)
        if job is None:
            raise _Reject(404, "unknown_job", f"no job {job_id!r}")
        if tail == []:
            detail = request.query.get("detail", ["1"])[0] != "0"
            return 200, JobSnapshot.from_job(job, detail=detail).to_dict()
        if tail == ["results"]:
            return 200, JobResults.from_job(job).to_dict()
        if tail != ["events"]:
            raise _Reject(
                404, "not_found", f"no job route {'/'.join(tail)!r}"
            )
        writer.write(render_stream_head(
            extra_headers=(("Server", SERVER_NAME),)
        ))
        await writer.drain()
        async for event in job.events():
            writer.write(_json_body(event))
            await writer.drain()
        return None

    def _artifact(self, spec_hash: str) -> dict:
        cache = self.store.cache
        artifact = (
            cache.read_artifact(spec_hash) if cache is not None else None
        )
        if artifact is None:
            raise _Reject(404, "unknown_artifact", (
                "result cache disabled" if cache is None
                else f"no artifact for {spec_hash!r}"
            ))
        return artifact

    # -- lease endpoints -------------------------------------------------------

    _LEASE_ACTIONS = {
        "heartbeat": HeartbeatRequest,
        "results": ResultPush,
        "release": LeaseRelease,
    }

    def _lease_route(self, request: Request, rest: list):
        if not rest:
            return self._grant(self._parse_body(request, LeaseRequest))
        if len(rest) != 2 or rest[1] not in self._LEASE_ACTIONS:
            raise _Reject(
                404, "not_found", f"no lease route {request.path!r}"
            )
        lease_id, action = rest
        body = self._parse_body(request, self._LEASE_ACTIONS[action])
        try:
            if action == "heartbeat":
                lease = self.store.heartbeat(lease_id, body.token)
                reply = HeartbeatAck(
                    lease_id=lease.lease_id,
                    ttl_s=lease.ttl_s,
                    expires_in_s=max(0.0, lease.deadline - time.monotonic()),
                    cells_outstanding=len(lease.entries),
                )
            elif action == "results":
                reply = ResultAck(**self.store.push_results(
                    lease_id, body.token, body.outcomes,
                    worker_id=body.worker_id,
                ))
            else:
                reply = ReleaseAck(**self.store.release_cells(
                    lease_id, body.token,
                    spec_hashes=body.spec_hashes or None,
                ))
        except UnknownLeaseError as exc:
            raise _Reject(404, "unknown_lease", str(exc)) from None
        return 200, reply.to_dict()

    def _grant(self, ask: LeaseRequest):
        lease = self.store.grant_lease(ask.worker_id, ask.max_cells)
        if lease is None:
            return 200, LeaseGrant(
                ttl_s=self.store.lease_ttl_s, retry_after_s=IDLE_RETRY_S,
            ).to_dict()
        return 201, LeaseGrant(
            lease_id=lease.lease_id,
            token=lease.token,
            ttl_s=lease.ttl_s,
            cells=tuple(
                LeaseCell(
                    spec=entry.spec,
                    spec_hash=entry.spec_hash,
                    tenant=entry.tenant,
                    attempt=entry.worker_attempts,
                )
                for entry in lease.entries.values()
            ),
        ).to_dict()


async def serve_forever(
    store: JobStore,
    host: str = "127.0.0.1",
    port: int = 8731,
    ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Start the store and server, then run until cancelled (CLI body)."""
    await store.start()
    server = SweepServer(store, host, port)
    bound_port = await server.start()
    if ready is not None:
        ready(bound_port)
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()
        await store.close()

"""Durable head journal: an append-only JSONL write-ahead log.

The :class:`~repro.serve.scheduler.JobStore` keeps its scheduling state
(tenant queues, in-flight dedup, leases) in memory; this journal is what
makes that state survive a head crash.  Every state transition that must
outlive the process appends one JSON record:

``{"rec": "job", ...}``
    A submission: job id, tenant, creation time, and the full spec list.
``{"rec": "resolve", ...}``
    A terminal fold for one distinct ``spec_hash``: ``ok`` plus the
    ``(job, index, origin)`` cells it satisfied, the structured error
    for failures, and a ``remote`` flag for worker-pushed outcomes.
    Successful stats are *not* journaled — they live in the
    content-addressed result cache; recovery re-reads them by hash.
``{"rec": "lease", ...}``
    A remote worker's grant (the head's own pool journals none): lease
    id, token, worker id, TTL, and the leased
    ``spec_hash -> attempt`` map.  Journaling the token is what lets a
    restarted head accept late pushes from pre-restart workers.
``{"rec": "lease_closed", ...}`` / ``{"rec": "release", ...}``
    Lease completion/reap, and a graceful give-back of unstarted cells
    (which refunds the retry attempt the grant charged).
``{"rec": "totals", ...}``
    Written by compaction: the counter contribution of every record the
    compaction dropped, so ``/stats`` totals stay cumulative across
    restarts even after fully-resolved jobs leave the journal.

Durability is batched: every append is flushed to the OS immediately
(a ``kill -9`` of the head loses nothing) and ``fsync``\\ ed every
``fsync_every`` records (bounding what a machine crash can lose without
paying an fsync per cell).  Loading tolerates corruption: the file is
truncated at the first torn or unparseable line with a warning — a
crash mid-append can never make the head unbootable.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import IO, Optional

#: Journal file name, created under the result-cache root so a head, its
#: journal, and its artifacts share one durable directory.
JOURNAL_NAME = "journal.jsonl"

#: fsync once per this many appended records (flush-to-OS is per append).
DEFAULT_FSYNC_EVERY = 32


class Journal:
    """Append-only JSONL log with batched fsync and torn-tail tolerance."""

    def __init__(self, path: str, fsync_every: int = DEFAULT_FSYNC_EVERY):
        self.path = path
        self.fsync_every = max(1, fsync_every)
        self._handle: Optional[IO[bytes]] = None
        self._unsynced = 0

    # -- loading ---------------------------------------------------------------

    def load(self) -> list[dict]:
        """Read every record, truncating a torn tail in place.

        Scans the file line by line; the first line that fails to parse
        as a JSON object marks the torn tail — the file is truncated to
        just before it (with a warning) and everything earlier is
        returned.  A missing file is an empty journal.  Re-opens the
        append handle afterwards, so ``load()`` is safe to call again
        (recovery replays are idempotent).
        """
        self.close()
        records: list[dict] = []
        good_bytes = 0
        try:
            with open(self.path, "rb") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        good_bytes += len(line)
                        continue
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        record = None
                    if not isinstance(record, dict):
                        break  # torn/corrupt: drop this line and the rest
                    if not line.endswith(b"\n"):
                        break  # unterminated final line: a torn append
                    records.append(record)
                    good_bytes += len(line)
                else:
                    good_bytes = None  # clean file: no truncation needed
        except FileNotFoundError:
            good_bytes = None
        if good_bytes is not None:
            warnings.warn(
                f"journal {self.path}: torn or corrupt tail; truncating "
                f"to {good_bytes} byte(s) ({len(records)} intact record(s))",
                RuntimeWarning,
                stacklevel=2,
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
        self._open_for_append()
        return records

    # -- appending -------------------------------------------------------------

    def _open_for_append(self) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "ab")
        self._unsynced = 0

    def append(self, *records: dict) -> None:
        """Append records (one flush for the batch, fsync when due)."""
        if not records:
            return
        if self._handle is None:
            self._open_for_append()
        payload = b"".join(
            json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
            for record in records
        )
        self._handle.write(payload)
        self._handle.flush()  # survive a process kill; fsync is batched
        self._unsynced += len(records)
        if self._unsynced >= self.fsync_every:
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def flush(self) -> None:
        """Force any batched-but-unsynced records to stable storage."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._unsynced:
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    # -- compaction ------------------------------------------------------------

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the journal's contents (compaction).

        Writes the new records to a temp file in the same directory,
        fsyncs it, and ``os.replace``\\ s it over the journal, so a crash
        mid-compaction leaves either the old or the new journal — never
        a torn mix.
        """
        self.close()
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=JOURNAL_NAME + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                for record in records:
                    handle.write(
                        json.dumps(record, separators=(",", ":"))
                        .encode("utf-8") + b"\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._open_for_append()

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self.flush()
        finally:
            self._handle.close()
            self._handle = None

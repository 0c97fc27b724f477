"""Deterministic fault injection for the serve layer (the chaos harness).

Crash-safety claims are only as good as the crashes they were tested
against, so this module makes serve-layer faults *reproducible*: every
injected fault — a dropped RPC, a lost reply, a duplicated request, a
heartbeat blackout, a head killed mid-sweep — is drawn from a
:func:`repro.sim.rng.make_rng` stream seeded by a
:class:`ChaosSchedule`, so a failing schedule replays exactly.

Three pieces:

* :class:`ChaosSchedule` — a frozen spec of fault probabilities and
  windows plus the seed that drives them.  Carried by value into tests;
  two runs with the same schedule inject the same faults in the same
  order.
* :class:`ChaosClient` — a :class:`~repro.serve.client.ServeClient`
  whose transport misbehaves on schedule.  Inject it into a
  :class:`~repro.serve.worker.WorkerNode` (``client=``) to exercise the
  worker's backoff, buffering, and release paths.  Faults raise
  :class:`~repro.serve.client.ServeConnectionError` with a
  ``ConnectionResetError`` cause, so they classify as *transient*
  exactly like real resets.  ``drop_reply`` is the nasty one: the
  request **executes head-side** but the caller sees a failure, so a
  retrying worker produces duplicate pushes — which the head must fold
  at most once.
* :class:`RestartableHead` — the CLI's own head lifecycle
  (:func:`~repro.serve.server.serve_forever`) on a background
  event-loop thread that can be killed abruptly (no compaction, no
  farewell — in-memory state simply vanishes, exactly like ``kill -9``)
  and restarted on the *same* cache dir and port, so journal recovery is
  exercised against live clients.  Set ``kill_after_folds`` to crash
  deterministically at the N-th result fold (a cell boundary).

None of this is imported by production paths; it lives in the package
(not in ``tests/``) so external users can chaos-test their own
deployments.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.scheduler import JobStore
from repro.serve.server import serve_forever
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class ChaosSchedule:
    """A reproducible serve-layer fault plan.

    Probabilities are per-RPC, drawn in a fixed order from one seeded
    stream, so the fault sequence is a pure function of (seed, RPC
    order).  ``heartbeat_blackout=(first, count)`` drops that window of
    heartbeat calls outright, regardless of probability draws — the
    deterministic way to force a lease past its TTL.
    """

    seed: int
    drop_rpc_p: float = 0.0        # connection dies before the request sends
    drop_reply_p: float = 0.0      # request executes; the reply is lost
    duplicate_rpc_p: float = 0.0   # request is sent (and executed) twice
    delay_p: float = 0.0           # request is delayed by ``delay_s``
    delay_s: float = 0.05
    heartbeat_blackout: Optional[tuple[int, int]] = None
    #: Crash the :class:`RestartableHead` right after its N-th result
    #: fold (consumed by the head, not the client).
    kill_head_after_folds: Optional[int] = None

    def rng(self, stream: str = "chaos:rpc"):
        return make_rng(self.seed, stream)


class ChaosClient(ServeClient):
    """A ServeClient whose transport fails on a seeded schedule.

    Only ``_request_once`` is overridden: every fault is visible to the
    caller exactly as a real transport fault would be, so the retry,
    grace, and buffering machinery above it is what gets tested.
    Thread-safe — worker heartbeat/push threads share one draw stream
    under a lock (the draw *order* then depends on thread interleaving,
    but each run still only injects schedule-distributed faults, and
    the blackout window is indexed by heartbeat count, which is
    deterministic per batch).
    """

    def __init__(self, schedule: ChaosSchedule, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = schedule
        self._chaos_rng = schedule.rng()
        self._chaos_lock = threading.Lock()
        self._heartbeat_calls = 0
        #: How many of each fault actually fired (test assertions).
        self.injected = {
            "dropped": 0,
            "replies_dropped": 0,
            "duplicated": 0,
            "delayed": 0,
            "blackouts": 0,
        }

    def _fault(self, path: str, why: str) -> ServeConnectionError:
        exc = ServeConnectionError(f"chaos: {why} ({path})")
        exc.__cause__ = ConnectionResetError(why)  # classify as transient
        return exc

    def _plan(self, path: str) -> dict:
        s = self.schedule
        with self._chaos_lock:
            blackout = False
            if path.endswith("/heartbeat") and s.heartbeat_blackout:
                beat = self._heartbeat_calls
                self._heartbeat_calls += 1
                first, count = s.heartbeat_blackout
                blackout = first <= beat < first + count
            draw = self._chaos_rng.random(4)
            plan = {
                "blackout": blackout,
                "delay": bool(draw[0] < s.delay_p),
                "drop": bool(draw[1] < s.drop_rpc_p),
                "duplicate": bool(draw[2] < s.duplicate_rpc_p),
                "drop_reply": bool(draw[3] < s.drop_reply_p),
            }
        return plan

    def _request_once(self, method, path, payload=None):
        plan = self._plan(path)
        if plan["blackout"]:
            self.injected["blackouts"] += 1
            raise self._fault(path, "heartbeat blackout")
        if plan["delay"]:
            self.injected["delayed"] += 1
            time.sleep(self.schedule.delay_s)
        if plan["drop"]:
            self.injected["dropped"] += 1
            raise self._fault(path, "request dropped before send")
        result = super()._request_once(method, path, payload)
        if plan["duplicate"]:
            self.injected["duplicated"] += 1
            try:
                result = super()._request_once(method, path, payload)
            except ServeConnectionError:
                pass  # the replay was lost; the first reply stands
        if plan["drop_reply"]:
            self.injected["replies_dropped"] += 1
            raise self._fault(path, "reply dropped after execution")
        return result


class RestartableHead:
    """A live head that can be killed abruptly and restarted in place.

    It runs :func:`~repro.serve.server.serve_forever` on a background
    event-loop thread.  :meth:`kill` cancels that task: the server and
    store close without compaction or any farewell writes, so to the
    journal on ``cache_dir`` it is a crash.  :meth:`restart` boots a
    fresh store on the same cache dir and re-binds the *same* port, so
    clients mid-backoff reconnect to the recovered head transparently.
    Without ``cache_dir`` the store takes its cache settings from
    ``store_kwargs``.
    """

    def __init__(self, cache_dir=None, **store_kwargs):
        self.store_kwargs = dict(store_kwargs)
        self.store_kwargs.setdefault("workers", 0)
        if cache_dir is not None:
            self.store_kwargs["cache_dir"] = str(cache_dir)
        self.port = 0
        self.store: Optional[JobStore] = None
        self.restarts = 0
        #: When set, the head crashes right after this many result
        #: folds (consumed by the next :meth:`start`).
        self.kill_after_folds: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop = None
        self._task: Optional[asyncio.Task] = None
        self._killed = False
        self._ready: Optional[threading.Event] = None
        self._failure: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def client(self, tenant: str = "default", **kwargs) -> ServeClient:
        kwargs.setdefault("timeout_s", 60.0)
        return ServeClient(port=self.port, tenant=tenant, **kwargs)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RestartableHead":
        self._ready = threading.Event()
        self._failure = None
        self._thread = threading.Thread(
            target=self._thread_main, name="chaos-head", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("chaos head never came up")
        if self._failure is not None:
            raise self._failure
        return self

    def kill(self) -> None:
        """Abrupt stop: in-memory jobs, queues, and leases vanish."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._cancel)
            except RuntimeError:
                pass  # loop already gone (a self-kill fired first)
        self.wait_down()

    stop = kill  # fixture-teardown alias

    def wait_down(self, timeout_s: float = 30.0) -> None:
        """Block until the head's thread has exited (post self-kill)."""
        if self._thread is None:
            return
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            raise AssertionError("chaos head failed to stop")

    def restart(self) -> "RestartableHead":
        """Kill (if still up) and boot again on the same cache dir/port."""
        self.kill()
        self.restarts += 1
        return self.start()

    # -- server thread ---------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except asyncio.CancelledError:
            pass  # killed: serve_forever closed the server and the store
        except Exception as exc:  # surface boot failures to the caller
            self._failure = exc
            if self._ready is not None:
                self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._killed = False
        self.store = JobStore(**self.store_kwargs)
        kill_after = self.kill_after_folds
        self.kill_after_folds = None  # consumed; re-arm per start if needed
        if kill_after is not None:
            self._arm_fold_crash(self.store, kill_after)
        await serve_forever(self.store, port=self.port, ready=self._up)

    def _up(self, port: int) -> None:
        self.port = port
        self._ready.set()

    def _cancel(self) -> None:
        """Cancel the serving task (on the loop thread).  Only once: a
        second cancel would cut serve_forever's cleanup short."""
        if not self._killed:
            self._killed = True
            self._task.cancel()

    def _arm_fold_crash(self, store: JobStore, folds: int) -> None:
        """Crash this head right after its ``folds``-th result fold.

        The fold (and its journal append) completes first, so the crash
        lands exactly on a cell boundary — the sharpest spot for
        exactly-once accounting bugs.
        """
        original = store._resolve
        state = {"folds": 0}

        def wrapped(*args, **kwargs):
            original(*args, **kwargs)
            state["folds"] += 1
            if state["folds"] == folds:
                self._cancel()  # we are on the loop thread here

        store._resolve = wrapped

"""Always-on serving daemon: resident workers over shared-memory rings.

:class:`ServingDaemon` is the worker-side execution path. Instead of
pickling rows and results per call, it

- holds the picklable :class:`~repro.serving.sharding.ScoringSpec`
  *resident* in each long-lived worker process (the network is rebuilt
  once, its compiled plan cached for the worker's lifetime),
- moves rows and results through per-worker
  :class:`~repro.serving.shm_ring.ShmRing` shared-memory ring buffers —
  raw float64 bytes with slot framing and sequence numbers, no pickling
  on the hot path, explicit backpressure when a ring is full — and
- runs an **admission queue with micro-batching**: concurrent small
  requests are coalesced into one fused ``score_batch``-equivalent call
  per worker dispatch, amortizing the per-call fixed costs (plan lookup,
  softmax/routing setup, Python dispatch) that dominate small batches.

Failure taxonomy (shared by every executor, see
:mod:`repro.serving.errors`):

- **Infrastructure failures** — shared memory unavailable, a worker
  process dying — surface as :class:`DaemonUnavailable`. The pipeline
  rescores the affected batch single-process and never reports them to
  the circuit breaker. Dead workers are detected and respawned (counter
  ``serve.daemon.respawns``); only a daemon that cannot be (re)started
  at all stays down.
- **Model faults** raised while scoring inside a worker are pickled
  back and re-raised in the caller with their original type, so the
  pipeline's breaker/fallback guardrails treat them exactly like
  single-process faults.

Telemetry (``serve.daemon.*`` through :mod:`repro.obs`): request/row/
dispatch/fault/respawn/fallback counters, a ``serve.daemon.request``
latency timer, and p50/p95/p99 latency SLO gauges
(``serve.daemon.latency_p50_ms`` etc.) refreshed from a bounded window
of completed-request latencies.

Lifecycle: ``start()`` / ``close()`` (or a ``with`` block). ``close()``
is idempotent, joins workers (escalating to terminate/kill), unlinks
every shared-memory segment, and fails any in-flight requests; a
pid-guarded finalizer backstops segment cleanup if a daemon is dropped
without ``close()``.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.obs import ensure_telemetry
from repro.serving.errors import ExecutorUnavailable
from repro.serving.shm_ring import (
    KIND_DATA,
    KIND_ERROR,
    KIND_RESULT,
    KIND_SHUTDOWN,
    RingClosed,
    RingEmpty,
    ShmRing,
)

__all__ = ["DaemonUnavailable", "ServingDaemon"]

#: Request frame header: dispatch id, n_rows, n_cols (payload = float64 rows).
_REQ_HEADER = struct.Struct("<QII")
#: Result frame header: dispatch id, n_rows (payload = f8 scores + i8 routing).
_RES_HEADER = struct.Struct("<QI")

#: How long a collector waits on the response ring before polling worker
#: liveness. Short enough to catch crashes promptly, long enough to stay
#: off the CPU while idle.
_POLL_SECONDS = 0.05

#: Window of completed-request latencies feeding the SLO gauges.
_SLO_WINDOW = 1024


class DaemonUnavailable(ExecutorUnavailable):
    """The daemon cannot serve: shared memory missing, workers dead, or
    the daemon closed. An infrastructure signal — callers fall back to
    single-process scoring and keep the circuit breaker out of it."""


class _Request:
    """One submitted batch: rows in, completion event + results out."""

    __slots__ = ("X", "event", "scores", "routing", "error",
                 "t_submit", "t_done")

    def __init__(self, X: np.ndarray):
        self.X = X
        self.event = threading.Event()
        self.scores: Optional[np.ndarray] = None
        self.routing: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.t_submit = time.perf_counter()
        self.t_done: Optional[float] = None

    def finish(self, scores=None, routing=None, error=None) -> None:
        self.scores = scores
        self.routing = routing
        self.error = error
        self.t_done = time.perf_counter()
        self.event.set()

    def result(self, timeout: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        if not self.event.wait(timeout):
            raise TimeoutError("daemon request did not complete in time")
        if self.error is not None:
            raise self.error
        return self.scores, self.routing

    @property
    def latency(self) -> float:
        return (self.t_done or time.perf_counter()) - self.t_submit


class _Dispatch:
    """One fused worker call: the coalesced requests and their row splits."""

    __slots__ = ("dispatch_id", "requests", "splits", "n_rows", "t_sent")

    def __init__(self, dispatch_id: int, requests: List[_Request]):
        self.dispatch_id = dispatch_id
        self.requests = requests
        lengths = [len(r.X) for r in requests]
        self.splits = np.cumsum(lengths)[:-1]
        self.n_rows = int(sum(lengths))
        self.t_sent = time.perf_counter()


class _WorkerSlot:
    """One worker process plus its two rings and in-flight dispatches."""

    __slots__ = ("index", "process", "req_ring", "resp_ring", "inflight",
                 "busy", "updating", "generation")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.req_ring: Optional[ShmRing] = None
        self.resp_ring: Optional[ShmRing] = None
        self.inflight: Deque[_Dispatch] = deque()
        self.busy = False
        #: True while ``update_spec`` is swapping this slot's worker; the
        #: collector parks instead of exiting and crash handling defers.
        self.updating = False
        #: Bumped by each completed spec update; lets the collector tell a
        #: deliberate ring replacement from a shutdown race.
        self.generation = 0


def _daemon_worker(spec, req_name: str, resp_name: str, capacity: int) -> None:
    """Worker main loop: read row frames, score, write result frames.

    Module-level so both fork and spawn start methods can target it. The
    spec travels once through the process-spawn pickle; every batch after
    that moves through shared memory only. Exits when the request ring
    closes, a shutdown frame arrives, or the parent process dies.
    """
    import multiprocessing as mp

    req = ShmRing.attach(req_name, capacity)
    resp = ShmRing.attach(resp_name, capacity)
    network = spec.build_network()
    parent = mp.parent_process()
    try:
        while True:
            try:
                kind, payload = req.read(timeout=_POLL_SECONDS * 5)
            except RingEmpty:
                if parent is not None and not parent.is_alive():
                    return  # orphaned: parent died without closing
                continue
            except RingClosed:
                return
            if kind == KIND_SHUTDOWN:
                return
            dispatch_id, n_rows, n_cols = _REQ_HEADER.unpack_from(payload)
            X = np.frombuffer(
                payload, dtype=np.float64, count=n_rows * n_cols,
                offset=_REQ_HEADER.size,
            ).reshape(n_rows, n_cols)
            try:
                scores, routing = spec.score(network, X)
                out = (
                    _RES_HEADER.pack(dispatch_id, n_rows)
                    + np.ascontiguousarray(scores, dtype=np.float64).tobytes()
                    + np.ascontiguousarray(routing, dtype=np.int64).tobytes()
                )
                resp.write(out, kind=KIND_RESULT)
            except Exception as exc:  # model fault: ship it back typed
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    blob = pickle.dumps(RuntimeError(repr(exc)))
                resp.write(_RES_HEADER.pack(dispatch_id, 0) + blob,
                           kind=KIND_ERROR)
    except RingClosed:
        return
    finally:
        req.release()
        resp.release()


class ServingDaemon:
    """Long-lived scoring service over a shared-memory worker pool.

    Parameters
    ----------
    spec:
        The :class:`~repro.serving.sharding.ScoringSpec` each worker
        holds resident (build one with
        :func:`~repro.serving.sharding.build_scoring_spec`).
    n_workers:
        Worker processes. On one-CPU hosts one worker is usually right;
        the win comes from residency and micro-batching, not fan-out.
    ring_bytes:
        Capacity of each ring buffer. Must fit one maximally coalesced
        frame (``max_batch_rows`` rows); validated at :meth:`start`.
    max_batch_rows:
        Micro-batching ceiling: the dispatcher coalesces queued requests
        until the fused batch would exceed this many rows. A single
        larger request still dispatches alone.
    start_method:
        Multiprocessing start method (``None`` prefers ``"fork"``).
    telemetry:
        Optional :class:`~repro.obs.TelemetryRegistry` for the
        ``serve.daemon.*`` series. ``None`` = no-op.
    """

    def __init__(
        self,
        spec,
        n_workers: int = 1,
        ring_bytes: int = 8 << 20,
        max_batch_rows: int = 8192,
        start_method: Optional[str] = None,
        telemetry=None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        self.spec = spec
        self.n_workers = int(n_workers)
        self.ring_bytes = int(ring_bytes)
        self.max_batch_rows = int(max_batch_rows)
        self.telemetry = ensure_telemetry(telemetry)
        self.start_method = start_method
        self._n_cols = int(spec.layers[0][1].shape[0])
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._pending: Deque[_Request] = deque()
        self._slots: List[_WorkerSlot] = []
        self._threads: List[threading.Thread] = []
        self._next_dispatch = 0
        self._started = False
        self._closing = False
        self._latency_window: Deque[float] = deque(maxlen=_SLO_WINDOW)

    # -- lifecycle ------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._started and not self._closing

    def start(self) -> "ServingDaemon":
        """Create rings and workers; raises :class:`DaemonUnavailable`."""
        if self._started:
            return self
        max_frame = _REQ_HEADER.size + self.max_batch_rows * self._n_cols * 8
        if self.ring_bytes < max_frame + 64:
            raise DaemonUnavailable(
                f"ring_bytes={self.ring_bytes} cannot hold one coalesced "
                f"frame of {max_frame} bytes (max_batch_rows="
                f"{self.max_batch_rows} x {self._n_cols} features); raise "
                "ring_bytes or lower max_batch_rows"
            )
        try:
            import multiprocessing as mp

            method = self.start_method
            if method is None and "fork" in mp.get_all_start_methods():
                method = "fork"
            self._ctx = mp.get_context(method)
            for index in range(self.n_workers):
                slot = _WorkerSlot(index)
                self._spawn_worker(slot)
                self._slots.append(slot)
        except Exception as exc:
            self._teardown()
            raise DaemonUnavailable(
                f"cannot start serving daemon: {exc}"
            ) from exc
        self._started = True
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="daemon-dispatch", daemon=True
        )
        dispatcher.start()
        self._threads.append(dispatcher)
        for slot in self._slots:
            collector = threading.Thread(
                target=self._collect_loop, args=(slot,),
                name=f"daemon-collect-{slot.index}", daemon=True,
            )
            collector.start()
            self._threads.append(collector)
        return self

    def _spawn_worker(self, slot: _WorkerSlot) -> None:
        """(Re)create one worker and its rings; caller handles errors."""
        slot.req_ring = ShmRing.create(self.ring_bytes)
        slot.resp_ring = ShmRing.create(self.ring_bytes)
        slot.process = self._ctx.Process(
            target=_daemon_worker,
            args=(self.spec, slot.req_ring.name, slot.resp_ring.name,
                  self.ring_bytes),
            name=f"serving-daemon-{slot.index}",
            daemon=True,
        )
        slot.process.start()
        slot.busy = False

    def update_spec(self, new_spec, timeout: float = 60.0) -> None:
        """Hot-swap the resident :class:`ScoringSpec` with zero drops.

        Rolling per-worker replacement: each slot is reserved (the
        dispatcher stops assigning it new work), drained of in-flight
        dispatches, its worker shut down gracefully, and a fresh worker
        spawned holding ``new_spec`` — while queued requests simply wait
        in the admission queue (and, with more than one worker, the
        other slots keep serving). Requests dispatched before a slot's
        swap are scored by the old spec, requests dispatched after by
        the new one; nothing is dropped or reordered within a handle.

        ``self.spec`` is republished first, so a worker that crashes and
        respawns mid-update also comes back on the new spec.

        Raises :class:`DaemonUnavailable` if the daemon is not running
        or a replacement worker cannot be spawned (the daemon is then
        closing and the caller should fall back to single-process
        scoring).
        """
        if not self._started or self._closing:
            raise DaemonUnavailable("daemon is not running")
        n_cols = int(new_spec.layers[0][1].shape[0])
        if n_cols != self._n_cols:
            raise ValueError(
                f"new spec expects {n_cols} features but the daemon was "
                f"started with {self._n_cols}"
            )
        with self._lock:
            self.spec = new_spec
        for slot in self._slots:
            self._replace_worker(slot, timeout)
        self.telemetry.increment("serve.daemon.spec_updates")
        self.telemetry.record_event(
            "serve.daemon.spec_update", n_workers=len(self._slots)
        )

    def _replace_worker(self, slot: _WorkerSlot, timeout: float) -> None:
        """Drain one slot and respawn its worker on the current spec."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._closing and (slot.busy or slot.inflight):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._work_cv.wait(timeout=remaining):
                    raise DaemonUnavailable(
                        f"worker {slot.index} did not drain within {timeout}s"
                    )
            if self._closing:
                raise DaemonUnavailable("daemon closed during spec update")
            slot.busy = True       # reserve: dispatcher skips this slot
            slot.updating = True   # collector parks, crash handling defers
        old_process = slot.process
        old_req, old_resp = slot.req_ring, slot.resp_ring
        try:
            if old_req is not None:
                try:
                    old_req.try_write(b"", kind=KIND_SHUTDOWN)
                except (RingClosed, ValueError):
                    pass
            if old_process is not None:
                old_process.join(timeout=5.0)
                if old_process.is_alive():
                    old_process.terminate()
                    old_process.join(timeout=2.0)
                if old_process.is_alive():
                    old_process.kill()
                    old_process.join(timeout=1.0)
            for ring in (old_req, old_resp):
                if ring is not None:
                    ring.close()
                    ring.release()
            with self._lock:
                slot.req_ring = slot.resp_ring = None
                self._spawn_worker(slot)   # uses the republished self.spec
                slot.generation += 1
        except Exception as exc:
            with self._lock:
                self._closing = True
                slot.updating = False
                self._work_cv.notify_all()
            raise DaemonUnavailable(
                f"cannot respawn worker {slot.index} on the new spec: {exc}"
            ) from exc
        finally:
            with self._lock:
                slot.updating = False
                self._work_cv.notify_all()

    def close(self) -> None:
        """Stop workers, unlink shared memory, fail pending requests."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            pending = list(self._pending)
            self._pending.clear()
            inflight = [d for slot in self._slots for d in slot.inflight]
            self._work_cv.notify_all()
        for dispatch in inflight:
            for request in dispatch.requests:
                request.finish(error=DaemonUnavailable("daemon closed"))
        for request in pending:
            request.finish(error=DaemonUnavailable("daemon closed"))
        for slot in self._slots:
            if slot.req_ring is not None:
                try:
                    slot.req_ring.try_write(b"", kind=KIND_SHUTDOWN)
                except (RingClosed, ValueError):
                    pass
                slot.req_ring.close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        for slot in self._slots:
            process = slot.process
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
        self._teardown()

    def _teardown(self) -> None:
        for slot in self._slots:
            for ring in (slot.req_ring, slot.resp_ring):
                if ring is not None:
                    ring.close()
                    ring.release()
            slot.req_ring = slot.resp_ring = None

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- client side ----------------------------------------------------
    def submit(self, X: np.ndarray) -> _Request:
        """Enqueue one batch; returns a handle with ``result(timeout)``."""
        if not self._started or self._closing:
            raise DaemonUnavailable("daemon is not running")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_cols:
            raise ValueError(
                f"daemon expects (n, {self._n_cols}) batches; got {X.shape}"
            )
        request = _Request(X)
        with self._lock:
            if self._closing:
                raise DaemonUnavailable("daemon is closing")
            self._pending.append(request)
            if self.telemetry.enabled:
                self.telemetry.increment("serve.daemon.requests")
                self.telemetry.increment("serve.daemon.rows", len(X))
                self.telemetry.set_gauge(
                    "serve.daemon.queue_depth", len(self._pending)
                )
            self._work_cv.notify()
        return request

    def score(self, X: np.ndarray,
              timeout: Optional[float] = 60.0) -> Tuple[np.ndarray, np.ndarray]:
        """Synchronous :meth:`submit` + wait; the pipeline's entry point."""
        if len(np.asarray(X)) == 0:
            return (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))
        return self.submit(X).result(timeout)

    # -- dispatcher -----------------------------------------------------
    def _idle_slot(self) -> Optional[_WorkerSlot]:
        for slot in self._slots:
            if not slot.busy:
                return slot
        return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._closing and (
                    not self._pending or self._idle_slot() is None
                ):
                    self._work_cv.wait()
                if self._closing:
                    return
                slot = self._idle_slot()
                requests = [self._pending.popleft()]
                rows = len(requests[0].X)
                while (
                    self._pending
                    and rows + len(self._pending[0].X) <= self.max_batch_rows
                ):
                    request = self._pending.popleft()
                    rows += len(request.X)
                    requests.append(request)
                dispatch = _Dispatch(self._next_dispatch, requests)
                self._next_dispatch += 1
                slot.busy = True
                slot.inflight.append(dispatch)
            self._send(slot, dispatch)

    def _send(self, slot: _WorkerSlot, dispatch: _Dispatch) -> None:
        requests = dispatch.requests
        if len(requests) == 1:
            X = requests[0].X
        else:
            X = np.concatenate([r.X for r in requests])
        payload = _REQ_HEADER.pack(dispatch.dispatch_id, len(X), self._n_cols)
        try:
            slot.req_ring.write(payload + X.tobytes(), kind=KIND_DATA,
                                timeout=30.0)
        except Exception as exc:
            with self._lock:
                if dispatch in slot.inflight:
                    slot.inflight.remove(dispatch)
                slot.busy = False
                self._work_cv.notify_all()
            for request in requests:
                request.finish(error=DaemonUnavailable(
                    f"cannot write to worker ring: {exc}"
                ))
            return
        if self.telemetry.enabled:
            self.telemetry.increment("serve.daemon.dispatches")
            if len(requests) > 1:
                self.telemetry.increment(
                    "serve.daemon.coalesced", len(requests) - 1
                )

    # -- collectors -----------------------------------------------------
    def _collect_loop(self, slot: _WorkerSlot) -> None:
        generation = slot.generation
        while True:
            ring = slot.resp_ring
            if self._closing:
                return
            if ring is None or slot.generation != generation:
                generation = self._await_update(slot, generation)
                if generation is None:
                    return
                continue
            try:
                # Zero-copy result read: the frame is parsed directly
                # from the ring's exported memoryview inside the
                # read_view block; only the final per-request arrays are
                # copied out before the frame slot is recycled.
                with ring.read_view(timeout=_POLL_SECONDS) as (kind, payload):
                    self._complete(slot, kind, payload)
            except RingEmpty:
                if self._closing:
                    return
                process = slot.process
                if (not slot.updating and process is not None
                        and not process.is_alive()):
                    self._handle_crash(slot)
                    if self._closing:
                        return
                continue
            except (RingClosed, ValueError):
                # The ring died under us: either close()/_handle_crash
                # released it (shutdown race, not corruption) or
                # update_spec is replacing this slot's worker. Park for
                # the update; exit on shutdown.
                generation = self._await_update(slot, generation)
                if generation is None:
                    return
                continue

    def _await_update(self, slot: _WorkerSlot, generation: int) -> Optional[int]:
        """Wait out an in-progress spec update on ``slot``.

        Returns the slot's new generation when the update produced a
        fresh ring to collect from, or ``None`` when the collector
        should exit (daemon closing, ring gone, or the ring died without
        a spec update — i.e. an ordinary shutdown race).
        """
        with self._lock:
            while slot.updating and not self._closing:
                self._work_cv.wait()
            if self._closing or slot.resp_ring is None:
                return None
            if slot.generation == generation:
                return None
            return slot.generation

    def _complete(self, slot: _WorkerSlot, kind: int, payload) -> None:
        """Parse one result frame and finish its dispatch's requests.

        ``payload`` is normally a :class:`memoryview` directly into the
        response ring (no intermediate copy — the zero-copy result
        path); only when the frame wraps the physical end of the ring is
        it a copied ``bytes``. Either way the per-request score/routing
        arrays handed to waiters are materialized here, because the ring
        slot is recycled the moment the caller's ``read_view`` exits.
        """
        dispatch_id, n_rows = _RES_HEADER.unpack_from(payload)
        with self._lock:
            dispatch = slot.inflight.popleft() if slot.inflight else None
            slot.busy = False
            self._work_cv.notify_all()
        if dispatch is None or dispatch.dispatch_id != dispatch_id:
            # Protocol desync — should be impossible on an SPSC ring.
            self.telemetry.increment("serve.daemon.desyncs")
            return
        if self.telemetry.enabled:
            self.telemetry.increment(
                "serve.daemon.zero_copy_reads"
                if isinstance(payload, memoryview)
                else "serve.daemon.copied_reads"
            )
        if kind == KIND_ERROR:
            try:
                error = pickle.loads(payload[_RES_HEADER.size:])
            except Exception:
                error = RuntimeError("worker fault (unpicklable exception)")
            self.telemetry.increment("serve.daemon.faults")
            for request in dispatch.requests:
                request.finish(error=error)
            return
        offset = _RES_HEADER.size
        scores = np.frombuffer(payload, dtype=np.float64, count=n_rows,
                               offset=offset)
        routing = np.frombuffer(payload, dtype=np.int64, count=n_rows,
                                offset=offset + n_rows * 8)
        if len(dispatch.requests) == 1:
            parts = [(scores, routing)]
        else:
            parts = list(zip(np.split(scores, dispatch.splits),
                             np.split(routing, dispatch.splits)))
        for request, (s, r) in zip(dispatch.requests, parts):
            # Copy out of the ring-backed buffer before the frame slot
            # is recycled; these arrays are the caller's to keep.
            request.finish(scores=s.copy(), routing=r.copy())
        if self.telemetry.enabled:
            self._record_latencies(dispatch)

    def _record_latencies(self, dispatch: _Dispatch) -> None:
        with self._lock:  # collectors of several workers share the window
            for request in dispatch.requests:
                latency = request.latency
                self.telemetry.observe("serve.daemon.request", latency)
                self._latency_window.append(latency)
            window = np.fromiter(self._latency_window, dtype=np.float64)
        p50, p95, p99 = np.percentile(window, (50, 95, 99)) * 1e3
        self.telemetry.set_gauge("serve.daemon.latency_p50_ms", float(p50))
        self.telemetry.set_gauge("serve.daemon.latency_p95_ms", float(p95))
        self.telemetry.set_gauge("serve.daemon.latency_p99_ms", float(p99))

    # -- crash handling -------------------------------------------------
    def _handle_crash(self, slot: _WorkerSlot) -> None:
        """A worker died: fail its in-flight work, respawn it once."""
        with self._lock:
            if self._closing or slot.updating:
                return  # update_spec owns this slot right now
            failed = list(slot.inflight)
            slot.inflight.clear()
            slot.busy = False
            exitcode = slot.process.exitcode if slot.process else None
            for ring in (slot.req_ring, slot.resp_ring):
                if ring is not None:
                    ring.close()
                    ring.release()
            slot.req_ring = slot.resp_ring = None
            try:
                self._spawn_worker(slot)
                self.telemetry.increment("serve.daemon.respawns")
                self.telemetry.record_event(
                    "serve.daemon.respawn",
                    worker=slot.index,
                    exitcode=exitcode,
                    n_failed_dispatches=len(failed),
                )
            except Exception as exc:
                # Cannot respawn: the whole daemon is unavailable.
                self._closing = True
                self._work_cv.notify_all()
                self.telemetry.record_event(
                    "serve.daemon.dead", worker=slot.index,
                    error=type(exc).__name__,
                )
            self._work_cv.notify_all()
        for dispatch in failed:
            for request in dispatch.requests:
                request.finish(error=DaemonUnavailable(
                    f"worker {slot.index} died (exit {exitcode}) mid-batch"
                ))

    # -- introspection --------------------------------------------------
    def slo_snapshot(self) -> dict:
        """Current latency SLO gauges (ms) plus request/dispatch counts."""
        gauges = self.telemetry.gauges if self.telemetry.enabled else {}
        counters = self.telemetry.counters if self.telemetry.enabled else {}
        return {
            "p50_ms": gauges.get("serve.daemon.latency_p50_ms", 0.0),
            "p95_ms": gauges.get("serve.daemon.latency_p95_ms", 0.0),
            "p99_ms": gauges.get("serve.daemon.latency_p99_ms", 0.0),
            "requests": counters.get("serve.daemon.requests", 0.0),
            "dispatches": counters.get("serve.daemon.dispatches", 0.0),
            "coalesced": counters.get("serve.daemon.coalesced", 0.0),
            "respawns": counters.get("serve.daemon.respawns", 0.0),
        }

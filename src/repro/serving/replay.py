"""Open-loop traffic replay: latency under load, not peak throughput.

A peak-rows/sec microbench answers "how fast can the scorer go when fed
perfectly"; production asks "what latency do requests see at *this*
arrival rate" — the millions-of-users number. This module replays a
seeded open-loop workload (Poisson arrivals, mixed batch sizes) against
either a synchronous scorer or a :class:`~repro.serving.daemon.ServingDaemon`
and reports the latency distribution **measured against the scheduled
arrival time**, so queueing delay counts: an open-loop client does not
slow down because the server is behind (closed-loop benches hide
saturation by self-throttling — the coordinated-omission trap).

Determinism: the schedule (arrival offsets, batch sizes, row indices
into the caller's row pool) is fully derived from the spec's seed, so
two modes replay byte-identical traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "ReplaySpec",
    "ReplayRequest",
    "ReplayResult",
    "build_schedule",
    "replay_sync",
    "replay_daemon",
]


@dataclass(frozen=True)
class ReplaySpec:
    """One replay workload: an arrival process over a batch-size mix.

    ``rate_rps`` is the *offered* request rate (Poisson, so bursts
    happen); ``batch_mix`` maps batch sizes (rows) to sampling weights.
    A rate above the scorer's capacity is legitimate — that is exactly
    the regime where micro-batching pays and tail latency is decided.
    """

    name: str
    rate_rps: float
    n_requests: int
    batch_mix: Tuple[Tuple[int, float], ...] = ((32, 1.0),)
    seed: int = 0

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not self.batch_mix or any(r < 1 or w <= 0 for r, w in self.batch_mix):
            raise ValueError("batch_mix needs (rows >= 1, weight > 0) entries")


@dataclass
class ReplayRequest:
    """One scheduled request: when it arrives and which rows it carries."""

    arrival_s: float
    rows: np.ndarray  # row indices into the replay's row pool


def build_schedule(spec: ReplaySpec, n_pool_rows: int) -> List[ReplayRequest]:
    """Materialize the seeded arrival schedule for a given row pool.

    Inter-arrival gaps are exponential (Poisson process at
    ``spec.rate_rps``); batch sizes are drawn from ``spec.batch_mix``;
    each request's rows are drawn with replacement from the pool so a
    small pool can back an arbitrarily long replay.
    """
    if n_pool_rows < 1:
        raise ValueError("need at least one pool row")
    rng = np.random.default_rng(spec.seed)
    gaps = rng.exponential(1.0 / spec.rate_rps, size=spec.n_requests)
    arrivals = np.cumsum(gaps)
    sizes = np.array([r for r, _ in spec.batch_mix], dtype=np.int64)
    weights = np.array([w for _, w in spec.batch_mix], dtype=np.float64)
    picks = rng.choice(len(sizes), size=spec.n_requests, p=weights / weights.sum())
    return [
        ReplayRequest(
            arrival_s=float(arrivals[i]),
            rows=rng.integers(0, n_pool_rows, size=int(sizes[picks[i]])),
        )
        for i in range(spec.n_requests)
    ]


@dataclass
class ReplayResult:
    """Latency-under-load summary for one (workload, mode) replay."""

    workload: str
    mode: str
    n_requests: int
    n_rows: int
    offered_rps: float
    makespan_s: float
    latencies_s: np.ndarray = field(repr=False)

    @property
    def rows_per_sec(self) -> float:
        return self.n_rows / self.makespan_s if self.makespan_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies_s, q) * 1e3)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "n_requests": self.n_requests,
            "rows": self.n_rows,
            "offered_rps": round(self.offered_rps, 1),
            "achieved_rps": round(self.n_requests / self.makespan_s, 1)
            if self.makespan_s > 0 else 0.0,
            "rows_per_sec": round(self.rows_per_sec, 1),
            "makespan_s": round(self.makespan_s, 4),
            "latency_p50_ms": round(self.percentile_ms(50), 3),
            "latency_p95_ms": round(self.percentile_ms(95), 3),
            "latency_p99_ms": round(self.percentile_ms(99), 3),
            "latency_max_ms": round(float(self.latencies_s.max() * 1e3), 3),
        }

    def summary(self) -> str:
        d = self.to_dict()
        return (
            f"{self.workload}/{self.mode}: {self.n_requests} req "
            f"({self.n_rows} rows) in {d['makespan_s']}s — "
            f"p50={d['latency_p50_ms']}ms p95={d['latency_p95_ms']}ms "
            f"p99={d['latency_p99_ms']}ms, {d['rows_per_sec']:,.0f} rows/s"
        )


def _pace(t0: float, arrival_s: float) -> None:
    """Sleep until the scheduled arrival (no-op when already behind)."""
    remaining = (t0 + arrival_s) - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)


def replay_sync(
    spec: ReplaySpec,
    schedule: Sequence[ReplayRequest],
    X_pool: np.ndarray,
    score: Callable[[np.ndarray], object],
) -> ReplayResult:
    """Replay against a synchronous scorer (the single-process baseline).

    Requests are served in arrival order, one at a time — exactly what a
    call-per-batch ``score_batch`` deployment does. Latency for each
    request = completion time − *scheduled* arrival, so time spent
    waiting behind earlier requests is charged to the server.
    """
    latencies = np.empty(len(schedule), dtype=np.float64)
    n_rows = 0
    t0 = time.perf_counter()
    for i, request in enumerate(schedule):
        _pace(t0, request.arrival_s)
        score(X_pool[request.rows])
        latencies[i] = (time.perf_counter() - t0) - request.arrival_s
        n_rows += len(request.rows)
    makespan = time.perf_counter() - t0
    return ReplayResult(
        workload=spec.name, mode="single", n_requests=len(schedule),
        n_rows=n_rows, offered_rps=spec.rate_rps, makespan_s=makespan,
        latencies_s=latencies,
    )


def replay_daemon(
    spec: ReplaySpec,
    schedule: Sequence[ReplayRequest],
    X_pool: np.ndarray,
    daemon,
    timeout: float = 120.0,
) -> ReplayResult:
    """Replay against a :class:`ServingDaemon` via async ``submit``.

    The submitting loop never blocks on results, so arrivals keep their
    schedule even when the daemon is saturated — queued requests pile
    into the admission queue where micro-batching coalesces them.
    Completion timestamps are recorded by the daemon's collector thread
    (each handle's ``t_done``), keeping the measurement free of
    client-thread scheduling noise.
    """
    handles = []
    n_rows = 0
    t0 = time.perf_counter()
    for request in schedule:
        _pace(t0, request.arrival_s)
        handles.append((request, daemon.submit(X_pool[request.rows])))
        n_rows += len(request.rows)
    latencies = np.empty(len(schedule), dtype=np.float64)
    t_last = t0
    for i, (request, handle) in enumerate(handles):
        handle.result(timeout)
        latencies[i] = (handle.t_done - t0) - request.arrival_s
        t_last = max(t_last, handle.t_done)
    return ReplayResult(
        workload=spec.name, mode="daemon", n_requests=len(schedule),
        n_rows=n_rows, offered_rps=spec.rate_rps, makespan_s=t_last - t0,
        latencies_s=latencies,
    )

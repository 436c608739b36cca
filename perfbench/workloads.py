"""The benchmark's workloads: TargAD fit and ScoringPipeline serving.

Both workloads fit TargAD (Algorithm 1) on the same UNSW-NB15 split
several times, so ``fit_s``, ``test_auprc`` and ``route_macro_f1`` are
measured on each, then load the first fitted model the way a deployment
does and serve it between the later fits. The split
is fixed (``random_state=0``): it decides the number of clusters and so
the amount of training work, and a fixed split makes the quality metrics
exact regression checks. ``--seed`` generates the rows of the batches the
serving workloads send and the cells made non-finite; the arrival trace
is fixed (see ``TRACE_SEED``).

Timings are best-of-repeats. On a shared host other tenants only ever
add time, in bursts and phases of up to ~1.4x (2x and more on a busy
host), so every unit of work that a run times is one that repeats within
the run, and each unit is charged its fastest time:

- a fit is cut, at ``fit``'s public ``epoch_callback``, into segments
  that do the same work in every fit (start to the end of classifier
  epoch 0, each later epoch, the calibration tail); ``fit_s`` is the sum
  of each segment's fastest time over the run's fits;
- a request's service time is the fastest ``process()`` call on
  the same batch in the run, and open-loop latency is computed by
  replaying a fixed Poisson arrival trace through a single FIFO server
  with those service times (the pipeline serves one batch at a time, in
  one thread, so this is the queue a user's requests would meet).

The raw (wall-clock) figures are kept as notes, so a run also shows how
contended the host was. See README.md for why each workload exists and
what it predicts.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

import numpy as np

import repro.core.candidate_selection as candidate_selection
import repro.core.model as core_model
import repro.serving.pipeline as pipeline
from repro.autodiff.tensor import Tensor
from repro.cluster.kmeans import KMeans
from repro.core.config import TargADConfig
from repro.core.persistence import load_model, save_model
from repro.data.registry import load_dataset
from repro.data.schema import KIND_TARGET
from repro.metrics.classification import classification_report
from repro.metrics.ranking import auprc
from repro.nn.autoencoder import SADAutoencoder
from repro.nn.inference import CompiledInference, plan_cache_stats
from repro.nn.optimizers import Adam
from repro.obs import TelemetryRegistry
from repro.serving.daemon import DaemonUnavailable, ServingDaemon
from repro.serving.drift import DriftMonitor
from repro.serving.executor import FallbackChain
from repro.serving.sharding import build_scoring_spec
from repro.serving.shm_ring import ShmRing

from checks import bits_equal, check_alert_batch, check_scores, expected_for
from tracing import SpanIndex, Tracer

SPLIT = dict(name="unsw_nb15", scale=0.05, random_state=0)
SETUP_REPEATS = 7
#: A run fits once per FIT_EVERY seconds of --seconds (at least MIN_FITS
#: times), serves the first model, and runs one serving chunk after each
#: fit, so that the fits and the serving both sample the whole run. The
#: fit count is fixed for a given --seconds because the fastest time over
#: n fits falls as n grows, and later fits in a process run faster than
#: the first. Serving gets at least MIN_SERVE_SHARE of --seconds; on a
#: host so slow that another fit would end the run past MAX_OVERRUN times
#: --seconds, the run fits fewer times.
FIT_EVERY = 9.0
MIN_FITS = 3
MIN_SERVE_SHARE = 0.4
MAX_OVERRUN = 1.3

#: serve_drift: micro-batch sizes and weights. Small batches set p50 and
#: the 5% of 1,024-row batches set the tail.
DRIFT_MIX = ((64, 0.80), (256, 0.15), (1024, 0.05))
#: Requests/s, about a quarter of process()'s best-case capacity on this
#: mix with drift on at the parent commit (see README.md). Queueing
#: amplifies the host's speed swings in the latency percentiles as the
#: load grows; at a quarter a host up to twice as slow stays below half
#: load.
DRIFT_RATE = 15.0
#: serve_score: 2,048-row batches with about 1% non-finite rows.
SCORE_ROWS = 2048
SCORE_BAD_FRACTION = 0.01
#: About a quarter of process()'s best-case capacity on 2,048-row batches
#: with drift off at the parent commit.
SCORE_RATE = 90.0
#: serve_daemon: 32-row requests, one worker, about half of inline capacity.
DAEMON_ROWS = 32
DAEMON_RATE = 1400.0
DAEMON_MAX_BATCH_ROWS = 8192
#: The arrival trace (times, sizes, which of the distinct batches) is a
#: fixed Poisson draw of ARRIVALS requests; the workload seed generates
#: the batches' rows and non-finite cells.
TRACE_SEED = 0
ARRIVALS = 20000
#: Distinct batches per size. Requests draw from these, so each batch is
#: served many times in a run (its fastest time is its service time) and
#: its reference output is computed once.
DISTINCT = 8
#: Serving runs in rounds that each serve every distinct batch once, in
#: a fresh order; every chunk runs at least MIN_ROUNDS untraced rounds
#: (and, in a traced run, as many traced ones, alternating).
MIN_ROUNDS = 2

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "test_auprc": "ratio",
    "route_macro_f1": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cluster.elbow_s": "s",
    "cluster.kmeans_s": "s",
    "nn.autoencoder.fit_s": "s",
    "nn.autoencoder.fits": "count",
    "core.candidate_selection.self_s": "s",
    "core.losses.classifier_loss_s": "s",
    "autodiff.backward_s": "s",
    "nn.optimizers.adam_step_s": "s",
    "nn.optimizers.steps": "count",
    "autodiff.step_ms": "ms",
    "core.weighting.update_s": "s",
    "nn.train.forward_in_batches_s": "s",
    "core.model.fit_self_s": "s",
    "serving.drift.check_ms_p50": "ms",
    "serving.drift.check_ms_p99": "ms",
    "serving.drift.checks": "count",
    "resilience.sanitize.ms_p50": "ms",
    "resilience.sanitize.quarantined_rows": "count",
    "serving.executor.score_ms_p50": "ms",
    "serving.executor.demotions": "count",
    "core.model.score_batch_ms_p50": "ms",
    "nn.inference.logits_ms_p50": "ms",
    "core.scoring.route_ms_p50": "ms",
    "nn.inference.plan_cache_hit_ratio": "ratio",
    "serving.pipeline.self_ms_p50": "ms",
    "serving.pipeline.busy_frac": "ratio",
    "loadgen.queue_wait_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
}

#: Reported by serve_daemon only, which is not a registered workload.
DAEMON_LAYER_UNITS = {
    "serving.daemon.submit_us_p50": "us",
    "serving.daemon.request_ms_p50": "ms",
    "serving.daemon.request_ms_p99": "ms",
    "serving.daemon.rows_per_dispatch": "rows",
    "serving.daemon.dispatches": "count",
    "serving.daemon.respawns": "count",
    "serving.daemon.faults": "count",
    "serving.daemon.disabled": "count",
    "serving.shm_ring.write_us_p50": "us",
    "serving.shm_ring.read_us_p50": "us",
    "loadgen.late_ms_p99": "ms",
}

#: Layer entry points wrapped by the traced runs: (owner, attribute, span).
FIT_TARGETS = [
    (core_model.TargAD, "fit", "core.model.fit"),
    (candidate_selection.CandidateSelector, "fit", "core.candidate_selection.fit"),
    (candidate_selection, "select_k_elbow", "cluster.elbow"),
    (KMeans, "fit", "cluster.kmeans"),
    (SADAutoencoder, "fit", "nn.autoencoder.fit"),
    (core_model, "classifier_loss", "core.losses.classifier_loss"),
    (Tensor, "backward", "autodiff.backward"),
    (Adam, "step", "nn.optimizers.adam_step"),
    (core_model, "update_weights", "core.weighting.update"),
    (core_model, "forward_in_batches", "nn.train.forward_in_batches"),
]
SERVE_TARGETS = [
    (pipeline.ScoringPipeline, "process", "serving.pipeline.process"),
    (pipeline, "sanitize_batch", "resilience.sanitize"),
    (DriftMonitor, "check", "serving.drift.check"),
    (FallbackChain, "score", "serving.executor.score"),
    (FallbackChain, "_record_demotion", "serving.executor.demotion"),
    (core_model.TargAD, "score_batch", "core.model.score_batch"),
    (CompiledInference, "__call__", "nn.inference.logits"),
    (core_model, "route_from_logits", "core.scoring.route"),
]
DAEMON_TARGETS = [
    (ServingDaemon, "submit", "serving.daemon.submit"),
    (ShmRing, "write", "serving.shm_ring.write"),
    (ShmRing, "read_view", "serving.shm_ring.read", "context"),
]


class Outcome:
    """What one run measured, and every operation it attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
        self.notes: Dict[str, object] = {}
        self.split: Dict[str, dict] = {}
        #: Raw samples, kept in the run record only.
        self.samples: Dict[str, list] = {}
        self.correct = True

    def op(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)


# -- shared pieces ----------------------------------------------------------

def _pct(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if len(values) else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_split():
    params = dict(SPLIT)
    return load_dataset(params.pop("name"), **params)


def _target(kind: np.ndarray) -> np.ndarray:
    return (np.asarray(kind) == KIND_TARGET).astype(np.int64)


def fit_model(split, **fit_kwargs):
    return core_model.TargAD(TargADConfig(random_state=0)).fit(
        split.X_unlabeled, split.X_labeled, split.y_labeled, **fit_kwargs
    )


def timed_fit(split):
    """One fit, cut at the epoch callbacks into segments of identical work.

    Returns ``(model, seconds per segment)``: start of ``fit`` to the end
    of classifier epoch 0 (candidate selection included), then each later
    epoch, then the tail after the last epoch (calibration).
    """
    ticks = [time.perf_counter()]
    model = fit_model(split, epoch_callback=lambda epoch, _: ticks.append(time.perf_counter()))
    ticks.append(time.perf_counter())
    return model, np.diff(ticks)


def evaluate(model, split) -> Dict[str, float]:
    """Eq. 9 AUPRC and tri-class (ED) macro F1 on the test split."""
    scores = model.decision_function(split.X_test)
    routes = model.predict_triclass(split.X_test, strategy="ed")
    report = classification_report(split.test_kind, routes, labels=[0, 1, 2])
    return {
        "test_auprc": float(auprc(_target(split.test_kind), scores)),
        "route_macro_f1": float(report["macro avg"]["f1"]),
        "scores": scores,
    }


class _Fits:
    """The run's fits: segment times, and a check that every refit agrees."""

    def __init__(self, split, outcome: Outcome):
        self.split = split
        self.outcome = outcome
        self.segments: List[np.ndarray] = []
        self.traced_segments: List[np.ndarray] = []
        self.reference = None
        self.model = None

    def run(self, traced: bool = False) -> float:
        """Fit once; returns the fit's wall time."""
        model, segments = timed_fit(self.split)
        result = evaluate(model, self.split)
        problems = []
        if self.reference is None:
            self.reference, self.model = result, model
        elif not bits_equal(result["scores"], self.reference["scores"]):
            problems.append("refit on the same data and seed gave different scores")
        if self.segments and len(segments) != len(self.segments[0]):
            problems.append("refit ran a different number of classifier epochs")
        else:
            (self.traced_segments if traced else self.segments).append(segments)
        self.outcome.op(problems)
        return float(segments.sum())

    @staticmethod
    def best(segments: List[np.ndarray]) -> np.ndarray:
        """Each segment's fastest time over ``segments`` (one row per fit)."""
        return np.min(np.vstack(segments), axis=0)

    def record(self) -> np.ndarray:
        """``fit_s``, the quality metrics and raw notes; returns the best segments."""
        best = self.best(self.segments)
        metrics, notes = self.outcome.metrics, self.outcome.notes
        metrics["fit_s"] = float(best.sum())
        metrics["test_auprc"] = self.reference["test_auprc"]
        metrics["route_macro_f1"] = self.reference["route_macro_f1"]
        notes["fit_wall_s"] = [float(s.sum()) for s in self.segments + self.traced_segments]
        notes["k"] = int(self.model.k_)
        return best


def _best_setup(fn: Callable[[], object], repeats: int,
                discard: Callable[[object], None] = lambda result: None):
    """Run ``fn`` ``repeats`` times; returns (fastest seconds, last result).

    Each earlier result is passed to ``discard`` (untimed) before the next
    set-up, so that only one set-up's memory stays live.
    """
    best, result = float("inf"), None
    for repeat in range(repeats):
        if repeat:
            discard(result)
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def mix_sequence(rng: np.random.Generator, n: int, mix) -> List[int]:
    """``n`` item indices whose batch sizes follow ``mix`` exactly, shuffled.

    ``mix`` is ``((size, weight), ...)``; items ``i * DISTINCT`` to
    ``(i + 1) * DISTINCT - 1`` are the distinct batches of the i-th size.
    Exact counts (largest remainder) keep the offered work the same in
    every run.
    """
    weights = np.array([w for _, w in mix], dtype=np.float64)
    ideal = n * weights / weights.sum()
    counts = np.floor(ideal).astype(int)
    for i in np.argsort(counts - ideal)[: n - counts.sum()]:
        counts[i] += 1
    items = np.concatenate([
        size_index * DISTINCT + rng.integers(DISTINCT, size=count)
        for size_index, count in enumerate(counts)
    ])
    rng.shuffle(items)
    return [int(i) for i in items]


def poisson_schedule(rng: np.random.Generator, rate: float, n: int, mix) -> tuple:
    """Open-loop Poisson arrivals: ``n`` offsets (s) and the item of each.

    Given their number, the arrival times of a Poisson process are
    independent and uniform over the window ``n / rate``.
    """
    offsets = np.sort(rng.uniform(0.0, n / rate, size=n))
    return offsets, mix_sequence(rng, n, mix)


def fifo_queue(arrivals: np.ndarray, service: np.ndarray) -> tuple:
    """Latency and wait of each request at a single FIFO server (Lindley).

    A request starts at the later of its arrival and the previous
    request's finish; its latency runs from its arrival to its finish.
    """
    wait = np.empty(len(arrivals))
    free_at = -np.inf
    for i, (arrival, seconds) in enumerate(zip(arrivals.tolist(), service.tolist())):
        start = arrival if arrival > free_at else free_at
        wait[i] = start - arrival
        free_at = start + seconds
    return wait + service, wait


# -- layers ----------------------------------------------------------------

def _fit_layers(index: SpanIndex, outcome: Outcome, n_fits: int) -> None:
    """Per-fit layer times from the traced fits (every other fit of a traced run)."""
    ae = {"nn.autoencoder.fit"}
    clf = {"core.model.fit"}
    layers = outcome.layers
    per = 1.0 / max(n_fits, 1)
    layers["cluster.elbow_s"] = index.total("cluster.elbow") * per
    layers["cluster.kmeans_s"] = index.total("cluster.kmeans", not_under={"cluster.elbow"}) * per
    layers["nn.autoencoder.fit_s"] = index.total("nn.autoencoder.fit") * per
    layers["nn.autoencoder.fits"] = len(index.spans("nn.autoencoder.fit")) * per
    layers["core.candidate_selection.self_s"] = index.self_total("core.candidate_selection.fit") * per
    loss = index.total("core.losses.classifier_loss") * per
    backward = index.total("autodiff.backward", under=clf, not_under=ae) * per
    step = index.total("nn.optimizers.adam_step", under=clf, not_under=ae) * per
    steps = len(index.spans("nn.optimizers.adam_step", under=clf, not_under=ae)) * per
    layers["core.losses.classifier_loss_s"] = loss
    layers["autodiff.backward_s"] = backward
    layers["nn.optimizers.adam_step_s"] = step
    layers["nn.optimizers.steps"] = steps
    layers["autodiff.step_ms"] = (loss + backward + step) / steps * 1e3 if steps else 0.0
    layers["core.weighting.update_s"] = index.total("core.weighting.update") * per
    layers["nn.train.forward_in_batches_s"] = index.total("nn.train.forward_in_batches") * per
    layers["core.model.fit_self_s"] = index.self_total("core.model.fit") * per


# -- serving workloads ------------------------------------------------------

class _Traffic:
    """Distinct batches drawn from val+test, and their reference outputs."""

    def __init__(self, pool: np.ndarray, sizes, seed: int, bad_fraction: float = 0.0):
        rng = np.random.default_rng(seed)
        self.batches, self.bad = [], []
        for size in sizes:
            for _ in range(DISTINCT):
                X = pool[rng.integers(0, len(pool), size)].copy()
                n_bad = int(rng.binomial(size, bad_fraction)) if bad_fraction else 0
                bad = np.sort(rng.choice(size, n_bad, replace=False)) if n_bad else np.empty(0, np.int64)
                for row in bad:
                    X[row, rng.integers(X.shape[1])] = rng.choice([np.nan, np.inf, -np.inf])
                self.batches.append(X)
                self.bad.append(bad)
        self.rows = [len(X) for X in self.batches]
        self.expected = None

    def compute_expected(self, model, reference) -> None:
        self.expected = [
            expected_for(model, X, bad, reference) for X, bad in zip(self.batches, self.bad)
        ]


def _drift_reference(split) -> np.ndarray:
    """A fixed 2,000-row sample of the unlabeled pool (the monitor keeps it whole)."""
    rng = np.random.default_rng(0)
    idx = rng.choice(len(split.X_unlabeled), size=2000, replace=False)
    return split.X_unlabeled[np.sort(idx)]


def run_serve(seed: int, seconds: float, trace: bool, workdir: str, drift: bool) -> Outcome:
    """``ScoringPipeline.process()`` on the inline executor, open-loop latency.

    The run fits, sets the pipeline up, then alternates serving chunks
    with the remaining fits. Every distinct batch is served once per
    round, back to back; each batch's fastest call is its service time.
    Latency replays the fixed arrival trace through a FIFO server with
    those service times (``fifo_queue``), and ``rows_per_s`` is the
    trace's rows over its summed service time. A traced run alternates
    untraced and traced rounds, and untraced and traced fits.
    """
    outcome = Outcome()
    begin = time.perf_counter()
    split = load_split()
    fits = _Fits(split, outcome)
    fit_wall = fits.run()
    os.makedirs(workdir, exist_ok=True)
    handle, model_path = tempfile.mkstemp(suffix=".npz", dir=workdir)
    os.close(handle)
    save_model(fits.model, model_path)
    pipes = []
    try:
        pool = np.vstack([split.X_val, split.X_test])
        if drift:
            mix, rate, bad_fraction = DRIFT_MIX, DRIFT_RATE, 0.0
        else:
            mix, rate, bad_fraction = ((SCORE_ROWS, 1.0),), SCORE_RATE, SCORE_BAD_FRACTION
        traffic = _Traffic(pool, [size for size, _ in mix], seed, bad_fraction)
        warm = traffic.batches[::DISTINCT]

        def setup():
            setup_split = load_split()
            pipe = pipeline.ScoringPipeline(load_model(model_path), monitor_drift=drift)
            pipes.append(pipe)
            pipe.calibrate(setup_split.X_val, _target(setup_split.val_kind),
                           X_reference=_drift_reference(setup_split) if drift else None)
            for X in warm:
                pipe.process(X)
            return pipe

        def discard(pipe):
            pipes.remove(pipe)
            pipe.close()

        outcome.metrics["setup_s"], pipe = _best_setup(setup, SETUP_REPEATS, discard)
        traffic.compute_expected(pipe.model, _drift_reference(split) if drift else None)
        threshold = float(pipe.threshold_)
        arrivals, sequence = poisson_schedule(np.random.default_rng(TRACE_SEED), rate, ARRIVALS, mix)

        # times[traced][item]: the seconds of every call on that batch.
        tracer = Tracer() if trace else None
        times = {False: defaultdict(list), True: defaultdict(list)}
        n_items = len(traffic.batches)
        order_rng = np.random.default_rng(TRACE_SEED)
        quarantined = 0
        min_rounds = MIN_ROUNDS * (2 if trace else 1)
        cache = Counter()  # plan cache lookups during serving only
        n_fits = max(MIN_FITS, int(seconds // FIT_EVERY))
        min_chunk = MIN_SERVE_SHARE * seconds / n_fits
        rounds = chunk = 0
        while True:
            left = n_fits - chunk
            budget = seconds - (time.perf_counter() - begin) - fit_wall * (left - 1)
            stop = time.perf_counter() + max(budget / left, min_chunk)
            chunk_rounds = 0
            cache.subtract(plan_cache_stats())
            while chunk_rounds < min_rounds or time.perf_counter() < stop:
                traced = tracer is not None and rounds % 2 == 1
                if traced:
                    tracer.install(SERVE_TARGETS)
                for item in order_rng.permutation(n_items).tolist():
                    if traced:
                        tracer.set_request(rounds * n_items + item)
                    start = time.perf_counter()
                    try:
                        out, error = pipe.process(traffic.batches[item]), None
                    except Exception as exc:  # counted as a failed request
                        out, error = None, exc
                    elapsed = time.perf_counter() - start
                    if error is not None:
                        outcome.op([f"process raised {type(error).__name__}"])
                        continue
                    times[traced][item].append(elapsed)
                    problems = check_alert_batch(out, traffic.expected[item], threshold)
                    if pipe.chain.last_executor != "inline":
                        problems.append(f"served by {pipe.chain.last_executor!r}, not inline")
                    quarantined += len(out.quarantined)
                    outcome.op(problems)
                if traced:
                    tracer.uninstall()
                rounds += 1
                chunk_rounds += 1
                if rounds == min_rounds:
                    outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
            cache.update(plan_cache_stats())
            chunk += 1
            if chunk == n_fits:
                break
            if (chunk >= MIN_FITS and time.perf_counter() - begin + fit_wall + min_chunk
                    > MAX_OVERRUN * seconds):
                outcome.notes["stopped_early"] = f"{chunk} of {n_fits} fits"
                break
            traced_fit = tracer is not None and chunk % 2 == 1
            if traced_fit:
                tracer.install(FIT_TARGETS)
            fit_wall = fits.run(traced_fit)
            if traced_fit:
                tracer.uninstall()
        fits.record()

        best = {item: min(t) for item, t in times[False].items()}
        if len(best) < n_items:
            outcome.correct = False
            outcome.notes["unserved_batches"] = n_items - len(best)
        service = np.array([best.get(item, np.nan) for item in sequence])
        latency, wait = fifo_queue(arrivals, service)
        rows = float(sum(traffic.rows[item] for item in sequence))
        outcome.metrics["latency_p50_ms"] = _pct(latency * 1e3, 50)
        outcome.metrics["latency_p99_ms"] = _pct(latency * 1e3, 99)
        outcome.metrics["rows_per_s"] = rows / float(service.sum())
        outcome.notes["peak_rss_mb_at_end"] = _peak_rss_mb()
        raw = np.array([seconds for t in times[False].values() for seconds in t])
        outcome.notes["rate_rps"] = rate
        outcome.notes["rounds"] = rounds
        outcome.notes["fits"] = len(fits.segments) + len(fits.traced_segments)
        if best:
            outcome.notes["call_ms_raw_median_over_best"] = float(
                np.median([np.median(t) / min(t) for t in times[False].values()]))
        outcome.notes["capacity_rps"] = len(sequence) / float(service.sum())
        outcome.samples["service_ms_best"] = [best.get(item, np.nan) * 1e3 for item in range(n_items)]
        outcome.samples["call_ms_raw"] = (raw * 1e3).tolist()

        if tracer is not None:
            layers = outcome.layers
            index = tracer.index()
            _serve_layers(index, outcome)
            _fit_layers(index, outcome, len(fits.traced_segments))
            if fits.traced_segments:
                outcome.notes["trace_overhead_frac_fit"] = float(
                    fits.best(fits.traced_segments).sum() / fits.best(fits.segments).sum() - 1.0)
            layers["serving.pipeline.busy_frac"] = float(service.sum() / (arrivals[-1] + latency[-1]))
            layers["loadgen.queue_wait_ms_p99"] = _pct(wait * 1e3, 99)
            traced_best = {item: min(t) for item, t in times[True].items()}
            both = [item for item in sequence if item in traced_best and item in best]
            layers["trace.overhead_frac"] = (
                sum(traced_best[item] for item in both) / sum(best[item] for item in both) - 1.0
                if both else 0.0
            )
            layers["resilience.sanitize.quarantined_rows"] = float(quarantined)
            layers["serving.executor.demotions"] = float(len(index.spans("serving.executor.demotion")))
            lookups = sum(cache.values())
            layers["nn.inference.plan_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
            wall = float(sum(sum(t) for t in times[True].values())
                         + sum(s.sum() for s in fits.traced_segments))
            outcome.split = index.split(wall)
            name = "serve_drift" if drift else "serve_score"
            tracer.dump(os.path.join(workdir, "traces", f"{name}-seed{seed}.jsonl"))
    finally:
        for pipe in pipes:
            pipe.close()
        os.unlink(model_path)
    return outcome


def _serve_layers(index: SpanIndex, outcome: Outcome) -> None:
    """Per-call layer times from the traced rounds (every batch once a round)."""
    layers = outcome.layers
    check_ms = index.durations("serving.drift.check") * 1e3
    layers["serving.drift.check_ms_p50"] = _pct(check_ms, 50)
    layers["serving.drift.check_ms_p99"] = _pct(check_ms, 99)
    layers["serving.drift.checks"] = float(len(check_ms))
    layers["resilience.sanitize.ms_p50"] = _pct(index.durations("resilience.sanitize") * 1e3, 50)
    layers["serving.executor.score_ms_p50"] = _pct(index.durations("serving.executor.score") * 1e3, 50)
    layers["core.model.score_batch_ms_p50"] = _pct(index.durations("core.model.score_batch") * 1e3, 50)
    layers["nn.inference.logits_ms_p50"] = _pct(index.durations("nn.inference.logits") * 1e3, 50)
    layers["core.scoring.route_ms_p50"] = _pct(index.durations("core.scoring.route") * 1e3, 50)
    layers["serving.pipeline.self_ms_p50"] = _pct(index.self_durations("serving.pipeline.process") * 1e3, 50)


# -- serve_daemon -----------------------------------------------------------

def _await(handles: List[tuple], outcome: Outcome, traffic: _Traffic, timeout: float) -> List[bool]:
    """Collect and check daemon responses; every unanswered request fails."""
    deadline = time.perf_counter() + timeout
    ok = []
    for item, handle in handles:
        if isinstance(handle, Exception):
            outcome.op([f"submit raised {type(handle).__name__}"])
            ok.append(False)
            continue
        try:
            scores, routing = handle.result(max(deadline - time.perf_counter(), 0.01))
        except Exception as exc:  # RingCorruption, DaemonUnavailable, TimeoutError
            outcome.op([f"request failed: {type(exc).__name__}"])
            ok.append(False)
            continue
        outcome.op(check_scores(scores, routing, traffic.expected[item]))
        ok.append(True)
    return ok


def run_daemon(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    """Open-loop 32-row requests through ``ServingDaemon.submit``, one worker."""
    outcome = Outcome()
    outcome.layers.update({name: 0.0 for name in DAEMON_LAYER_UNITS})
    split = load_split()
    fits = _Fits(split, outcome)
    fits.run()
    fits.record()
    os.makedirs(workdir, exist_ok=True)
    handle, model_path = tempfile.mkstemp(suffix=".npz", dir=workdir)
    os.close(handle)
    save_model(fits.model, model_path)
    daemons = []
    try:
        pool = np.vstack([split.X_val, split.X_test])
        traffic = _Traffic(pool, [DAEMON_ROWS], seed)
        # One coalesced frame of max_batch_rows x width float64 rows plus
        # a page for headers: the remedy the daemon's own error names.
        ring_bytes = DAEMON_MAX_BATCH_ROWS * pool.shape[1] * 8 + 4096

        def setup():
            load_split()
            model = load_model(model_path)
            registry = TelemetryRegistry()
            daemon = ServingDaemon(
                build_scoring_spec(model, "ed"), n_workers=1, ring_bytes=ring_bytes,
                max_batch_rows=DAEMON_MAX_BATCH_ROWS, telemetry=registry,
            )
            daemons.append(daemon)
            daemon.start()
            daemon.score(traffic.batches[0])
            return model, daemon, registry

        try:
            outcome.metrics["setup_s"], (model, daemon, registry) = _best_setup(
                setup, SETUP_REPEATS, lambda result: result[1].close())
        except DaemonUnavailable as exc:
            outcome.correct = False
            outcome.notes["daemon_start_error"] = str(exc)
            outcome.op([f"daemon did not start: {exc}"])
            return outcome
        traffic.compute_expected(model, None)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install(DAEMON_TARGETS)

        open_seconds = 0.8 * seconds
        offsets, items = poisson_schedule(np.random.default_rng(TRACE_SEED), DAEMON_RATE,
                                          int(DAEMON_RATE * open_seconds), ((DAEMON_ROWS, 1.0),))
        due, submit_start, prev_end, handles = [], [], [], []
        t0 = time.perf_counter()
        last = t0
        for i, (offset, item) in enumerate(zip(offsets.tolist(), items)):
            t_due = t0 + offset
            now = time.perf_counter()
            if now < t_due:
                time.sleep(t_due - now)
            if tracer is not None:
                tracer.set_request(i)
            t_start = time.perf_counter()
            try:
                handle = daemon.submit(traffic.batches[item])
            except Exception as exc:  # DaemonUnavailable once the daemon is down
                handle = exc
            due.append(t_due), submit_start.append(t_start), prev_end.append(last)
            last = time.perf_counter()
            handles.append((item, handle))
        ok = _await(handles, outcome, traffic, max(30.0, seconds))
        end = np.array([h.t_done if okay else t for (_, h), t, okay in zip(handles, due, ok)])
        due, submit_start, prev_end = np.array(due), np.array(submit_start), np.array(prev_end)
        latency_ms = (end - due)[np.array(ok, dtype=bool)] * 1e3
        outcome.metrics["latency_p50_ms"] = _pct(latency_ms, 50)
        outcome.metrics["latency_p99_ms"] = _pct(latency_ms, 99)
        outcome.samples["latency_ms"] = latency_ms.tolist()
        outcome.layers["loadgen.late_ms_p99"] = _pct((submit_start - np.maximum(due, prev_end)) * 1e3, 99)
        outcome.layers["loadgen.queue_wait_ms_p99"] = _pct((submit_start - due) * 1e3, 99)
        request_ms = [(h.t_done - h.t_submit) * 1e3 for (_, h), okay in zip(handles, ok) if okay]

        # Capacity: a submitted backlog, drained by the one worker.
        n_backlog = max(DISTINCT, int(DAEMON_RATE * 2 * (seconds - open_seconds)))
        start = time.perf_counter()
        backlog = []
        for i in range(n_backlog):
            item = i % DISTINCT
            try:
                backlog.append((item, daemon.submit(traffic.batches[item])))
            except Exception as exc:
                backlog.append((item, exc))
        ok = _await(backlog, outcome, traffic, max(30.0, seconds))
        answered = [h for (_, h), okay in zip(backlog, ok) if okay]
        if answered:
            last_done = max(h.t_done for h in answered)
            outcome.metrics["rows_per_s"] = DAEMON_ROWS * len(answered) / (last_done - start)
        outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()

        counters = registry.counters
        dispatches = counters.get("serve.daemon.dispatches", 0.0)
        if dispatches <= 0:
            outcome.correct = False
            outcome.notes["path_error"] = "serve.daemon.dispatches is 0: nothing went through the daemon"
        layers = outcome.layers
        layers["serving.daemon.dispatches"] = dispatches
        layers["serving.daemon.respawns"] = counters.get("serve.daemon.respawns", 0.0)
        layers["serving.daemon.faults"] = counters.get("serve.daemon.faults", 0.0)
        layers["serving.daemon.disabled"] = counters.get("serve.daemon.disabled", 0.0)
        layers["serving.daemon.rows_per_dispatch"] = (
            counters.get("serve.daemon.rows", 0.0) / dispatches if dispatches else 0.0
        )
        layers["serving.daemon.request_ms_p50"] = _pct(request_ms, 50)
        layers["serving.daemon.request_ms_p99"] = _pct(request_ms, 99)
        outcome.notes["rate_rps"] = DAEMON_RATE
        outcome.notes["ring_bytes"] = ring_bytes
        outcome.notes["respawns"] = layers["serving.daemon.respawns"]
        outcome.notes["disabled"] = layers["serving.daemon.disabled"]
        outcome.notes["desyncs"] = counters.get("serve.daemon.desyncs", 0.0)
        if tracer is not None:
            index = tracer.index()
            layers["serving.daemon.submit_us_p50"] = _pct(index.durations("serving.daemon.submit") * 1e6, 50)
            layers["serving.shm_ring.write_us_p50"] = _pct(index.durations("serving.shm_ring.write") * 1e6, 50)
            layers["serving.shm_ring.read_us_p50"] = _pct(index.durations("serving.shm_ring.read") * 1e6, 50)
            outcome.notes["trace_overhead"] = "not measured: the whole serve_daemon run is traced"
            outcome.split = index.split(float(time.perf_counter() - t0))
            tracer.dump(os.path.join(workdir, "traces", f"serve_daemon-seed{seed}.jsonl"))
    finally:
        for daemon in daemons:
            daemon.close()
        os.unlink(model_path)
    return outcome


WORKLOADS = {
    "serve_drift": lambda seed, seconds, trace, workdir: run_serve(seed, seconds, trace, workdir, drift=True),
    "serve_score": lambda seed, seconds, trace, workdir: run_serve(seed, seconds, trace, workdir, drift=False),
    "serve_daemon": run_daemon,
}

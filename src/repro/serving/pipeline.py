"""Batch scoring pipeline around a fitted TargAD.

Calibrates an operating threshold on a validation split (best-F1, target-
recall, or review-budget policy), then processes live batches: sanitize,
score, route into normal / target / non-target via the tri-class rule,
check for covariate drift, and emit a structured :class:`AlertBatch` for
the downstream queue.

The pipeline is guarded for production: rows that cannot be scored
(non-finite values, wrong width in a ragged payload) are quarantined
instead of crashing the batch, and the primary scorer sits behind a
:class:`~repro.resilience.breaker.CircuitBreaker`. When the primary
faults repeatedly — raises, or emits non-finite scores — the breaker
trips and batches are scored by the degraded
:class:`~repro.resilience.fallback.ReconstructionFallback` until a
half-open probe succeeds. Degraded results are annotated as such; the
queue never silently mixes primary and fallback scores.

Execution is delegated to a
:class:`~repro.serving.executor.FallbackChain` of
:class:`~repro.serving.executor.Executor` adapters (optional daemon,
then inline). The chain owns infrastructure-failure demotion and the
spec-push/rollback surface for model hot-swaps, so this module contains
no executor-type-specific branches: ``process`` scores through
``chain.score`` and ``swap_model`` pushes and rolls back through
``chain.push_spec`` / ``chain.reset`` whichever path is configured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.core.model import TargAD
from repro.data.schema import KIND_NONTARGET, KIND_NORMAL, KIND_TARGET
from repro.nn.inference import evict_plan, plan_cache_stats
from repro.eval.thresholds import best_f1_threshold, budget_threshold, recall_threshold
from repro.obs import ensure_telemetry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import SwapError
from repro.resilience.fallback import ReconstructionFallback
from repro.resilience.sanitize import expected_width, sanitize_batch
from repro.serving.daemon import ServingDaemon
from repro.serving.drift import DriftMonitor, DriftReport
from repro.serving.executor import DaemonExecutor, FallbackChain, InlineExecutor
from repro.serving.sharding import ScoringSpec, build_scoring_spec

#: Routing code for rows that were quarantined before scoring.
ROUTE_QUARANTINED = -1

#: Named chain presets accepted by the ``executor=`` argument (a started
#: :class:`~repro.serving.daemon.ServingDaemon` instance is the third form).
EXECUTOR_PRESETS = ("inline", "daemon")


@dataclass
class _StagedGeneration:
    """Everything a new model generation needs, computed off the hot path.

    Built by ``swap_model`` *before* any live state is touched, so a
    staging failure (bad candidate, injected fault) leaves the serving
    generation byte-for-byte untouched.
    """

    model: TargAD
    threshold: float
    monitor: Optional[DriftMonitor]
    fallback: ReconstructionFallback
    spec: Optional[ScoringSpec]


@dataclass
class AlertBatch:
    """Structured scoring result for one batch.

    ``alerts`` indexes rows whose score crossed the calibrated threshold,
    ordered by decreasing score (the analyst queue order). ``routing``
    carries the tri-class decision per row, with
    :data:`ROUTE_QUARANTINED` marking rows that were never scored; their
    ``scores`` entry is NaN. All index arrays refer to positions in the
    *original* incoming batch.
    """

    scores: np.ndarray
    alerts: np.ndarray
    routing: np.ndarray
    threshold: float
    drift: Optional[DriftReport] = None
    deferred: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    quarantined: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    degraded: bool = False

    @property
    def n_alerts(self) -> int:
        return len(self.alerts)

    @property
    def scored(self) -> np.ndarray:
        """Indices of rows that were actually scored (not quarantined)."""
        return np.flatnonzero(self.routing != ROUTE_QUARANTINED)

    def summary(self) -> str:
        parts = [
            f"{len(self.scored)} scored",
            f"{self.n_alerts} alert(s) >= {self.threshold:.3f}",
            f"{len(self.deferred)} deferred (non-target)",
        ]
        if len(self.quarantined):
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.degraded:
            parts.append("DEGRADED (fallback scorer)")
        if self.drift is not None:
            parts.append(self.drift.summary())
        return "; ".join(parts)


class ScoringPipeline:
    """Operational wrapper: calibrated thresholding + routing + drift.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.TargAD`.
    policy:
        Threshold policy: "f1" (best validation F1), "recall" (loosest
        threshold reaching ``target_recall``), or "budget" (top
        ``review_budget`` instances per calibration batch).
    strategy:
        OOD strategy for the tri-class routing ("msp" / "es" / "ed").
    monitor_drift:
        Attach a :class:`DriftMonitor` over the training features.
    circuit_breaker:
        Breaker guarding the primary scorer; defaults to a
        :class:`~repro.resilience.breaker.CircuitBreaker` wired to this
        pipeline's telemetry. Pass one explicitly to control thresholds,
        cooldown, or the clock (tests use a ``ManualClock``).
    fallback:
        Degraded-mode scorer used while the breaker is open. Defaults to
        a :class:`~repro.resilience.fallback.ReconstructionFallback`
        calibrated during :meth:`calibrate` to alert on the same traffic
        fraction as the primary threshold.
    telemetry:
        Optional :class:`~repro.obs.TelemetryRegistry`; records the
        ``serve.*`` series — per-batch process latency, alert/deferred
        counts, and a drift-event counter — plus the ``resilience.*``
        series (quarantine counts, scoring faults, breaker transitions,
        degraded batches). Executors additionally record their own
        series (``serve.daemon.*``, ``serve.executor.demotions``), each
        ``serve.batch`` event carries the batch's tri-class route mix
        (``n_normal`` / ``n_target`` / ``n_nontarget``, which with
        ``n_quarantined`` sum to ``n``), and the pipeline mirrors the
        ``serve.plan_cache.*`` hit/miss/invalidation deltas observed
        around each batch. ``None`` = no-op.
    executor:
        Where scoring runs. ``"inline"`` (default) scores in the calling
        process. ``"daemon"`` lazily starts an owned
        :class:`~repro.serving.daemon.ServingDaemon` (its own defaults;
        shared-memory ring transport, micro-batching) that :meth:`close`
        shuts down. A started ``ServingDaemon`` instance is used as-is
        and left running by :meth:`close` — the caller owns its
        lifecycle, e.g. to tune its workers and batching or to share one
        daemon between pipelines. Whatever the form, the chain ends in
        the inline executor: a daemon that cannot start or dies demotes
        batches to inline scoring, never counted as a scorer fault by
        the circuit breaker; worker *model* faults are.
    """

    def __init__(
        self,
        model: TargAD,
        policy: str = "f1",
        target_recall: float = 0.9,
        review_budget: int = 100,
        strategy: str = "ed",
        monitor_drift: bool = True,
        drift_threshold: float = 0.2,
        circuit_breaker: Optional[CircuitBreaker] = None,
        fallback: Optional[ReconstructionFallback] = None,
        telemetry=None,
        executor: Union[str, ServingDaemon] = "inline",
    ):
        if policy not in ("f1", "recall", "budget"):
            raise ValueError('policy must be "f1", "recall", or "budget"')
        if policy == "budget" and review_budget < 1:
            raise ValueError(
                f'policy "budget" needs a positive review capacity; got '
                f"review_budget={review_budget}. Set review_budget >= 1 (the "
                "number of instances analysts can review per batch)."
            )
        model._check_fitted()
        self.model = model
        self.telemetry = ensure_telemetry(telemetry)
        self.policy = policy
        self.target_recall = target_recall
        self.review_budget = review_budget
        self.strategy = strategy
        self.threshold_: Optional[float] = None
        self._monitor: Optional[DriftMonitor] = None
        self._monitor_enabled = monitor_drift
        self._drift_threshold = drift_threshold
        self._n_features = expected_width(model)
        self.circuit_breaker = (
            circuit_breaker
            if circuit_breaker is not None
            else CircuitBreaker(telemetry=self.telemetry, name="serve")
        )
        self.fallback = fallback
        if not isinstance(executor, ServingDaemon) and (
            executor not in EXECUTOR_PRESETS
        ):
            raise ValueError(
                'executor must be "inline", "daemon", or a started '
                f"ServingDaemon; got {executor!r}"
            )
        self.chain = self._build_chain(executor)
        #: Model-generation counter; bumped by each successful hot swap.
        self.generation = 0
        # Serializes process() against swap_model(): a batch always sees
        # one coherent (model, threshold, monitor, fallback, workers)
        # generation. Re-entrant so the swap can call helpers that also
        # take it.
        self._swap_lock = threading.RLock()

    # -- execution chain --------------------------------------------------
    def _spec_factory(self) -> ScoringSpec:
        """Spec for worker executors, always from the *current* model."""
        return build_scoring_spec(self.model, self.strategy)

    def _build_chain(self, executor: Union[str, ServingDaemon]) -> FallbackChain:
        """Assemble the executor chain: optional daemon, then inline."""
        executors = []
        if executor != "inline":
            daemon = executor if isinstance(executor, ServingDaemon) else None
            executors.append(DaemonExecutor(
                self._spec_factory, daemon=daemon, telemetry=self.telemetry
            ))
        executors.append(InlineExecutor(lambda: self.model, self.strategy))
        return FallbackChain(executors, telemetry=self.telemetry)

    def calibrate(
        self,
        X_val: np.ndarray,
        y_val: Optional[np.ndarray] = None,
        X_reference: Optional[np.ndarray] = None,
    ) -> "ScoringPipeline":
        """Pick the operating threshold (and fit drift + fallback scorers).

        ``y_val`` (binary target-anomaly labels) is required for the "f1"
        and "recall" policies and must contain at least one positive;
        "budget" only needs scores.
        """
        scores = self.model.decision_function(X_val)
        self.threshold_ = self._threshold_from_scores(scores, y_val)
        if self._monitor_enabled:
            reference = X_reference if X_reference is not None else X_val
            self._monitor = DriftMonitor(threshold=self._drift_threshold).fit(reference)
        if self.fallback is None or self.fallback.threshold_ is None:
            alert_fraction = float(np.mean(scores >= self.threshold_))
            fallback = self.fallback if self.fallback is not None else (
                ReconstructionFallback(self.model)
            )
            self.fallback = fallback.calibrate(X_val, alert_fraction)
        if self.telemetry.enabled:
            self.telemetry.set_gauge("serve.threshold", float(self.threshold_))
            self.telemetry.record_event(
                "serve.calibrated",
                policy=self.policy,
                threshold=float(self.threshold_),
                n_val=int(len(scores)),
            )
        return self

    def _threshold_from_scores(
        self, scores: np.ndarray, y_val: Optional[np.ndarray]
    ) -> float:
        """Apply the configured threshold policy to validation scores."""
        if self.policy == "budget":
            budget = min(self.review_budget, len(scores))
            return budget_threshold(scores, budget)
        if y_val is None:
            raise ValueError(f'policy "{self.policy}" needs y_val')
        y_val = np.asarray(y_val).ravel()
        if len(y_val) != len(scores):
            raise ValueError(
                f"y_val has {len(y_val)} labels for {len(scores)} validation rows"
            )
        if not np.any(y_val == 1):
            raise ValueError(
                f'policy "{self.policy}" cannot calibrate on a validation '
                "split with zero positive (target-anomaly) labels: every "
                "threshold has undefined recall. Provide a split containing "
                'target anomalies, or use the "budget" policy which needs '
                "no labels."
            )
        if self.policy == "f1":
            threshold, _ = best_f1_threshold(y_val, scores)
            return threshold
        return recall_threshold(y_val, scores, self.target_recall)

    # -- model hot-swap ---------------------------------------------------
    def swap_model(
        self,
        model: TargAD,
        X_val: np.ndarray,
        y_val: Optional[np.ndarray] = None,
        X_reference: Optional[np.ndarray] = None,
        fault_points: Optional[Callable[[str], None]] = None,
    ) -> "ScoringPipeline":
        """Atomically replace the serving model with a new generation.

        Two phases:

        1. **Stage** (off the hot path, old generation keeps serving):
           score the validation split with the candidate, re-apply the
           threshold policy, fit a fresh drift monitor on
           ``X_reference``/``X_val``, calibrate a fresh reconstruction
           fallback at the candidate's alert fraction, and — when any
           executor has a live worker surface — build the candidate's
           :class:`~repro.serving.sharding.ScoringSpec`.
        2. **Flip** (under the swap lock, so no batch ever sees a
           half-swapped pipeline): push the new spec through the
           executor chain into every live worker surface (the daemon's
           rolling respawn), then swap
           the model / threshold / monitor / fallback pointers and bump
           ``generation``. The retired network's cached inference plan
           is evicted.

        Any failure — staging, the spec push, or the flip itself —
        restores the previous generation completely (workers included,
        via the chain's uniform ``reset``) and raises
        :class:`~repro.resilience.errors.SwapError`; the circuit breaker
        is never involved, because a swap failure is a control-plane
        problem, not a scoring fault.

        ``fault_points`` is the chaos hook: a callable invoked with the
        phase names ``"stage"``, ``"push"``, ``"flip"`` (see
        :data:`repro.resilience.faultinject.SWAP_PHASES`); whatever it
        raises is handled exactly like a genuine fault in that phase.
        """
        fire = fault_points if fault_points is not None else (lambda phase: None)
        try:
            model._check_fitted()
            width = expected_width(model)
            if width != self._n_features:
                raise ValueError(
                    f"candidate model expects {width} features but the "
                    f"pipeline serves {self._n_features}"
                )
            fire("stage")
            staged = self._stage_generation(model, X_val, y_val, X_reference)
        except Exception as exc:
            self._record_swap_failure("stage", exc)
            raise SwapError(f"swap staging failed: {exc}") from exc

        with self._swap_lock:
            old_model = self.model
            old_state = (self.model, self.threshold_, self._monitor, self.fallback)
            phase = "push"
            try:
                fire("push")
                self.chain.push_spec(
                    staged.spec,
                    lambda: build_scoring_spec(staged.model, self.strategy),
                )
                phase = "flip"
                fire("flip")
                self.model = staged.model
                self.threshold_ = staged.threshold
                self._monitor = staged.monitor
                self.fallback = staged.fallback
                self.generation += 1
            except Exception as exc:
                (self.model, self.threshold_, self._monitor, self.fallback) = old_state
                self.chain.reset()
                self._record_swap_failure(phase, exc)
                raise SwapError(
                    f"swap failed during {phase}; previous generation restored: {exc}"
                ) from exc

        # The retired network will never be scored again on this thread:
        # drop its cached plan (and the strong array refs the cache holds).
        if old_model.network_ is not None:
            evict_plan(old_model.network_)
        if self.telemetry.enabled:
            self.telemetry.increment("serve.swap.success")
            self.telemetry.set_gauge("serve.generation", float(self.generation))
            self.telemetry.set_gauge("serve.threshold", float(self.threshold_))
            self.telemetry.record_event(
                "serve.swap",
                generation=int(self.generation),
                threshold=float(self.threshold_),
            )
        return self

    def _stage_generation(
        self,
        model: TargAD,
        X_val: np.ndarray,
        y_val: Optional[np.ndarray],
        X_reference: Optional[np.ndarray],
    ) -> _StagedGeneration:
        """Compute a candidate generation without touching live state.

        Mirrors :meth:`calibrate` exactly, so a swapped-in generation is
        indistinguishable from a freshly calibrated pipeline on the same
        model and validation split.
        """
        scores = model.decision_function(X_val)
        threshold = self._threshold_from_scores(scores, y_val)
        monitor = None
        if self._monitor_enabled:
            reference = X_reference if X_reference is not None else X_val
            monitor = DriftMonitor(threshold=self._drift_threshold).fit(reference)
        alert_fraction = float(np.mean(scores >= threshold))
        fallback = ReconstructionFallback(model).calibrate(X_val, alert_fraction)
        spec = None
        if self.chain.needs_spec():
            spec = build_scoring_spec(model, self.strategy)
        return _StagedGeneration(
            model=model, threshold=float(threshold), monitor=monitor,
            fallback=fallback, spec=spec,
        )

    def _record_swap_failure(self, phase: str, exc: Exception) -> None:
        self.telemetry.increment("serve.swap.failed")
        self.telemetry.record_event(
            "serve.swap_failed",
            phase=phase,
            error=type(exc).__name__,
            detail=str(exc)[:200],
        )

    def process(self, X_batch: np.ndarray) -> AlertBatch:
        """Score one live batch and build the alert payload.

        Never raises on bad *rows*: non-finite or wrong-length rows are
        quarantined (``routing == ROUTE_QUARANTINED``, ``score == NaN``)
        and the rest of the batch proceeds. A uniform 2-D batch of the
        wrong width still raises — that is a wiring error, not row noise.
        When the primary scorer faults, the circuit breaker routes the
        batch to the degraded fallback scorer instead of propagating the
        exception.

        Thread-safe against :meth:`swap_model`: the batch is scored by
        exactly one model generation (a concurrent swap waits for the
        batch, then the batch after it sees the new generation).
        """
        with self._swap_lock:
            return self._process_one(X_batch)

    def _process_one(self, X_batch: np.ndarray) -> AlertBatch:
        if self.threshold_ is None:
            raise RuntimeError("pipeline is not calibrated; call calibrate() first")
        start = time.perf_counter()
        sanitized = sanitize_batch(X_batch, self._n_features)
        n_total = sanitized.n_total

        scores = np.full(n_total, np.nan, dtype=np.float64)
        routing = np.full(n_total, ROUTE_QUARANTINED, dtype=np.int64)
        degraded = False
        self.chain.begin_batch()
        cache_before = plan_cache_stats() if self.telemetry.enabled else None
        if len(sanitized.kept):
            clean_scores, clean_routing, degraded = self._score_with_guardrails(
                sanitized.X
            )
            scores[sanitized.kept] = clean_scores
            routing[sanitized.kept] = clean_routing
        if cache_before is not None:
            self._record_plan_cache_telemetry(cache_before)

        threshold = (
            float(self.fallback.threshold_) if degraded else float(self.threshold_)
        )
        flagged = np.flatnonzero(
            np.isfinite(scores) & (scores >= threshold) & (routing == KIND_TARGET)
        )
        alerts = flagged[np.argsort(-scores[flagged])]
        deferred = np.flatnonzero(routing == KIND_NONTARGET)

        drift = None
        if self._monitor is not None and len(sanitized.kept):
            drift = self._monitor.check(sanitized.X)
        result = AlertBatch(
            scores=scores,
            alerts=alerts,
            routing=routing,
            threshold=threshold,
            drift=drift,
            deferred=deferred,
            quarantined=sanitized.quarantined,
            degraded=degraded,
        )
        if self.telemetry.enabled:
            self._record_batch_telemetry(result, n_total, time.perf_counter() - start)
        return result

    # -- guarded scoring --------------------------------------------------
    def _score_with_guardrails(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Score sanitized rows via the executor chain if the breaker allows.

        Returns ``(scores, routing, degraded)``. The chain handles
        infrastructure demotion internally (never a breaker event); a
        model fault — an exception or non-finite scores — is reported to
        the breaker and the batch falls through to the degraded scorer.
        """
        breaker = self.circuit_breaker
        if breaker.allow():
            try:
                raw_scores, raw_routing = self.chain.score(X)
                scores = np.asarray(raw_scores, dtype=np.float64)
                if scores.shape != (len(X),) or not np.all(np.isfinite(scores)):
                    raise RuntimeError(
                        "primary scorer produced non-finite or misshapen scores"
                    )
                routing = np.asarray(raw_routing, dtype=np.int64)
            except Exception as exc:
                breaker.record_failure()
                self.telemetry.increment("resilience.scoring_faults")
                self.telemetry.record_event(
                    "resilience.scoring_fault",
                    error=type(exc).__name__,
                    detail=str(exc)[:200],
                )
                return self._degraded_scores(X)
            breaker.record_success()
            return scores, routing, False
        return self._degraded_scores(X)

    def close(self) -> None:
        """Release every executor's worker resources. Idempotent.

        Caller-owned daemons are left running — their executor never
        assumed their lifecycle.
        """
        self.chain.close()

    def _degraded_scores(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Score via the reconstruction fallback while the primary is out.

        The fallback cannot tell target from non-target anomalies, so
        everything it flags routes to the analyst queue (``KIND_TARGET``)
        — the conservative failure direction.
        """
        if self.fallback is None or self.fallback.threshold_ is None:
            raise RuntimeError(
                "degraded path needs a calibrated fallback scorer; call "
                "calibrate() first or pass a calibrated fallback="
            )
        scores = self.fallback.score(X)
        routing = np.where(
            scores >= self.fallback.threshold_, KIND_TARGET, KIND_NORMAL
        ).astype(np.int64)
        self.telemetry.increment("resilience.degraded_batches")
        return scores, routing, True

    def _record_plan_cache_telemetry(self, before: dict) -> None:
        """Mirror this batch's plan-cache deltas into ``serve.*`` counters.

        The process-wide cache counters (from
        :func:`repro.nn.inference.plan_cache_stats`) also move under
        training and other pipelines; diffing around the scoring call
        attributes to *this* pipeline only what it caused.
        """
        after = plan_cache_stats()
        for key in ("hits", "misses", "invalidations"):
            delta = after[key] - before[key]
            if delta > 0:
                self.telemetry.increment(f"serve.plan_cache.{key}", delta)

    def _record_batch_telemetry(self, batch: AlertBatch, n_rows: int, seconds: float) -> None:
        """One ``serve.process`` latency sample + counters per batch."""
        self.telemetry.observe("serve.process", seconds)
        self.telemetry.increment("serve.batches")
        self.telemetry.increment("serve.rows", n_rows)
        self.telemetry.increment("serve.alerts", batch.n_alerts)
        self.telemetry.increment("serve.deferred", len(batch.deferred))
        if len(batch.quarantined):
            self.telemetry.increment("resilience.quarantine", len(batch.quarantined))
            self.telemetry.record_event(
                "resilience.quarantined",
                n_rows=int(len(batch.quarantined)),
                n_total=n_rows,
            )
        drifted = batch.drift is not None and batch.drift.drifted
        if batch.drift is not None:
            self.telemetry.increment("drift.checks")
            self.telemetry.set_gauge("drift.max_ks", batch.drift.max_statistic)
        if drifted:
            self.telemetry.increment("drift.events")
            self.telemetry.increment("serve.drift_events")
            self.telemetry.record_event(
                "serve.drift",
                n_features=len(batch.drift.drifted_features),
                max_ks=batch.drift.max_statistic,
            )
        event_fields = dict(
            n=n_rows,
            n_alerts=batch.n_alerts,
            n_deferred=len(batch.deferred),
            n_quarantined=int(len(batch.quarantined)),
            n_normal=int(np.count_nonzero(batch.routing == KIND_NORMAL)),
            n_target=int(np.count_nonzero(batch.routing == KIND_TARGET)),
            n_nontarget=int(len(batch.deferred)),
            executor=self.chain.last_executor or "none",
            degraded=batch.degraded,
            latency_ms=seconds * 1e3,
            drifted=drifted,
        )
        if drifted:
            event_fields["drift"] = batch.drift.to_dict()
        self.telemetry.record_event("serve.batch", **event_fields)

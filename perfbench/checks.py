"""Output checks: every result the benchmark times is compared here.

Each check returns a list of mismatch descriptions (empty when the output
is correct); the caller counts a non-empty list as one failed operation.
References are computed from the repository's own reference functions,
outside the timed regions:

- scores and routes of ``ScoringPipeline.process`` are bitwise equal to
  ``TargAD.score_batch`` on the finite rows (the numpy backend's
  ``parity_atol`` is 0);
- alerts are exactly the target-routed rows at or above the threshold,
  in non-increasing score order;
- quarantined rows are exactly the rows the benchmark made non-finite;
- ``DriftReport.statistics`` equals :func:`repro.serving.drift.ks_statistic`
  on each feature against the monitor's reference sample (features whose
  reference is constant follow the monitor's documented exact-mass rule);
- daemon results equal inline ``score_batch`` results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import TargADConfig
from repro.core.model import TargAD
from repro.data.schema import KIND_TARGET
from repro.serving import drift
from repro.serving.pipeline import ROUTE_QUARANTINED, ScoringPipeline


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two arrays (``-0.0 != 0.0``, NaN == same NaN)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def reference_ks(reference: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-feature drift statistics from the repository's reference KS."""
    stats = np.zeros(X.shape[1], dtype=np.float64)
    for j in range(X.shape[1]):
        ref = reference[:, j]
        if ref.min() == ref.max():
            moved = ~np.isclose(X[:, j], ref[0], rtol=drift._CONST_RTOL, atol=drift._CONST_ATOL)
            stats[j] = float(moved.mean())
        else:
            stats[j] = drift.ks_statistic(ref, X[:, j])
    return stats


@dataclass
class Expected:
    """Reference outputs for one distinct input batch."""

    kept: np.ndarray
    quarantined: np.ndarray
    scores: np.ndarray
    routing: np.ndarray
    ks: Optional[np.ndarray] = None


def expected_for(model, X: np.ndarray, bad_rows: np.ndarray, reference=None) -> Expected:
    """Reference outputs for ``X`` whose non-finite rows are ``bad_rows``."""
    finite = np.all(np.isfinite(X), axis=1)
    kept = np.flatnonzero(finite)
    scores, routing = model.score_batch(X[kept], strategy="ed")
    ks = reference_ks(reference, X[kept]) if reference is not None else None
    return Expected(
        kept=kept,
        quarantined=np.sort(np.asarray(bad_rows, dtype=np.int64)),
        scores=np.asarray(scores, dtype=np.float64),
        routing=np.asarray(routing, dtype=np.int64),
        ks=ks,
    )


def check_alert_batch(result, expected: Expected, threshold: float) -> List[str]:
    """Compare one ``AlertBatch`` against its reference."""
    problems = []
    kept = expected.kept
    if not bits_equal(np.asarray(result.scores)[kept], expected.scores):
        problems.append("scores differ from score_batch")
    if not np.array_equal(np.asarray(result.routing)[kept], expected.routing):
        problems.append("routes differ from score_batch")
    if not np.array_equal(np.sort(np.asarray(result.quarantined)), expected.quarantined):
        problems.append("quarantined rows differ from the injected rows")
    bad = expected.quarantined
    if len(bad) and not (np.all(np.isnan(result.scores[bad]))
                         and np.all(result.routing[bad] == ROUTE_QUARANTINED)):
        problems.append("quarantined rows carry a score or a route")
    if result.degraded or result.threshold != threshold:
        problems.append("batch was served by the degraded fallback")
    scores = np.asarray(result.scores)
    flagged = kept[(expected.routing == KIND_TARGET) & (expected.scores >= threshold)]
    alerts = np.asarray(result.alerts)
    if not np.array_equal(np.sort(alerts), np.sort(flagged)):
        problems.append("alerts are not the target-routed rows at or above the threshold")
    elif len(alerts) > 1 and np.any(np.diff(scores[alerts]) > 0):
        problems.append("alerts are not in descending score order")
    if expected.ks is not None:
        if result.drift is None:
            problems.append("no drift report")
        else:
            if not bits_equal(np.asarray(result.drift.statistics), expected.ks):
                problems.append("drift statistics differ from ks_statistic")
            drifted = np.flatnonzero(expected.ks > result.drift.threshold).tolist()
            if list(result.drift.drifted_features) != drifted:
                problems.append("drifted features differ from the statistics")
    elif result.drift is not None:
        problems.append("drift report from a pipeline without a drift monitor")
    return problems


def check_scores(scores, routing, expected: Expected) -> List[str]:
    """Compare a raw ``(scores, routing)`` pair, e.g. a daemon response."""
    problems = []
    if not bits_equal(np.asarray(scores, dtype=np.float64), expected.scores):
        problems.append("scores differ from score_batch")
    if not np.array_equal(np.asarray(routing), expected.routing):
        problems.append("routes differ from score_batch")
    return problems


def self_test() -> List[str]:
    """Show that the checks catch a perturbed score and a perturbed KS statistic.

    Returns the list of failures of the self-test itself (empty = pass).
    """
    rng = np.random.default_rng(0)
    n_features = 12
    X_unlabeled = np.vstack([rng.normal(size=(400, n_features)),
                             rng.normal(3.0, 1.0, size=(40, n_features))])
    X_labeled = rng.normal(5.0, 1.0, size=(30, n_features))
    y_labeled = rng.integers(0, 2, size=30)
    model = TargAD(TargADConfig(k=2, ae_epochs=2, clf_epochs=3, random_state=0))
    model.fit(X_unlabeled, X_labeled, y_labeled)
    X_val = np.vstack([rng.normal(size=(100, n_features)),
                       rng.normal(5.0, 1.0, size=(10, n_features))])
    y_val = np.r_[np.zeros(100, int), np.ones(10, int)]
    reference = X_unlabeled[:300]
    pipe = ScoringPipeline(model).calibrate(X_val, y_val, X_reference=reference)

    X = np.vstack([rng.normal(size=(60, n_features)), rng.normal(5.0, 1.0, size=(20, n_features))])
    bad = np.array([3, 41])
    X[3, 0] = np.nan
    X[41, 5] = np.inf
    expected = expected_for(model, X, bad, reference)
    result = pipe.process(X)
    threshold = float(pipe.threshold_)
    failures = []
    if check_alert_batch(result, expected, threshold):
        failures.append("the unperturbed batch did not pass its checks")

    if len(result.alerts) < 2 or result.scores[result.alerts[0]] == result.scores[result.alerts[-1]]:
        failures.append("the self-test batch needs two alerts with different scores")

    def bump_score(r):
        r.scores[expected.kept[0]] = np.nextafter(r.scores[expected.kept[0]], np.inf)

    def bump_ks(r):
        r.drift.statistics[0] = np.nextafter(r.drift.statistics[0], np.inf)

    def reverse_alerts(r):
        r.alerts = r.alerts[::-1].copy()

    def drop_quarantined(r):
        r.quarantined = r.quarantined[:1]

    perturbations = {
        "score": bump_score,
        "ks statistic": bump_ks,
        "alert order": reverse_alerts,
        "quarantine": drop_quarantined,
    }
    for name, perturb in perturbations.items():
        broken = copy.deepcopy(result)
        perturb(broken)
        if not check_alert_batch(broken, expected, threshold):
            failures.append(f"a perturbed {name} was not caught")
    scores = np.asarray(result.scores)[expected.kept].copy()
    scores[-1] = np.nextafter(scores[-1], -np.inf)
    if not check_scores(scores, expected.routing, expected):
        failures.append("a perturbed daemon score was not caught")
    pipe.close()
    return failures

"""Inference-time scoring rules (Eq. 9 and Section III-C)."""

from __future__ import annotations

import numpy as np

from repro.data.schema import KIND_NONTARGET, KIND_NORMAL, KIND_TARGET


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def target_anomaly_score(probs: np.ndarray, m: int) -> np.ndarray:
    """Eq. (9): ``S^tar(x) = max_{j <= m} p_j(x)``.

    Higher = more likely a target anomaly.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] <= m:
        raise ValueError("probs must be (n, m + k) with k >= 1")
    return probs[:, :m].max(axis=1)


def is_normal_rule(probs: np.ndarray, m: int, k: int) -> np.ndarray:
    """Section III-C normality test: ``Σ_{j>m} p_j > k / (m + k)``.

    Returns a boolean mask; True = classified normal, False = anomalous
    (target or non-target, to be separated by an OOD strategy).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[1] != m + k:
        raise ValueError(f"probs must have m + k = {m + k} columns")
    normal_mass = probs[:, m:].sum(axis=1)
    return normal_mass > k / (m + k)


def route_from_logits(
    logits: np.ndarray,
    probs: np.ndarray,
    m: int,
    k: int,
    strategy,
) -> np.ndarray:
    """Tri-class routing (Section III-C) from precomputed logits/probs.

    Applies :func:`is_normal_rule`, then splits the anomalous side with
    a *calibrated* :class:`~repro.ood.OODStrategy` (OOD = non-target).
    ``strategy`` may also be a zero-argument callable returning one —
    it is invoked only when anomalous rows exist, which lets
    :class:`TargAD` defer strategy calibration until routing actually
    needs it. Shared by :meth:`TargAD.predict_triclass` and
    :func:`score_and_route`. Returns the kind codes of :mod:`repro.data.schema`
    (0/1/2).
    """
    normal_mask = is_normal_rule(probs, m, k)
    result = np.full(len(logits), KIND_TARGET, dtype=np.int64)
    result[normal_mask] = KIND_NORMAL
    anomalous = ~normal_mask
    if anomalous.any():
        strat = strategy() if callable(strategy) else strategy
        ood_mask = strat.is_ood(logits[anomalous])
        anomalous_idx = np.flatnonzero(anomalous)
        result[anomalous_idx[ood_mask]] = KIND_NONTARGET
    return result


def score_and_route(logits: np.ndarray, m: int, k: int, strategy):
    """Eq. 9 scores and the tri-class route from one set of logits.

    The serving read path: :meth:`TargAD.score_batch` and the serving
    daemon's workers (:meth:`~repro.serving.sharding.ScoringSpec.score`)
    both call it, so the two paths share one definition and agree
    bitwise. ``strategy`` is as in :func:`route_from_logits`. Returns
    ``(scores, routing)``.
    """
    probs = softmax(logits)
    scores = target_anomaly_score(probs, m)
    return scores, route_from_logits(logits, probs, m, k, strategy)

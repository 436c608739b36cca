"""Covariate-drift monitoring for deployed detectors.

A detector trained on last month's traffic silently degrades when the
feature distribution moves. :class:`DriftMonitor` keeps a reference sample
of the training features and compares every incoming batch against it with
the two-sample Kolmogorov-Smirnov statistic per feature; a drift report
lists features whose statistic exceeds the threshold.

Served traffic is messier than a validation split, so the monitor is
hardened for the pipeline's call order (the drift check may see rows that
sanitization would quarantine, and real feature matrices contain one-hot
or padding columns that never vary):

- **Non-finite values** (NaN/inf from broken upstream joins) are excluded
  per feature before the KS statistic; a feature whose batch column has
  no finite values contributes statistic 0.0 (no evidence) instead of
  raising or polluting the sup-norm.
- **Constant reference features** get an exact-mass comparison instead of
  the degenerate two-sample KS: the statistic is the fraction of batch
  values that differ from the reference constant (within float
  tolerance), so float noise on a frozen column cannot manufacture a
  spurious KS = 1.0 drift event, while a genuinely moved constant still
  reports full drift.

The reference columns are sorted once at :meth:`~DriftMonitor.fit`, so a
check is one ``searchsorted`` per feature rather than a re-sort of the
reference on every served batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

#: Tolerances for "the batch value equals the constant reference value";
#: tight enough that any real shift registers, loose enough that float32
#: round-tripping or serialization noise does not.
_CONST_RTOL = 1e-9
_CONST_ATOL = 1e-12


def _finite(values: np.ndarray) -> np.ndarray:
    """The finite entries of a 1-D array (may be empty)."""
    return values[np.isfinite(values)]


def _ks_from_sorted(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    """Two-sample KS statistic given two *sorted, finite* samples."""
    grid = np.concatenate([sorted_a, sorted_b])
    cdf_a = np.searchsorted(sorted_a, grid, side="right") / len(sorted_a)
    cdf_b = np.searchsorted(sorted_b, grid, side="right") / len(sorted_b)
    return float(np.abs(cdf_a - cdf_b).max())


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup-norm of ECDF difference).

    Non-finite values carry no distributional evidence and are excluded
    before the comparison; a sample with no finite values raises
    ``ValueError`` (same contract as an empty sample).
    """
    sample_a = _finite(np.asarray(sample_a, dtype=np.float64).ravel())
    sample_b = _finite(np.asarray(sample_b, dtype=np.float64).ravel())
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise ValueError("both samples must contain at least one finite value")
    return _ks_from_sorted(np.sort(sample_a), np.sort(sample_b))


@dataclass
class DriftReport:
    """Outcome of one drift check."""

    statistics: np.ndarray
    threshold: float
    drifted_features: List[int] = field(default_factory=list)
    #: Features whose batch column had no finite values — unchecked, not
    #: drifted (their ``statistics`` entry is 0.0).
    skipped_features: List[int] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return len(self.drifted_features) > 0

    @property
    def max_statistic(self) -> float:
        return float(self.statistics.max())

    def to_dict(self) -> dict:
        """Plain-JSON view for structured events and reports."""
        return {
            "drifted": self.drifted,
            "max_ks": self.max_statistic,
            "threshold": float(self.threshold),
            "n_drifted": len(self.drifted_features),
            "drifted_features": [int(j) for j in self.drifted_features[:16]],
            "n_skipped": len(self.skipped_features),
        }

    def summary(self) -> str:
        if not self.drifted:
            return f"no drift (max KS {self.max_statistic:.3f} <= {self.threshold})"
        return (f"DRIFT on {len(self.drifted_features)} feature(s) "
                f"{self.drifted_features[:8]} (max KS {self.max_statistic:.3f})")


class DriftMonitor:
    """Per-feature KS drift detector against a training reference.

    Parameters
    ----------
    threshold:
        KS statistic above which a feature counts as drifted. With
        reference/batch sizes in the hundreds, 0.15-0.25 is a practical
        band (the asymptotic 95% critical value is ``1.36·sqrt(1/na+1/nb)``).
    max_reference:
        Reference subsample size kept per feature (at least 1).
    """

    def __init__(self, threshold: float = 0.2, max_reference: int = 2000,
                 random_state: Optional[int] = None):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if max_reference < 1:
            raise ValueError("max_reference must be at least 1")
        self.threshold = threshold
        self.max_reference = max_reference
        self.random_state = random_state
        self._reference: Optional[np.ndarray] = None
        self._sorted_cols: Optional[List[np.ndarray]] = None
        self._const_values: Optional[List[Optional[float]]] = None

    def fit(self, X_reference: np.ndarray) -> "DriftMonitor":
        """Store (a subsample of) the training features."""
        X_reference = np.asarray(X_reference, dtype=np.float64)
        if X_reference.ndim != 2 or len(X_reference) == 0:
            raise ValueError("X_reference must be a non-empty 2-D array")
        if len(X_reference) > self.max_reference:
            rng = np.random.default_rng(self.random_state)
            idx = rng.choice(len(X_reference), size=self.max_reference, replace=False)
            X_reference = X_reference[idx]
        self._reference = X_reference
        self._sorted_cols = []
        self._const_values = []
        for j in range(X_reference.shape[1]):
            col = np.sort(_finite(X_reference[:, j]))
            self._sorted_cols.append(col)
            if len(col) and col[0] == col[-1]:
                self._const_values.append(float(col[0]))
            else:
                self._const_values.append(None)
        return self

    def _feature_statistic(self, j: int, column: np.ndarray) -> Optional[float]:
        """KS-style statistic for one feature; ``None`` = no evidence."""
        reference = self._sorted_cols[j]
        values = _finite(column)
        if len(reference) == 0 or len(values) == 0:
            return None
        const = self._const_values[j]
        if const is not None:
            # Degenerate reference: the two-sample KS collapses to 0-or-1
            # on float noise. Compare mass at the constant instead — the
            # fraction of batch values that actually moved.
            moved = ~np.isclose(values, const, rtol=_CONST_RTOL, atol=_CONST_ATOL)
            return float(moved.mean())
        return _ks_from_sorted(reference, np.sort(values))

    def check(self, X_batch: np.ndarray) -> DriftReport:
        """Compare a live batch against the reference.

        Never raises on bad *values*: non-finite entries are excluded
        feature-wise, and features with no checkable values are reported
        as skipped with statistic 0.0.
        """
        if self._reference is None:
            raise RuntimeError("monitor is not fitted; call fit() first")
        X_batch = np.asarray(X_batch, dtype=np.float64)
        if X_batch.ndim != 2:
            raise ValueError(f"batch must be 2-D, got shape {X_batch.shape}")
        if X_batch.shape[1] != self._reference.shape[1]:
            raise ValueError(
                f"batch has {X_batch.shape[1]} features but the drift "
                f"reference has {self._reference.shape[1]}"
            )
        n_features = X_batch.shape[1]
        stats = np.zeros(n_features, dtype=np.float64)
        skipped: List[int] = []
        for j in range(n_features):
            statistic = self._feature_statistic(j, X_batch[:, j])
            if statistic is None:
                skipped.append(j)
            else:
                stats[j] = statistic
        drifted = np.flatnonzero(stats > self.threshold).tolist()
        return DriftReport(statistics=stats, threshold=self.threshold,
                           drifted_features=drifted, skipped_features=skipped)

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

The reference tables (sorted finite columns, their lengths, a tie table
and the constant-column flags) are built once at :meth:`~DriftMonitor.fit`.
A check sorts the batch column-wise once and evaluates both ECDFs only at
the batch's own points: one ``searchsorted`` of the sorted batch row into
the sorted reference column per feature, then vectorised arithmetic over
all features. That is O(n log n_ref) per feature instead of the
O((n_ref + n) log n_ref) of evaluating on the merged grid, and it returns
the same bits (see :meth:`DriftMonitor._ks_at_batch_points`).

:func:`ks_statistic` (and :func:`_ks_from_sorted` under it) stays the
grid-based oracle: it is not used by the monitor, and tests and the
benchmark check every monitor statistic against it bitwise.
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
        # Reference tables, built once at fit (see _build_tables).
        self._sorted: Optional[np.ndarray] = None
        self._sorted_cols: Optional[List[np.ndarray]] = None
        self._tie_start: Optional[np.ndarray] = None
        self._n_reference: Optional[np.ndarray] = None
        self._constant: Optional[np.ndarray] = None

    def fit(self, X_reference: np.ndarray) -> "DriftMonitor":
        """Store (a subsample of) the training features."""
        X_reference = np.asarray(X_reference, dtype=np.float64)
        if X_reference.ndim != 2 or len(X_reference) == 0:
            raise ValueError("X_reference must be a non-empty 2-D array")
        if X_reference.shape[1] == 0:
            # Every report would then reduce an empty statistics array.
            raise ValueError(
                f"X_reference must have at least one feature, got width 0 "
                f"(shape {X_reference.shape})"
            )
        if len(X_reference) > self.max_reference:
            rng = np.random.default_rng(self.random_state)
            idx = rng.choice(len(X_reference), size=self.max_reference, replace=False)
            X_reference = X_reference[idx]
        self._reference = X_reference
        self._build_tables(X_reference)
        return self

    def _build_tables(self, X_reference: np.ndarray) -> None:
        """Per-feature reference tables indexed by ``c = #ref <= b``.

        Row ``j`` of ``_sorted`` is NaN followed by the sorted finite
        reference values of feature ``j`` (NaN-padded), so entry ``c`` is
        the largest reference value ``<= b``; entry 0 never equals a batch
        value. Entry ``c`` of ``_tie_start`` counts the reference values
        strictly below entry ``c``: when ``b`` equals entry ``c`` that is
        ``#ref < b``, otherwise ``#ref < b`` is ``c`` itself.
        """
        finite = np.isfinite(X_reference)
        self._n_reference = finite.sum(axis=0)
        n_features, width = X_reference.shape[1], X_reference.shape[0]
        self._sorted = np.empty((n_features, width + 1))
        self._sorted[:, 0] = np.nan
        sorted_ref = self._sorted[:, 1:]
        np.copyto(sorted_ref, np.nan)
        np.copyto(sorted_ref, X_reference.T, where=finite.T)
        sorted_ref.sort(axis=1)
        self._sorted_cols = [row[1:n + 1] for row, n in zip(self._sorted, self._n_reference)]
        # Built in place (int32 halves the table): position where a new
        # value starts, carried forward over its run of ties.
        self._tie_start = np.zeros(self._sorted.shape, dtype=np.int32)
        tie_start = self._tie_start[:, 1:]
        tie_start[:, 1:] = sorted_ref[:, 1:] != sorted_ref[:, :-1]
        tie_start *= np.arange(width, dtype=np.int32)
        np.maximum.accumulate(tie_start, axis=1, out=tie_start)
        # NaN first/last entries (an all-non-finite column) compare unequal.
        self._constant = self._sorted[:, 1] == self._sorted[np.arange(n_features), self._n_reference]

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
        # One row per feature, sorted, non-finite entries (as NaN) last.
        finite = np.isfinite(X_batch.T)
        n_batch = finite.sum(axis=1)
        columns = np.where(finite, X_batch.T, np.nan)
        columns.sort(axis=1)
        in_batch = np.arange(len(X_batch)) < n_batch[:, None]

        skipped = (n_batch == 0) | (self._n_reference == 0)
        stats = np.where(skipped | self._constant, 0.0,
                         self._ks_at_batch_points(columns, n_batch, in_batch))
        const = np.flatnonzero(~skipped & self._constant)
        if len(const):
            # Degenerate reference: the two-sample KS collapses to 0-or-1
            # on float noise. Compare mass at the constant instead — the
            # fraction of batch values that actually moved.
            moved = ~np.isclose(columns[const], self._sorted[const, 1, None],
                                rtol=_CONST_RTOL, atol=_CONST_ATOL)
            stats[const] = (moved & in_batch[const]).sum(axis=1) / n_batch[const]

        drifted = np.flatnonzero(stats > self.threshold).tolist()
        return DriftReport(statistics=stats, threshold=self.threshold,
                           drifted_features=drifted,
                           skipped_features=np.flatnonzero(skipped).tolist())

    def _ks_at_batch_points(self, columns: np.ndarray, n_batch: np.ndarray,
                            in_batch: np.ndarray) -> np.ndarray:
        """KS statistic of every sorted batch row against its reference column.

        Between consecutive batch values the batch ECDF is flat and the
        reference ECDF is monotone, so the sup-norm is reached either at a
        batch value ``b`` — pair ``(#ref <= b, #batch <= b)``, read at the
        last element of each run of equal values — or just below it —
        pair ``(#ref < b, #batch < b)``, read at the first element. Both
        are pairs :func:`_ks_from_sorted` evaluates on its merged grid,
        as the same ``count / n`` divisions, so the maximum is the same
        float. Rows the caller discards (skipped or constant features)
        are computed with safe denominators and ignored.
        """
        at_or_below = np.empty(columns.shape, dtype=np.int64)
        for j, reference in enumerate(self._sorted_cols):
            at_or_below[j] = reference.searchsorted(columns[j], side="right")
        flat = at_or_below + np.arange(len(columns))[:, None] * self._sorted.shape[1]
        gap = self._sorted.take(flat)
        tied = gap == columns
        below = self._tie_start.take(flat)
        del flat
        np.copyto(below, at_or_below, casting="same_kind", where=~tied)

        run_start = np.ones(columns.shape, dtype=bool)
        np.not_equal(columns[:, 1:], columns[:, :-1], out=run_start[:, 1:])
        run_end = np.ones(columns.shape, dtype=bool)
        run_end[:, :-1] = run_start[:, 1:]
        run_start &= in_batch
        run_end &= in_batch

        n_reference = np.maximum(self._n_reference, 1)[:, None]
        batch_cdf = np.arange(columns.shape[1] + 1) / np.maximum(n_batch, 1)[:, None]
        np.divide(at_or_below, n_reference, out=gap)
        gap -= batch_cdf[:, 1:]
        np.abs(gap, out=gap)
        gap *= run_end
        at = gap.max(axis=1, initial=0.0)
        np.divide(below, n_reference, out=gap)
        gap -= batch_cdf[:, :-1]
        np.abs(gap, out=gap)
        gap *= run_start
        return np.maximum(at, gap.max(axis=1, initial=0.0))

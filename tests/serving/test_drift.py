"""Drift monitoring."""

import numpy as np
import pytest

from repro.serving import DriftMonitor
from repro.serving.drift import ks_statistic


class TestKSStatistic:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(0).standard_normal(300)
        assert ks_statistic(x, x) == pytest.approx(0.0)

    def test_disjoint_samples_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50)) == pytest.approx(1.0)

    def test_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(1)
        a = rng.standard_normal(200)
        b = rng.standard_normal(150) + 0.4
        assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.ones(3))


class TestDriftMonitor:
    def test_no_drift_on_same_distribution(self, rng):
        reference = rng.normal(0, 1, size=(800, 4))
        batch = rng.normal(0, 1, size=(400, 4))
        report = DriftMonitor(threshold=0.15).fit(reference).check(batch)
        assert not report.drifted

    def test_detects_shifted_feature(self, rng):
        reference = rng.normal(0, 1, size=(800, 4))
        batch = rng.normal(0, 1, size=(400, 4))
        batch[:, 2] += 2.0
        report = DriftMonitor(threshold=0.15).fit(reference).check(batch)
        assert report.drifted
        assert report.drifted_features == [2]
        assert "DRIFT" in report.summary()

    def test_reference_subsampled(self, rng):
        reference = rng.normal(0, 1, size=(10_000, 3))
        monitor = DriftMonitor(max_reference=500, random_state=0).fit(reference)
        assert len(monitor._reference) == 500

    def test_feature_count_mismatch_rejected(self, rng):
        monitor = DriftMonitor().fit(rng.normal(size=(100, 3)))
        with pytest.raises(ValueError):
            monitor.check(rng.normal(size=(10, 4)))

    def test_unfitted_rejected(self, rng):
        with pytest.raises(RuntimeError):
            DriftMonitor().check(rng.normal(size=(10, 3)))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DriftMonitor(threshold=0.0)

    @pytest.mark.parametrize("max_reference", [0, -1])
    def test_invalid_max_reference(self, max_reference):
        # An empty reference would skip every feature and never report drift.
        with pytest.raises(ValueError, match="max_reference"):
            DriftMonitor(max_reference=max_reference)


    def test_zero_width_reference_rejected(self):
        # A width-0 monitor would build reports whose max_statistic,
        # summary() and to_dict() reduce an empty statistics array.
        with pytest.raises(ValueError, match="width 0"):
            DriftMonitor().fit(np.zeros((5, 0)))


class TestRobustness:
    """Degenerate references and hostile batches must not raise or
    manufacture spurious drift."""

    def test_constant_feature_no_spurious_drift(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        reference[:, 1] = 7.0  # constant column (e.g. a dead sensor)
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:, 1] = 7.0
        report = monitor.check(batch)
        assert 1 not in report.drifted_features
        assert report.statistics[1] == pytest.approx(0.0)

    def test_constant_feature_tolerates_float_noise(self, rng):
        reference = rng.normal(0, 1, size=(500, 2))
        reference[:, 0] = 3.0
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 2))
        batch[:, 0] = 3.0 + 1e-13  # numerically identical, bit-different
        report = monitor.check(batch)
        assert report.statistics[0] == pytest.approx(0.0)

    def test_constant_feature_still_detects_a_real_move(self, rng):
        reference = rng.normal(0, 1, size=(500, 2))
        reference[:, 0] = 3.0
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 2))
        batch[:, 0] = 4.5  # the dead sensor came back different
        report = monitor.check(batch)
        assert report.statistics[0] == pytest.approx(1.0)
        assert 0 in report.drifted_features

    def test_nan_rows_do_not_raise_or_drift(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:50, 0] = np.nan
        batch[10:20, 2] = np.inf
        report = monitor.check(batch)  # must not raise
        assert not report.drifted
        assert report.skipped_features == []

    def test_all_nan_feature_skipped_not_drifted(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(100, 3))
        batch[:, 1] = np.nan
        report = monitor.check(batch)
        assert report.skipped_features == [1]
        assert report.statistics[1] == pytest.approx(0.0)
        assert 1 not in report.drifted_features

    def test_entirely_nonfinite_batch_skips_everything(self, rng):
        reference = rng.normal(0, 1, size=(300, 2))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        report = monitor.check(np.full((50, 2), np.nan))
        assert not report.drifted
        assert report.skipped_features == [0, 1]
        assert report.to_dict()["n_skipped"] == 2

    def test_report_to_dict_round_trip_fields(self, rng):
        reference = rng.normal(0, 1, size=(400, 3))
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:, 0] += 2.0
        d = DriftMonitor(threshold=0.15).fit(reference).check(batch).to_dict()
        assert d["drifted"] is True
        assert d["drifted_features"] == [0]
        assert d["max_ks"] > 0.15 and d["threshold"] == pytest.approx(0.15)

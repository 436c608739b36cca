"""Scoring pipeline end-to-end."""

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.data.schema import KIND_TARGET
from repro.serving import ScoringPipeline, ServingDaemon, build_scoring_spec
from repro.serving.executor import DaemonExecutor


@pytest.fixture(scope="module")
def fitted():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15, clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


class TestCalibration:
    def test_f1_policy(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1")
        pipe.calibrate(split.X_val, split.y_val_binary)
        assert 0.0 <= pipe.threshold_ <= 1.0

    def test_recall_policy_catches_target_fraction(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="recall", target_recall=0.8)
        pipe.calibrate(split.X_val, split.y_val_binary)
        scores = model.decision_function(split.X_val)
        y = split.y_val_binary
        recall = ((scores >= pipe.threshold_) & (y == 1)).sum() / y.sum()
        assert recall >= 0.8

    def test_budget_policy_needs_no_labels(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", review_budget=25)
        pipe.calibrate(split.X_val)
        scores = model.decision_function(split.X_val)
        assert (scores >= pipe.threshold_).sum() == 25

    def test_supervised_policy_without_labels_rejected(self, fitted):
        model, split = fitted
        with pytest.raises(ValueError, match="needs y_val"):
            ScoringPipeline(model, policy="f1").calibrate(split.X_val)

    def test_invalid_policy(self, fitted):
        model, _ = fitted
        with pytest.raises(ValueError):
            ScoringPipeline(model, policy="vibes")

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError):
            ScoringPipeline(TargAD(TargADConfig()))


class TestProcessing:
    def test_alert_batch_structure(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        assert len(batch.scores) == len(split.X_test)
        assert batch.routing.shape == (len(split.X_test),)
        assert "scored" in batch.summary()

    def test_alerts_sorted_by_score(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        alert_scores = batch.scores[batch.alerts]
        assert np.all(np.diff(alert_scores) <= 1e-12)

    def test_alerts_are_routed_targets_above_threshold(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        assert np.all(batch.scores[batch.alerts] >= batch.threshold)
        assert np.all(batch.routing[batch.alerts] == KIND_TARGET)

    def test_alert_quality(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        if batch.n_alerts:
            precision = (split.test_kind[batch.alerts] == KIND_TARGET).mean()
            assert precision > 0.5

    def test_drift_detected_on_shifted_batch(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", review_budget=10,
                               drift_threshold=0.25)
        pipe.calibrate(split.X_val, X_reference=split.X_unlabeled)
        clean = pipe.process(split.X_test)
        assert clean.drift is not None and not clean.drift.drifted
        shifted = split.X_test.copy()
        shifted[:, 0] = np.clip(shifted[:, 0] + 0.7, 0, 1.5)
        drifted = pipe.process(shifted)
        assert drifted.drift.drifted

    def test_uncalibrated_process_rejected(self, fitted):
        model, split = fitted
        with pytest.raises(RuntimeError, match="not calibrated"):
            ScoringPipeline(model).process(split.X_test)

    def test_drift_disabled(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", monitor_drift=False)
        pipe.calibrate(split.X_val)
        assert pipe.process(split.X_test).drift is None


class TestExecutorArgument:
    def test_default_is_inline_only(self, fitted):
        model, _ = fitted
        pipe = ScoringPipeline(model)
        assert [ex.name for ex in pipe.chain] == ["inline"]

    def test_close_shuts_down_only_the_owned_daemon(self, fitted):
        model, split = fitted
        with ServingDaemon(build_scoring_spec(model, "ed")) as shared:
            caller_owned = ScoringPipeline(model, policy="budget",
                                           executor=shared)
            owning = ScoringPipeline(model, policy="budget", executor="daemon")
            for pipe in (caller_owned, owning):
                pipe.calibrate(split.X_val).process(split.X_test)
                assert pipe.chain.last_executor == "daemon"
            owned = owning.chain.find(DaemonExecutor).daemon
            assert owned is not None and owned is not shared
            caller_owned.close()
            owning.close()
            assert shared.alive
            assert not owned.alive

    @pytest.mark.parametrize("bad", ["sharded", "Daemon", None, True])
    def test_bad_executor_value_rejected(self, fitted, bad):
        model, _ = fitted
        with pytest.raises(ValueError, match="ServingDaemon"):
            ScoringPipeline(model, executor=bad)

"""Telemetry across all three instrumented layers, plus the overhead guard.

One registry must collect the candidate-selection, classifier-training,
and serving series of a full fit → calibrate → process cycle; and the
enabled path must stay cheap (design budget < 3% — asserted below with a
generous margin because CI wall clocks are noisy).
"""

import time

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.obs import TelemetryRegistry, render_dashboard, snapshot_to_dict
from repro.serving import ScoringPipeline

FAST = dict(k=2, ae_epochs=4, clf_epochs=8, clf_batch_size=64)


def _make_data(seed=0, n=400, d=10):
    rng = np.random.default_rng(seed)
    X_unlabeled = rng.normal(size=(n, d))
    X_unlabeled[: n // 20] += 4.0            # contamination
    X_labeled = rng.normal(size=(16, d)) + 6.0
    y_labeled = np.zeros(16, dtype=np.int64)
    X_val = rng.normal(size=(120, d))
    X_val[:12] += 6.0
    y_val = np.zeros(120, dtype=np.int64)
    y_val[:12] = 1
    X_live = rng.normal(size=(80, d))
    return X_unlabeled, X_labeled, y_labeled, X_val, y_val, X_live


def _run_cycle(telemetry, seed=0):
    X_unlabeled, X_labeled, y_labeled, X_val, y_val, X_live = _make_data(seed)
    model = TargAD(TargADConfig(random_state=seed, **FAST), telemetry=telemetry)
    model.fit(X_unlabeled, X_labeled, y_labeled)
    pipe = ScoringPipeline(model, policy="f1", telemetry=telemetry)
    pipe.calibrate(X_val, y_val, X_reference=X_unlabeled)
    pipe.process(X_live)
    pipe.process(X_live + 8.0)               # shifted batch -> drift event
    return model, pipe


@pytest.mark.telemetry
class TestThreeLayerIntegration:
    @pytest.fixture(scope="class")
    def registry(self):
        registry = TelemetryRegistry()
        _run_cycle(registry)
        return registry

    def test_candidate_selection_layer_recorded(self, registry):
        assert registry.timer_stats("select.total").count == 1
        ae_stats = registry.timer_stats("select.ae_fit")
        assert ae_stats.count == FAST["k"]           # one AE per cluster
        assert ae_stats.total > 0
        clusters = registry.events.by_name("select.cluster")
        assert len(clusters) == FAST["k"]
        assert sum(e.fields["size"] for e in clusters) == 400
        assert registry.counter("select.candidates") == max(round(0.05 * 400), 1)
        assert registry.gauge("select.k") == FAST["k"]

    def test_training_layer_recorded(self, registry):
        assert registry.timer_stats("train.epoch").count == FAST["clf_epochs"]
        assert registry.counter("train.epochs") == FAST["clf_epochs"]
        assert registry.counter("train.rows") > 0
        epochs = registry.events.by_name("train.epoch")
        assert [e.fields["epoch"] for e in epochs] == list(range(FAST["clf_epochs"]))
        for event in epochs:
            assert np.isfinite(event.fields["loss"])
            assert 0.0 <= event.fields["weight_mean"] <= 1.0
            assert 0.0 <= event.fields["weight_frac_above_median"] <= 1.0
            assert event.fields["rows_per_sec"] > 0
        # Phase timers nest sensibly: phases sum to no more than the total.
        total = registry.timer_stats("fit.total").total
        parts = sum(
            registry.timer_stats(name).total
            for name in ("fit.candidate_selection", "fit.classifier", "fit.calibration")
        )
        assert parts <= total * 1.01

    def test_serving_layer_recorded(self, registry):
        assert registry.timer_stats("serve.process").count == 2
        assert registry.counter("serve.batches") == 2
        assert registry.counter("serve.rows") == 160
        assert registry.counter("serve.drift_events") >= 1
        batches = registry.events.by_name("serve.batch")
        assert len(batches) == 2
        assert batches[1].fields["drifted"] is True
        # The tri-class route mix plus quarantined rows accounts for
        # every row of the batch.
        for event in batches:
            f = event.fields
            routed = f["n_normal"] + f["n_target"] + f["n_nontarget"]
            assert routed + f["n_quarantined"] == f["n"]
            assert f["n_nontarget"] == f["n_deferred"]
        assert registry.events.by_name("serve.calibrated")

    def test_dashboard_and_snapshot_cover_all_layers(self, registry):
        dashboard = render_dashboard(registry)
        for needle in ("select.ae_fit", "train.epoch", "serve.process",
                       "training loss / epoch"):
            assert needle in dashboard
        snapshot = snapshot_to_dict(registry)
        assert {"select.total", "fit.total", "serve.process"} <= set(snapshot["timers"])

    def test_model_results_identical_with_and_without_telemetry(self):
        """Instrumentation must not perturb the numerics."""
        model_on, _ = _run_cycle(TelemetryRegistry(), seed=1)
        model_off, _ = _run_cycle(None, seed=1)
        X = _make_data(1)[5]
        np.testing.assert_array_equal(
            model_on.decision_function(X), model_off.decision_function(X)
        )
        assert model_on.loss_history == model_off.loss_history


@pytest.mark.telemetry
@pytest.mark.slow
def test_enabled_telemetry_overhead_is_small():
    """Enabled telemetry must stay cheap (< 3% design budget).

    Wall-clock comparisons are noisy in CI, so this asserts a generous 50%
    ceiling on a min-of-3 measurement — an order of magnitude above the
    design budget, but still tight enough to catch accidental O(n) work
    (e.g. a per-row event or an unbounded history) in the hot loops.
    """
    def measure(telemetry_factory):
        best = float("inf")
        for _ in range(3):
            telemetry = telemetry_factory()
            start = time.perf_counter()
            _run_cycle(telemetry)
            best = min(best, time.perf_counter() - start)
        return best

    _run_cycle(None)                          # warm-up (imports, caches)
    disabled = measure(lambda: None)
    enabled = measure(TelemetryRegistry)
    assert enabled <= disabled * 1.5 + 0.05, (
        f"enabled telemetry took {enabled:.3f}s vs {disabled:.3f}s disabled"
    )

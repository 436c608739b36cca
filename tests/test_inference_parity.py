"""End-to-end parity: compiled serve path vs the autodiff graph path.

Acceptance contract for the compiled graph-free inference migration:
every hot read path — TargAD scoring/routing, candidate-selection
reconstruction errors, the serving fallback, and the neural baselines —
must agree with the Tensor-graph forward to atol 1e-9 at float64 (the
kernels actually achieve bitwise equality), and the serving pipeline
must construct zero Tensor objects per batch.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import TargAD, TargADConfig
from repro.nn import force_graph_forward
from repro.resilience import ReconstructionFallback
from repro.serving import ScoringPipeline

ATOL = 1e-9


@pytest.fixture(scope="module")
def fitted():
    from repro.data.splits import build_split
    from tests.conftest import TINY_SPEC, make_tiny_generator

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


class TestTargADParity:
    def test_logits_proba_and_scores(self, fitted):
        model, split = fitted
        X = split.X_test
        with force_graph_forward():
            logits_g = model.logits(X)
            proba_g = model.predict_proba_full(X)
            scores_g = model.decision_function(X)
        np.testing.assert_allclose(model.logits(X), logits_g, atol=ATOL)
        np.testing.assert_allclose(model.predict_proba_full(X), proba_g, atol=ATOL)
        np.testing.assert_allclose(model.decision_function(X), scores_g, atol=ATOL)
        # The compiled kernels replay the graph's fp op sequence exactly.
        np.testing.assert_array_equal(model.logits(X), logits_g)

    @pytest.mark.parametrize("strategy", ["ed", "es", "msp"])
    def test_triclass_routing_identical(self, fitted, strategy):
        model, split = fitted
        X = split.X_test
        with force_graph_forward():
            routing_g = model.predict_triclass(X, strategy=strategy)
        np.testing.assert_array_equal(
            model.predict_triclass(X, strategy=strategy), routing_g
        )

    def test_score_batch_matches_unfused_calls(self, fitted):
        model, split = fitted
        X = split.X_test
        scores, routing = model.score_batch(X)
        np.testing.assert_array_equal(scores, model.decision_function(X))
        np.testing.assert_array_equal(routing, model.predict_triclass(X))


class TestSelectorAndFallbackParity:
    def test_candidate_selector_reconstruction_error(self, fitted):
        model, split = fitted
        X = split.X_test
        with force_graph_forward():
            errors_g = model.selector_.reconstruction_error(X)
        np.testing.assert_allclose(
            model.selector_.reconstruction_error(X), errors_g, atol=ATOL
        )

    def test_reconstruction_fallback_score(self, fitted):
        model, split = fitted
        with force_graph_forward():
            fb_g = ReconstructionFallback(model).calibrate(split.X_val, 0.1)
            scores_g = fb_g.score(split.X_test)
        fb = ReconstructionFallback(model).calibrate(split.X_val, 0.1)
        np.testing.assert_allclose(fb.score(split.X_test), scores_g, atol=ATOL)


class TestServingIsGraphFree:
    def test_pipeline_process_builds_no_tensors(self, fitted, monkeypatch):
        """The serve path must stay off the autodiff graph entirely."""
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", review_budget=10,
                               monitor_drift=False)
        pipe.calibrate(split.X_val)
        constructed = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        batch = pipe.process(split.X_test)
        assert len(batch.scores) == len(split.X_test)
        assert not constructed, (
            f"serve path constructed {len(constructed)} Tensor objects"
        )

    def test_fallback_score_builds_no_tensors(self, fitted, monkeypatch):
        model, split = fitted
        fallback = ReconstructionFallback(model).calibrate(split.X_val, 0.1)
        constructed = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        fallback.score(split.X_test)
        assert not constructed


class TestBaselineParity:
    """Every neural baseline's decision_function runs on the compiled plan."""

    @pytest.fixture(scope="class")
    def workload(self, blobs):
        inliers, outliers = blobs
        X_unlabeled = np.vstack([inliers, outliers[:5]])
        X_labeled = outliers[5:12]
        y_labeled = np.zeros(len(X_labeled), dtype=np.int64)
        X_test = np.vstack([inliers[:60], outliers[12:]])
        return X_unlabeled, X_labeled, y_labeled, X_test

    @pytest.mark.parametrize("name", [
        "REPEN", "ADOA", "FEAWAD", "PUMAD", "DevNet", "DeepSAD",
        "DPLAN", "PIA-WAL", "Dual-MGAN", "PReNet",
    ])
    def test_decision_function_parity(self, name, workload):
        from tests.baselines.test_all_detectors import make_detector

        X_unlabeled, X_labeled, y_labeled, X_test = workload
        detector = make_detector(name, seed=0)
        detector.fit(X_unlabeled, X_labeled, y_labeled)
        compiled = detector.decision_function(X_test)
        with force_graph_forward():
            graphed = detector.decision_function(X_test)
        np.testing.assert_allclose(compiled, graphed, atol=ATOL)

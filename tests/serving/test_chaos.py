"""Chaos scenarios: the pipeline under injected faults never raises.

The acceptance scenario: a fault plan takes the primary scorer down, the
breaker trips within ``failure_threshold`` batches, batches are served
degraded by the reconstruction fallback, and after the cooldown a
half-open probe restores the primary — with the trip and recovery on the
telemetry record.
"""

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.data.schema import KIND_NORMAL, KIND_TARGET
from repro.obs import TelemetryRegistry
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    FaultyModel,
    ManualClock,
    corrupt_rows,
)
from repro.serving import ROUTE_QUARANTINED, ScoringPipeline
from repro.serving.daemon import ServingDaemon
from repro.serving.executor import DaemonExecutor
from repro.serving.sharding import build_scoring_spec

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def fitted():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


def make_pipeline(model, split, plan, registry, clock, **breaker_kwargs):
    defaults = dict(failure_threshold=2, cooldown=30.0)
    defaults.update(breaker_kwargs)
    breaker = CircuitBreaker(clock=clock, telemetry=registry, **defaults)
    pipe = ScoringPipeline(model, policy="budget", review_budget=10,
                           circuit_breaker=breaker, telemetry=registry,
                           monitor_drift=False)
    pipe.calibrate(split.X_val)
    # Wrap after calibration so plan call indices count serving batches.
    pipe.model = FaultyModel(model, plan, sleep=lambda s: None,
                             telemetry=registry)
    return pipe, breaker


class TestChaosEndToEnd:
    def test_trip_degrade_and_half_open_recovery(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(raise_on=(1, 2), seed=0)
        pipe, breaker = make_pipeline(model, split, plan, registry, clock)

        degraded = []
        for _ in range(5):
            batch = pipe.process(split.X_test)  # must never raise
            degraded.append(batch.degraded)
            clock.advance(40.0)  # past the cooldown before the next batch

        # Batches 1-2 fault (degraded, trip on the 2nd = failure_threshold);
        # batch 3 is the successful half-open probe back on the primary.
        assert degraded == [True, True, False, False, False]
        names = [e.name for e in registry.events]
        assert names.count("resilience.breaker.trip") == 1
        assert names.count("resilience.breaker.recover") == 1
        assert registry.counters["resilience.degraded_batches"] == 2
        assert registry.counters["resilience.scoring_faults"] == 2
        assert breaker.state == "closed"

    def test_open_breaker_serves_fallback_without_touching_primary(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(raise_on=(1, 2), seed=0)
        pipe, breaker = make_pipeline(model, split, plan, registry, clock)

        for _ in range(2):
            pipe.process(split.X_test)
        assert breaker.state == "open"
        calls_before = pipe.model.calls
        batch = pipe.process(split.X_test)  # within cooldown: no primary call
        assert batch.degraded
        assert pipe.model.calls == calls_before

    def test_nan_scores_count_as_faults_and_trip(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(nan_fraction=0.2, seed=3)  # every call corrupted
        pipe, breaker = make_pipeline(model, split, plan, registry, clock)

        first = pipe.process(split.X_test)
        second = pipe.process(split.X_test)
        assert first.degraded and second.degraded
        assert np.all(np.isfinite(first.scores[first.scored]))
        assert breaker.state == "open"
        assert registry.counters["resilience.scoring_faults"] == 2

    def test_degraded_batch_flags_anomalies_conservatively(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(raise_on=(1,), seed=0)
        pipe, _ = make_pipeline(model, split, plan, registry, clock)

        batch = pipe.process(split.X_test)
        assert batch.degraded
        assert batch.threshold == pipe.fallback.threshold_
        # Fallback routing is binary: analyst queue or normal, never deferred.
        scored_routes = set(batch.routing[batch.scored].tolist())
        assert scored_routes <= {KIND_NORMAL, KIND_TARGET}
        assert len(batch.deferred) == 0
        if batch.n_alerts:
            assert np.all(batch.scores[batch.alerts] >= batch.threshold)

    def test_quarantine_and_faults_compose(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(raise_on=(1,), seed=0)
        pipe, _ = make_pipeline(model, split, plan, registry, clock)

        X = corrupt_rows(split.X_test, 0.1, np.random.default_rng(5))
        batch = pipe.process(X)  # bad rows + primary fault in one batch
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        assert np.array_equal(np.sort(batch.quarantined), bad)
        assert np.all(batch.routing[batch.quarantined] == ROUTE_QUARANTINED)
        assert np.all(np.isnan(batch.scores[batch.quarantined]))
        assert batch.degraded
        assert registry.counters["resilience.quarantine"] == len(bad)
        # Index sets partition the original batch.
        assert len(batch.scored) + len(batch.quarantined) == len(X)

    def test_latency_fault_is_observable_but_harmless(self, fitted):
        model, split = fitted
        registry = TelemetryRegistry()
        clock = ManualClock()
        plan = FaultPlan(latency=0.5, seed=0)
        pipe, breaker = make_pipeline(model, split, plan, registry, clock)

        batch = pipe.process(split.X_test)
        assert not batch.degraded
        assert breaker.state == "closed"


class TestSwapChaos:
    """Swap-phase fault plans: every injected fault must leave the old
    generation serving correctly — no dropped batches, breaker closed."""

    def _manager(self, model, split, injector, registry=None, **policy_kwargs):
        from repro.lifecycle import DriftPolicy, LifecycleManager

        pipe = ScoringPipeline(model, policy="f1", drift_threshold=0.3,
                               telemetry=registry)
        pipe.calibrate(split.X_val, split.y_val_binary,
                       X_reference=split.X_unlabeled)
        defaults = dict(confirm_checks=2, cooldown_batches=4,
                        refit_epochs=2, min_auprc_ratio=0.3)
        defaults.update(policy_kwargs)
        return LifecycleManager(
            pipe, split.X_unlabeled, split.X_labeled, split.y_labeled,
            split.X_val, split.y_val_binary,
            policy=DriftPolicy(**defaults),
            fault_injector=injector, telemetry=registry, seed=0,
        )

    @pytest.mark.parametrize("phase", [
        "assemble", "label", "refit", "validate", "stage", "push", "flip",
    ])
    def test_every_swap_phase_fault_leaves_old_generation_serving(
        self, fitted, phase
    ):
        from repro.resilience import SwapFaultInjector, SwapFaultPlan

        model, split = fitted
        injector = SwapFaultInjector(SwapFaultPlan(fail_phases=(phase,)))
        manager = self._manager(model, split, injector)
        before = manager.pipeline.process(split.X_test[:80])

        for i in range(2):
            batch = manager.process(split.X_test[:60] + 6.0)
            assert np.isfinite(batch.scores[batch.scored]).all()

        assert injector.fired == [(1, phase)]
        assert manager.pipeline.generation == 0
        rollbacks = [e for e in manager.history if e.kind == "rollback"]
        assert len(rollbacks) == 1
        # Manager-side phases are recorded verbatim; pipeline-side phases
        # (stage/push/flip) surface as the manager's "swap" step wrapped
        # in a SwapError.
        if phase in ("assemble", "label", "refit", "validate"):
            assert rollbacks[0].details["phase"] == phase
            assert rollbacks[0].details["error"] == "InjectedFault"
        else:
            assert rollbacks[0].details["phase"] == "swap"
            assert rollbacks[0].details["error"] == "SwapError"
        # The old generation still serves, bitwise unchanged.
        after = manager.pipeline.process(split.X_test[:80])
        np.testing.assert_array_equal(after.scores, before.scores)
        np.testing.assert_array_equal(after.routing, before.routing)
        assert manager.pipeline.circuit_breaker.state == "closed"

    def test_crash_during_refit_then_checkpoint_recovery(self, fitted, tmp_path):
        """A refit crash leaves torn checkpoints; recovery resumes from
        the newest readable one and the recovered model hot-swaps in."""
        from repro.resilience import latest_checkpoint, list_checkpoints

        model, split = fitted
        config = TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                              clf_epochs=20)

        class KillAt:
            def __init__(self, epoch):
                self.epoch = epoch

            def __call__(self, epoch, _model):
                if epoch == self.epoch:
                    raise KeyboardInterrupt("simulated crash mid-refit")

        candidate = TargAD(config)
        with pytest.raises(KeyboardInterrupt):
            candidate.incremental_fit(
                split.X_unlabeled, split.X_labeled, split.y_labeled,
                donor=model, epochs=6, checkpoint_dir=tmp_path,
                epoch_callback=KillAt(4),
            )
        # The crash also tore the newest checkpoint (corrupt candidate).
        paths = list_checkpoints(tmp_path)
        assert paths
        paths[-1].write_bytes(paths[-1].read_bytes()[:50])
        assert latest_checkpoint(tmp_path) != paths[-1]

        recovered = TargAD(config)
        recovered.incremental_fit(
            split.X_unlabeled, split.X_labeled, split.y_labeled,
            donor=model, epochs=6, checkpoint_dir=tmp_path, resume=True,
        )
        pipe = ScoringPipeline(model, policy="f1", monitor_drift=False)
        pipe.calibrate(split.X_val, split.y_val_binary)
        pipe.swap_model(recovered, split.X_val, split.y_val_binary)
        assert pipe.generation == 1
        batch = pipe.process(split.X_test[:80])
        assert np.isfinite(batch.scores[batch.scored]).all()

    def test_fault_mid_swap_with_inflight_daemon_batches(self, fitted):
        """Chaos at the flip while a daemon is serving concurrent traffic:
        every in-flight batch is answered, the old spec keeps serving."""
        import threading

        from repro.resilience import SwapError

        model, split = fitted
        config = TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                              clf_epochs=20)
        candidate = TargAD(config)
        candidate.incremental_fit(
            split.X_unlabeled + 0.2, split.X_labeled, split.y_labeled,
            donor=model, epochs=2,
        )
        registry = TelemetryRegistry()
        daemon = ServingDaemon(build_scoring_spec(model, "ed"), n_workers=2,
                               telemetry=registry).start()
        pipe = ScoringPipeline(model, policy="f1", executor=daemon,
                               monitor_drift=False, telemetry=registry)
        pipe.calibrate(split.X_val, split.y_val_binary)
        X = split.X_test[:96]
        try:
            before = pipe.process(X)
            assert pipe.chain.last_executor == "daemon"

            results, errors = [], []
            stop = threading.Event()

            def hammer():
                try:
                    while not stop.is_set():
                        results.append(pipe.process(X))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:

                def fire(phase):
                    if phase == "flip":
                        raise RuntimeError("chaos mid-swap")

                with pytest.raises(SwapError, match="during flip"):
                    pipe.swap_model(candidate, split.X_val,
                                    split.y_val_binary, fault_points=fire)
            finally:
                stop.set()
                thread.join(60.0)

            assert not errors
            assert results  # traffic flowed throughout the failed swap
            for batch in results:
                assert np.isfinite(batch.scores[batch.scored]).all()
            assert pipe.generation == 0 and pipe.model is model
            after = pipe.process(X)
            np.testing.assert_array_equal(after.scores, before.scores)
            np.testing.assert_array_equal(after.routing, before.routing)
            assert pipe.chain.find(DaemonExecutor).alive and daemon.alive
            assert registry.counters.get("resilience.breaker.trips", 0) == 0
            assert pipe.circuit_breaker.state == "closed"
        finally:
            pipe.close()
            daemon.close()

"""Serving daemon: parity, micro-batching, failure taxonomy, respawn.

The contract under test: the ``ScoringSpec`` pickle round-trip that
carries a fitted model into worker processes reproduces
``model.score_batch`` exactly, and a daemon-backed
``ScoringPipeline.process`` is *bitwise identical* to the
single-process pipeline (scores, routing, alert order, quarantine,
degraded-fallback batches), worker model faults flow through the
circuit-breaker guardrails with their original exception type, daemon
infrastructure failures fall back to single-process scoring without
touching the breaker, and a killed worker is detected and respawned.
"""

import pickle

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.obs import TelemetryRegistry
from repro.resilience import CircuitBreaker, ManualClock
from repro.serving import ScoringPipeline
from repro.serving.daemon import DaemonUnavailable, ServingDaemon
from repro.serving.executor import DaemonExecutor
from repro.serving.replay import ReplaySpec, build_schedule, replay_daemon
from repro.serving.sharding import ScoringSpec, build_scoring_spec


#: Per-request score tolerance of a request coalesced into a larger
#: dispatch, against scoring that request alone (docs/api.md).
COALESCED_ATOL = 1e-12


class FaultyDaemonSpec(ScoringSpec):
    """Spec whose worker-side scoring always faults with a distinctive
    type (module-level: must survive the trip into the worker)."""

    def score(self, network, X):
        raise ValueError("injected daemon worker fault")


@pytest.fixture(scope="module")
def fitted():
    from repro.data.splits import build_split
    from tests.conftest import TINY_SPEC, make_tiny_generator

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0,
                        random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


@pytest.fixture(scope="module")
def daemon(fitted):
    """One shared daemon for the read-only parity tests (cheap to share:
    every test scores through the same resident spec)."""
    model, _ = fitted
    with ServingDaemon(build_scoring_spec(model, "ed")) as d:
        yield d


def make_pipeline(model, split, **kwargs):
    pipe = ScoringPipeline(model, policy="budget", review_budget=10,
                           monitor_drift=False, **kwargs)
    pipe.calibrate(split.X_val)
    return pipe


class TestScoringSpec:
    def test_pickle_roundtrip_matches_score_batch(self, fitted):
        model, split = fitted
        spec = pickle.loads(pickle.dumps(build_scoring_spec(model, "ed")))
        scores, routing = spec.score(spec.build_network(), split.X_test)
        expected_scores, expected_routing = model.score_batch(
            split.X_test, strategy="ed"
        )
        np.testing.assert_array_equal(scores, expected_scores)
        np.testing.assert_array_equal(routing, expected_routing)

    def test_spec_carries_calibrated_strategy(self, fitted):
        model, _ = fitted
        spec = build_scoring_spec(model, "msp")
        assert spec.strategy.threshold_ is not None
        assert spec.strategy is not model._get_strategy("msp")


class TestDaemonScoring:
    def test_score_matches_score_batch_bitwise(self, fitted, daemon):
        model, split = fitted
        expected_scores, expected_routing = model.score_batch(
            split.X_test, strategy="ed"
        )
        scores, routing = daemon.score(split.X_test)
        np.testing.assert_array_equal(scores, expected_scores)
        np.testing.assert_array_equal(routing, expected_routing)

    def test_empty_batch_short_circuits(self, fitted, daemon):
        _, split = fitted
        scores, routing = daemon.score(split.X_test[:0])
        assert scores.shape == (0,) and routing.shape == (0,)

    def test_wrong_width_rejected(self, fitted, daemon):
        with pytest.raises(ValueError):
            daemon.submit(np.zeros((3, 2)))

    def test_micro_batching_coalesces_small_requests(self, fitted):
        """Requests queued behind a busy worker fuse into one dispatch,
        and the fused results split back per-request bitwise."""
        model, split = fitted
        telemetry = TelemetryRegistry()
        spec = build_scoring_spec(model, "ed")
        big = np.repeat(split.X_test, 8, axis=0)  # keeps the worker busy
        with ServingDaemon(spec, telemetry=telemetry) as daemon:
            daemon.score(split.X_test[:4])  # warm the worker's plan cache
            blocker = daemon.submit(big)
            smalls = [daemon.submit(split.X_test[i:i + 3])
                      for i in range(0, 30, 3)]
            blocker.result(60.0)
            for i, handle in zip(range(0, 30, 3), smalls):
                scores, routing = handle.result(60.0)
                exp_s, exp_r = model.score_batch(split.X_test[i:i + 3],
                                                 strategy="ed")
                np.testing.assert_array_equal(scores, exp_s)
                np.testing.assert_array_equal(routing, exp_r)
            snap = daemon.slo_snapshot()
        # All 10 small requests queued while the big one ran, so they
        # coalesced into one fused dispatch (9 requests saved).
        assert snap["coalesced"] >= 9
        assert snap["dispatches"] < snap["requests"]
        assert snap["p50_ms"] > 0.0
        assert telemetry.timer_stats("serve.daemon.request").count >= 12

    def test_coalesced_single_row_requests_within_atol(self, fitted):
        """1-row requests fused into one dispatch: the fused rows are
        bitwise the same rows scored as one batch, and each request is
        within ``COALESCED_ATOL`` of (and routes like) scoring it alone.

        A 1-row matmul may take a different BLAS kernel than the same
        row inside a larger one, so per-request bitwise equality with
        inline ``score_batch`` is not part of the contract.
        """
        model, split = fitted
        spec = build_scoring_spec(model, "ed")
        big = np.repeat(split.X_test, 8, axis=0)  # keeps the worker busy
        rows = split.X_test[:30]
        with ServingDaemon(spec, telemetry=TelemetryRegistry()) as daemon:
            daemon.score(split.X_test[:4])  # warm the worker's plan cache
            blocker = daemon.submit(big)
            singles = [daemon.submit(rows[i:i + 1]) for i in range(len(rows))]
            blocker.result(60.0)
            results = [handle.result(60.0) for handle in singles]
            snap = daemon.slo_snapshot()
        assert snap["coalesced"] >= len(rows) - 1  # one fused dispatch
        fused_scores, fused_routing = model.score_batch(rows, strategy="ed")
        np.testing.assert_array_equal(np.concatenate([s for s, _ in results]), fused_scores)
        np.testing.assert_array_equal(np.concatenate([r for _, r in results]), fused_routing)
        for i, (scores, routing) in enumerate(results):
            alone_scores, alone_routing = model.score_batch(rows[i:i + 1], strategy="ed")
            np.testing.assert_allclose(scores, alone_scores, rtol=0, atol=COALESCED_ATOL)
            np.testing.assert_array_equal(routing, alone_routing)

    def test_worker_model_fault_reraised_with_original_type(self):
        spec = _faulty_spec()
        with ServingDaemon(spec) as daemon:
            with pytest.raises(ValueError, match="injected daemon worker"):
                daemon.score(np.zeros((4, 12)))
            # A fault is a *model* problem: the daemon itself stays up.
            assert daemon.alive

    def test_score_after_close_raises_unavailable(self, fitted):
        model, _ = fitted
        daemon = ServingDaemon(build_scoring_spec(model, "ed")).start()
        daemon.close()
        daemon.close()  # idempotent
        with pytest.raises(DaemonUnavailable):
            daemon.score(np.zeros((2, 12)))

    def test_undersized_ring_rejected_at_start(self, fitted):
        model, _ = fitted
        daemon = ServingDaemon(build_scoring_spec(model, "ed"),
                               ring_bytes=1024, max_batch_rows=8192)
        with pytest.raises(DaemonUnavailable, match="ring_bytes"):
            daemon.start()


def _faulty_spec(model=None):
    """A worker-faulting spec; built from ``model`` so the batch width
    matches the pipeline's sanitized rows (a width mismatch would fail
    client-side in ``submit`` and never exercise the worker path)."""
    if model is not None:
        spec = build_scoring_spec(model, "ed")
    else:
        spec = ScoringSpec(
            layers=[("dense", np.zeros((12, 3)), None)], m=2, k=1,
            strategy=None,
        )
    return FaultyDaemonSpec(layers=spec.layers, m=spec.m, k=spec.k,
                            strategy=spec.strategy)


class TestDaemonCrashRecovery:
    def test_killed_worker_is_respawned(self, fitted):
        model, split = fitted
        telemetry = TelemetryRegistry()
        expected_scores, _ = model.score_batch(split.X_test, strategy="ed")
        with ServingDaemon(build_scoring_spec(model, "ed"),
                           telemetry=telemetry) as daemon:
            daemon.score(split.X_test[:4])
            slot = daemon._slots[0]
            old_pid = slot.process.pid
            slot.process.kill()
            slot.process.join()
            # The first request lands on the dead worker and fails as an
            # infrastructure error (never a model fault)...
            with pytest.raises(DaemonUnavailable):
                daemon.score(split.X_test[:4], timeout=30.0)
            # ...after which the respawned worker serves correctly.
            scores, _ = daemon.score(split.X_test, timeout=30.0)
            np.testing.assert_array_equal(scores, expected_scores)
            assert daemon._slots[0].process.pid != old_pid
        assert telemetry.counters["serve.daemon.respawns"] == 1
        events = [e for e in telemetry.events
                  if e.name == "serve.daemon.respawn"]
        assert len(events) == 1


class TestDaemonPipeline:
    def test_process_identical_to_single_process(self, fitted):
        """Full-pipeline parity incl. quarantine routing + alert order."""
        model, split = fitted
        single = make_pipeline(model, split)
        piped = make_pipeline(model, split, executor="daemon")
        X = split.X_test.copy()
        X[3, 0] = np.nan  # quarantine path must survive the daemon
        expected = single.process(X)
        got = piped.process(X)
        owned = piped.chain.find(DaemonExecutor).daemon
        assert owned is not None and owned.alive
        assert piped.chain.last_executor == "daemon"
        piped.close()
        np.testing.assert_array_equal(got.scores, expected.scores)
        np.testing.assert_array_equal(got.routing, expected.routing)
        np.testing.assert_array_equal(got.alerts, expected.alerts)
        np.testing.assert_array_equal(got.deferred, expected.deferred)
        np.testing.assert_array_equal(got.quarantined, expected.quarantined)
        assert got.degraded == expected.degraded == False  # noqa: E712

    def test_shared_daemon_is_not_closed_by_pipeline(self, fitted, daemon):
        """A caller-owned daemon instance outlives the pipeline."""
        model, split = fitted
        pipe = make_pipeline(model, split, executor=daemon)
        batch = pipe.process(split.X_test)
        pipe.close()
        assert daemon.alive  # caller owns the lifecycle
        assert not batch.degraded
        expected_scores, _ = model.score_batch(split.X_test, strategy="ed")
        np.testing.assert_array_equal(
            batch.scores[batch.scored], expected_scores
        )

    def test_breaker_opens_on_injected_worker_faults(self, fitted):
        """Worker model faults are scorer faults: degraded fallback per
        batch, breaker open after the threshold, daemon NOT disabled."""
        model, split = fitted
        telemetry = TelemetryRegistry()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0,
                                 clock=ManualClock(), telemetry=telemetry,
                                 name="serve")
        faulty = ServingDaemon(_faulty_spec(model), telemetry=telemetry).start()
        try:
            pipe = make_pipeline(model, split, executor=faulty,
                                 telemetry=telemetry, circuit_breaker=breaker)
            first = pipe.process(split.X_test)
            assert first.degraded and breaker.state == "closed"
            second = pipe.process(split.X_test)
            assert second.degraded and breaker.state == "open"
            # Open breaker: the third batch never reaches the daemon.
            faults_before = telemetry.counters["serve.daemon.faults"]
            third = pipe.process(split.X_test)
            pipe.close()
        finally:
            faulty.close()
        assert third.degraded
        assert telemetry.counters["serve.daemon.faults"] == faults_before
        assert telemetry.counters["resilience.scoring_faults"] == 2
        assert pipe.chain.find(DaemonExecutor).alive
        assert "serve.daemon.fallbacks" not in telemetry.counters

    def test_degraded_batches_identical_to_single_process(self, fitted):
        """While degraded, daemon and single-process pipelines emit the
        same fallback batches — the queue sees one degraded contract."""
        model, split = fitted
        single = make_pipeline(model, split)
        single.circuit_breaker.record_failure()
        for _ in range(10):
            single.circuit_breaker.record_failure()
        expected = single.process(split.X_test)
        assert expected.degraded

        with ServingDaemon(_faulty_spec(model)) as faulty:
            piped = make_pipeline(model, split, executor=faulty)
            got = piped.process(split.X_test)
            piped.close()
        assert got.degraded
        np.testing.assert_array_equal(got.scores, expected.scores)
        np.testing.assert_array_equal(got.routing, expected.routing)
        np.testing.assert_array_equal(got.alerts, expected.alerts)

    def test_dead_daemon_falls_back_single_process(self, fitted):
        """Infrastructure failure: single-process rescore, breaker
        untouched, daemon disabled for the pipeline's lifetime."""
        model, split = fitted
        telemetry = TelemetryRegistry()
        single = make_pipeline(model, split)
        expected = single.process(split.X_test)

        dead = ServingDaemon(build_scoring_spec(model, "ed")).start()
        dead.close()
        pipe = make_pipeline(model, split, executor=dead, telemetry=telemetry)
        got = pipe.process(split.X_test)
        assert not pipe.chain.find(DaemonExecutor).alive
        assert not got.degraded
        assert pipe.circuit_breaker.state == "closed"
        np.testing.assert_array_equal(got.scores, expected.scores)
        np.testing.assert_array_equal(got.routing, expected.routing)
        assert telemetry.counters["serve.daemon.fallbacks"] == 1
        assert telemetry.counters["serve.daemon.disabled"] == 1
        assert "resilience.scoring_faults" not in telemetry.counters
        # Later batches skip the daemon entirely: no second fallback.
        again = pipe.process(split.X_test)
        pipe.close()
        np.testing.assert_array_equal(again.scores, expected.scores)
        assert telemetry.counters["serve.daemon.fallbacks"] == 1


@pytest.mark.slow
class TestReplaySmoke:
    def test_two_worker_replay_under_load(self, fitted):
        """A short open-loop replay against a real 2-worker pool: every
        request completes with correct shapes, SLO gauges populate, and
        the ledger balances (requests == completions, gapless)."""
        model, split = fitted
        telemetry = TelemetryRegistry()
        spec = ReplaySpec(name="smoke", rate_rps=400.0, n_requests=300,
                          batch_mix=((8, 0.6), (32, 0.3), (128, 0.1)),
                          seed=3)
        X_pool = np.asarray(split.X_test, dtype=np.float64)
        schedule = build_schedule(spec, len(X_pool))
        with ServingDaemon(build_scoring_spec(model, "ed"), n_workers=2,
                           telemetry=telemetry) as daemon:
            daemon.score(X_pool[:8])
            result = replay_daemon(spec, schedule, X_pool, daemon,
                                   timeout=60.0)
            snap = daemon.slo_snapshot()
        assert result.n_requests == spec.n_requests
        assert result.n_rows == sum(len(r.rows) for r in schedule)
        assert np.all(np.isfinite(result.latencies_s))
        assert result.percentile_ms(99) >= result.percentile_ms(50) > 0
        assert snap["requests"] == spec.n_requests + 1  # + the warmup
        assert snap["p99_ms"] >= snap["p50_ms"] > 0
        assert snap["respawns"] == 0
        assert telemetry.counters.get("serve.daemon.desyncs", 0) == 0


@pytest.fixture(scope="module")
def taxonomy_fitted():
    """A model trained on a taxonomy-injected split (cross-family config)."""
    from repro.data import attach_taxonomy
    from repro.data.splits import build_split
    from tests.conftest import TINY_SPEC, make_tiny_generator

    generator = attach_taxonomy(
        make_tiny_generator(0), ["calculation", "local"],
        target_families=["calculation"], random_state=0,
    )
    split = build_split(
        generator, TINY_SPEC, scale=1.0, random_state=0,
        target_families=["tax:calculation"],
        train_nontarget_families=["tax:local"],
    )
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


@pytest.mark.taxonomy
class TestTaxonomyDaemon:
    def test_taxonomy_rows_route_identically_on_daemon(self, taxonomy_fitted):
        """Taxonomy-injected rows served by a caller-owned 2-worker daemon
        route and score exactly like the single-process pipeline."""
        model, split = taxonomy_fitted
        single = make_pipeline(model, split)
        X = split.X_test.copy()
        X[5, 1] = np.nan  # quarantine path rides along
        expected = single.process(X)
        with ServingDaemon(build_scoring_spec(model, "ed"),
                           n_workers=2) as daemon:
            piped = make_pipeline(model, split, executor=daemon)
            got = piped.process(X)
            piped.close()
            assert daemon.alive
        assert piped.chain.last_executor == "daemon"
        np.testing.assert_array_equal(got.scores, expected.scores)
        np.testing.assert_array_equal(got.routing, expected.routing)
        np.testing.assert_array_equal(got.alerts, expected.alerts)
        np.testing.assert_array_equal(got.deferred, expected.deferred)
        np.testing.assert_array_equal(got.quarantined, expected.quarantined)
        assert not (got.degraded or expected.degraded)

"""Executor conformance: every execution path honours one contract.

The executor layer (:mod:`repro.serving.executor`) promises that the
choice of execution path is *invisible* except in latency: bitwise
score/routing parity with the inline path (including across model hot
swaps), infrastructure failures demote down the chain in order without
ever touching the circuit breaker, model faults propagate raw into the
breaker/fallback guardrails, ``update_spec`` makes a new generation
visible to live worker surfaces, and ``close()`` is idempotent. This
module pins that contract once, parametrized over all executors, so a
new execution path only has to join the parametrization to be held to
the same bar. The daemon cases run on a real 2-worker daemon.
"""

import contextlib

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.obs import TelemetryRegistry
from repro.serving import ScoringPipeline
from repro.serving.errors import ExecutorUnavailable
from repro.serving.executor import (
    DaemonExecutor,
    Executor,
    FallbackChain,
    InlineExecutor,
)
from repro.serving.daemon import ServingDaemon
from repro.serving.sharding import build_scoring_spec

EXECUTOR_KINDS = ["inline", "daemon"]
WORKER_KINDS = ["daemon"]


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
def model_b(fitted):
    _, split = fitted
    other = TargAD(TargADConfig(random_state=7, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    other.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return other


@contextlib.contextmanager
def executor_of(kind, model):
    """One executor of ``kind`` scoring ``model``; daemons get 2 workers."""
    spec_factory = lambda: build_scoring_spec(model, "ed")  # noqa: E731
    if kind == "inline":
        executor = InlineExecutor(lambda: model, "ed")
        yield executor
        executor.close()
        return
    assert kind == "daemon"
    with ServingDaemon(spec_factory(), n_workers=2) as daemon:
        executor = DaemonExecutor(spec_factory, daemon=daemon)
        yield executor
        executor.close()


def make_pipeline(model, split, executor="inline", **kwargs):
    pipe = ScoringPipeline(
        model, policy="budget", review_budget=10, monitor_drift=False,
        executor=executor, **kwargs,
    )
    pipe.calibrate(split.X_val)
    return pipe


@contextlib.contextmanager
def pipeline_of(kind, model, split):
    """A calibrated pipeline serving through ``kind``, closed on exit."""
    with contextlib.ExitStack() as stack:
        executor = kind
        if kind == "daemon":
            executor = stack.enter_context(
                ServingDaemon(build_scoring_spec(model, "ed"), n_workers=2)
            )
        pipe = make_pipeline(model, split, executor)
        stack.callback(pipe.close)
        yield pipe


def assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.scores, want.scores)
    np.testing.assert_array_equal(got.routing, want.routing)
    np.testing.assert_array_equal(got.alerts, want.alerts)
    np.testing.assert_array_equal(got.deferred, want.deferred)
    np.testing.assert_array_equal(got.quarantined, want.quarantined)
    assert got.degraded == want.degraded


class StubExecutor(Executor):
    """Scripted executor for chain-matrix tests: returns or raises."""

    def __init__(self, name, outcome, alive=True):
        self.name = name
        self._outcome = outcome
        self._alive = alive
        self.calls = 0
        self.reset_calls = 0
        self.close_calls = 0

    @property
    def alive(self):
        return self._alive

    def score(self, X):
        self.calls += 1
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome

    def reset(self):
        self.reset_calls += 1

    def close(self):
        self.close_calls += 1


class TestBitwiseParity:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_score_matches_inline_bitwise(self, kind, fitted):
        model, split = fitted
        with executor_of(kind, model) as executor:
            scores, routing = executor.score(split.X_test)
        exp_s, exp_r = model.score_batch(split.X_test, strategy="ed")
        np.testing.assert_array_equal(scores, exp_s)
        np.testing.assert_array_equal(routing, exp_r)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_pipeline_parity_with_quarantine(self, kind, fitted):
        model, split = fitted
        inline = make_pipeline(model, split)
        X = split.X_test.copy()
        X[3, 0] = np.nan  # quarantine path must survive every executor
        want = inline.process(X)
        with pipeline_of(kind, model, split) as pipe:
            got = pipe.process(X)
            assert pipe.chain.last_executor == kind
        assert_batches_equal(got, want)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_post_swap_parity(self, kind, fitted, model_b):
        """After a hot swap every executor serves the new generation
        bitwise-identically to a fresh inline pipeline on that model."""
        model, split = fitted
        fresh_b = make_pipeline(model_b, split)
        X = split.X_test[:96]
        with pipeline_of(kind, model, split) as pipe:
            pipe.process(X)
            pipe.swap_model(model_b, split.X_val)
            got = pipe.process(X)
            assert pipe.generation == 1
            assert pipe.chain.last_executor == kind
        assert_batches_equal(got, fresh_b.process(X))


class TestUpdateSpecVisibility:
    @pytest.mark.parametrize("kind", WORKER_KINDS)
    def test_new_spec_visible_to_workers(self, kind, fitted, model_b):
        model, split = fitted
        X = split.X_test[:64]
        with executor_of(kind, model) as executor:
            executor.score(X)  # workers serve model A
            assert executor.needs_spec()
            executor.update_spec(build_scoring_spec(model_b, "ed"))
            scores, routing = executor.score(X)
        exp_s, exp_r = model_b.score_batch(X, strategy="ed")
        np.testing.assert_array_equal(scores, exp_s)
        np.testing.assert_array_equal(routing, exp_r)

    def test_inline_tracks_model_ref_without_spec(self, fitted, model_b):
        model, split = fitted
        holder = {"model": model}
        executor = InlineExecutor(lambda: holder["model"], "ed")
        X = split.X_test[:32]
        assert not executor.needs_spec()  # nothing consumes a spec push
        before = executor.score(X)
        holder["model"] = model_b
        after = executor.score(X)
        np.testing.assert_array_equal(
            before[0], model.score_batch(X, strategy="ed")[0]
        )
        np.testing.assert_array_equal(
            after[0], model_b.score_batch(X, strategy="ed")[0]
        )


class TestFallbackMatrix:
    def test_infra_faults_demote_in_chain_order(self):
        telemetry = TelemetryRegistry()
        first = StubExecutor("first", ExecutorUnavailable("shm gone"))
        second = StubExecutor("second", ExecutorUnavailable("pool broke"))
        ok = StubExecutor("ok", (np.ones(3), np.zeros(3, dtype=np.int64)))
        chain = FallbackChain([first, second, ok], telemetry=telemetry)
        scores, routing = chain.score(np.zeros((3, 4)))
        np.testing.assert_array_equal(scores, np.ones(3))
        assert (first.calls, second.calls, ok.calls) == (1, 1, 1)
        assert chain.last_executor == "ok"
        assert telemetry.counters["serve.executor.demotions"] == 2
        demoted = [e for e in telemetry.events
                   if e.name == "serve.executor.demoted"]
        assert [e.fields["executor"] for e in demoted] == ["first", "second"]

    def test_dead_executor_skipped_without_call(self):
        dead = StubExecutor("dead", (None, None), alive=False)
        ok = StubExecutor("ok", (np.zeros(2), np.zeros(2, dtype=np.int64)))
        chain = FallbackChain([dead, ok], telemetry=TelemetryRegistry())
        chain.score(np.zeros((2, 4)))
        assert dead.calls == 0 and ok.calls == 1

    def test_model_fault_propagates_without_demotion(self):
        telemetry = TelemetryRegistry()
        faulty = StubExecutor("faulty", ValueError("bad weights"))
        ok = StubExecutor("ok", (np.zeros(2), np.zeros(2, dtype=np.int64)))
        chain = FallbackChain([faulty, ok], telemetry=telemetry)
        with pytest.raises(ValueError, match="bad weights"):
            chain.score(np.zeros((2, 4)))
        assert ok.calls == 0  # a model fault is NOT an executor problem
        assert "serve.executor.demotions" not in telemetry.counters

    def test_every_executor_down_raises_unavailable(self):
        chain = FallbackChain(
            [StubExecutor("a", ExecutorUnavailable("down")),
             StubExecutor("b", (None, None), alive=False)],
            telemetry=TelemetryRegistry(),
        )
        with pytest.raises(ExecutorUnavailable):
            chain.score(np.zeros((2, 4)))

    def test_reset_and_close_fan_out_to_all_executors(self):
        stubs = [StubExecutor(f"s{i}", (None, None)) for i in range(3)]
        chain = FallbackChain(stubs, telemetry=TelemetryRegistry())
        chain.reset()
        chain.close()
        chain.close()  # idempotent at the chain level too
        assert all(s.reset_calls == 1 for s in stubs)
        assert all(s.close_calls == 2 for s in stubs)


class TestBreakerContract:
    """The pipeline treats every executor identically at the guardrails."""

    def test_infra_fault_never_touches_breaker(self, fitted):
        model, split = fitted
        telemetry = TelemetryRegistry()
        pipe = make_pipeline(model, split, telemetry=telemetry)
        pipe.chain.executors.insert(
            0, StubExecutor("flaky", ExecutorUnavailable("transient"))
        )
        batch = pipe.process(split.X_test)
        pipe.close()
        assert not batch.degraded
        assert pipe.circuit_breaker.state == "closed"
        assert telemetry.counters["serve.executor.demotions"] == 1
        assert "resilience.scoring_faults" not in telemetry.counters

    def test_model_fault_reports_to_breaker(self, fitted):
        model, split = fitted
        telemetry = TelemetryRegistry()
        pipe = make_pipeline(model, split, telemetry=telemetry)
        pipe.chain.executors.insert(
            0, StubExecutor("faulty", ValueError("injected model fault"))
        )
        batch = pipe.process(split.X_test)
        pipe.close()
        assert batch.degraded  # scored by the reconstruction fallback
        assert telemetry.counters["resilience.scoring_faults"] == 1
        assert "serve.executor.demotions" not in telemetry.counters


class TestCloseIdempotent:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_double_close_after_scoring(self, kind, fitted):
        model, split = fitted
        with executor_of(kind, model) as executor:
            executor.score(split.X_test[:32])
            executor.close()
        executor.close()

    def test_external_daemon_survives_executor_close(self, fitted):
        model, split = fitted
        daemon = ServingDaemon(build_scoring_spec(model, "ed")).start()
        try:
            executor = DaemonExecutor(
                lambda: build_scoring_spec(model, "ed"), daemon=daemon
            )
            executor.score(split.X_test[:16])
            executor.close()
            assert daemon.alive  # caller owns the lifecycle
        finally:
            daemon.close()


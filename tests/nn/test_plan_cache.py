"""Weight-keyed plan cache: hit/miss/invalidation semantics.

The contract under test: ``cached_inference`` returns the *same* plan
object while weights are frozen, recompiles the moment any
``param.data`` is rebound (one optimizer step — the regression the
serving fast path depends on), detects ``load_state_dict`` and
structural edits, keeps dtype variants in distinct slots, and
leaves a previously cached entry intact when a recompile attempt fails.
"""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    NotCompilableError,
    Sequential,
    cached_inference,
    clear_plan_cache,
    plan_cache_stats,
    reset_plan_cache_stats,
)
from repro.nn.layers import Activation, Dense, mlp
from repro.nn.regularization import Dropout, set_training


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    reset_plan_cache_stats()
    yield
    clear_plan_cache()


def make_model(seed=0, sizes=(6, 8, 4)):
    return mlp(list(sizes), rng=np.random.default_rng(seed))


def take_adam_step(model, X, lr=0.05):
    """One real optimizer step (rebinds every ``param.data``)."""
    from repro.autodiff import Tensor
    from repro.nn import mse_loss

    optimizer = Adam(model.parameters(), lr=lr)
    optimizer.zero_grad()
    out = model(Tensor(X))
    loss = mse_loss(out, np.zeros_like(out.data))
    loss.backward()
    optimizer.step()


def test_cache_hit_returns_identical_plan_object():
    model = make_model()
    first = cached_inference(model)
    second = cached_inference(model)
    assert second is first
    stats = plan_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["invalidations"] == 0


def test_optimizer_step_forces_recompile():
    """The regression test: a rebound ``param.data`` must invalidate."""
    model = make_model()
    X = np.random.default_rng(1).normal(size=(5, 6))
    stale = cached_inference(model)
    before = stale(X).copy()

    take_adam_step(model, X)

    fresh = cached_inference(model)
    assert fresh is not stale
    assert plan_cache_stats()["invalidations"] == 1
    after = fresh(X)
    # The recompiled plan sees the stepped weights: graph parity, and
    # the output actually moved.
    from repro.autodiff import Tensor, no_grad

    with no_grad():
        expected = model(Tensor(X)).data
    np.testing.assert_array_equal(after, expected)
    assert not np.array_equal(after, before)


def test_load_state_dict_forces_recompile():
    model = make_model(seed=0)
    donor = make_model(seed=99)
    plan = cached_inference(model)
    model.load_state_dict(donor.state_dict())
    assert cached_inference(model) is not plan
    assert plan_cache_stats()["invalidations"] == 1


def test_dtype_variants_are_distinct_slots():
    model = make_model()
    base = cached_inference(model)
    f32 = cached_inference(model, dtype="float32")
    assert base is not f32
    # Each variant now hits its own slot.
    assert cached_inference(model, dtype="float32") is f32
    assert cached_inference(model) is base


def test_clear_plan_cache_drops_entries():
    model = make_model()
    plan = cached_inference(model)
    clear_plan_cache()
    assert cached_inference(model) is not plan
    assert plan_cache_stats()["misses"] == 2


def test_structural_append_invalidates():
    model = make_model()
    plan = cached_inference(model)
    model.modules.append(Activation("relu"))
    fresh = cached_inference(model)
    assert fresh is not plan
    assert plan_cache_stats()["invalidations"] == 1
    X = np.random.default_rng(2).normal(size=(3, 6))
    np.testing.assert_array_equal(fresh(X), np.maximum(plan(X), 0.0))


def test_training_dropout_refusal_leaves_entry_intact():
    model = Sequential(
        Dense(4, 3, rng=np.random.default_rng(0)), Dropout(0.5)
    )
    set_training(model, False)
    plan = cached_inference(model)
    set_training(model, True)
    with pytest.raises(NotCompilableError):
        cached_inference(model)
    # Back in inference mode the original entry revalidates — no recompile.
    set_training(model, False)
    assert cached_inference(model) is plan


def test_forward_in_batches_reuses_cached_plan():
    from repro.nn import forward_in_batches

    model = make_model()
    X = np.random.default_rng(3).normal(size=(64, 6))
    forward_in_batches(model, X, batch_size=16)
    before = plan_cache_stats()
    forward_in_batches(model, X, batch_size=16)
    after = plan_cache_stats()
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]

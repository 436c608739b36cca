"""Compiled graph-free inference: parity with the autodiff graph path.

The contract under test: ``compile_inference`` produces *bitwise* float64
parity with the Tensor graph (both paths execute the same sequence of
numpy fp ops), honours the empty-batch shape contract, refuses
non-compilable trees (training-mode Dropout), and never aliases its
internal buffers into results handed to callers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, no_grad
from repro.nn import (
    NotCompilableError,
    Sequential,
    compile_inference,
    force_graph_forward,
    forward_in_batches,
)
from repro.nn.autoencoder import Autoencoder
from repro.nn.layers import Activation, mlp
from repro.nn.regularization import Dropout

ACTIVATIONS = ["relu", "leaky_relu", "tanh", "sigmoid", "softplus", "linear"]

architectures = st.builds(
    lambda sizes, act, out_act, seed: (sizes, act, out_act, seed),
    st.lists(st.integers(1, 8), min_size=2, max_size=4),
    st.sampled_from(ACTIVATIONS),
    st.sampled_from(ACTIVATIONS),
    st.integers(0, 2**31 - 1),
)


def graph_forward(module, X):
    with no_grad():
        return module(Tensor(X)).data


@settings(max_examples=50, deadline=None)
@given(architectures, st.integers(1, 17))
def test_compiled_matches_graph_bitwise_float64(arch, rows):
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    plan = compile_inference(model)
    expected = graph_forward(model, X)
    got = plan(X)
    assert got.dtype == np.float64
    # Bitwise: compiled kernels replay the exact graph fp op sequence.
    np.testing.assert_array_equal(got, expected)
    # atol documented in the acceptance criteria.
    np.testing.assert_allclose(got, expected, atol=1e-9)


def make_onehot_batch(rng, rows, n_dense=20, blocks=(60, 30)):
    """A batch in the SQB one-hot regime: dense prefix + one-hot blocks."""
    X = np.zeros((rows, n_dense + sum(blocks)))
    X[:, :n_dense] = rng.normal(size=(rows, n_dense))
    off = n_dense
    for b in blocks:
        X[np.arange(rows), off + rng.integers(0, b, size=rows)] = 1.0
        off += b
    return X


@pytest.mark.parametrize("rows", [1, 512, 513, 2048])
def test_compiled_matches_graph_bitwise_onehot_inputs(rows):
    """Mostly-zero one-hot batches replay the graph bitwise at any size."""
    rng = np.random.default_rng(17)
    X = make_onehot_batch(rng, rows=rows)
    model = mlp([X.shape[1], 64, 32, 5], activation="relu", rng=rng)
    with force_graph_forward():
        expected = forward_in_batches(model, X)
        chunked = forward_in_batches(model, X, batch_size=512)
    np.testing.assert_array_equal(compile_inference(model)(X), expected)
    # 512-row chunks: full chunks plus a 1-row tail at 513 rows. BLAS may
    # round a lone row differently from the same row inside a larger
    # GEMM, so the reference is the graph path with the same chunking.
    np.testing.assert_array_equal(
        forward_in_batches(model, X, batch_size=512), chunked
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=2),
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
)
def test_autoencoder_reconstructor_parity(hidden, rows, seed):
    rng = np.random.default_rng(seed)
    n_features = 5
    ae = Autoencoder(hidden_sizes=hidden, epochs=1, random_state=seed)
    ae._build(n_features, rng)
    X = rng.normal(size=(rows, n_features))
    chain = ae._reconstructor()
    expected = graph_forward(chain, X)
    got = compile_inference(chain)(X)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=25, deadline=None)
@given(architectures, st.integers(0, 40), st.integers(1, 16))
def test_forward_in_batches_parity_any_batch_size(arch, rows, batch_size):
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    compiled = forward_in_batches(model, X, batch_size=batch_size)
    with force_graph_forward():
        graphed = forward_in_batches(model, X, batch_size=batch_size)
    np.testing.assert_array_equal(compiled, graphed)
    assert compiled.shape == (rows, sizes[-1])


def test_empty_batch_shape_contract():
    rng = np.random.default_rng(0)
    model = mlp([4, 3, 2], rng=rng)
    plan = compile_inference(model)
    out = plan(np.empty((0, 4)))
    assert out.shape == (0, 2)
    assert out.dtype == np.float64
    out2 = forward_in_batches(model, np.empty((0, 4)))
    assert out2.shape == (0, 2)


def test_float32_plan_casts_and_stays_close():
    rng = np.random.default_rng(1)
    model = mlp([6, 8, 3], rng=rng)
    X = rng.normal(size=(9, 6))
    plan = compile_inference(model, dtype=np.float32)
    got = plan(X)
    assert got.dtype == np.float32
    expected = graph_forward(model, X)
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)


def test_training_dropout_is_not_compilable():
    rng = np.random.default_rng(2)
    drop = Dropout(0.5, rng=rng)
    drop.training = True
    model = Sequential(mlp([4, 4], rng=rng), drop)
    with pytest.raises(NotCompilableError):
        compile_inference(model)
    # forward_in_batches silently falls back to the graph path.
    X = rng.normal(size=(5, 4))
    out = forward_in_batches(model, X)
    assert out.shape == (5, 4)


def test_inference_dropout_compiles_to_identity():
    rng = np.random.default_rng(3)
    drop = Dropout(0.5, rng=rng)
    drop.training = False
    model = Sequential(mlp([4, 3], rng=rng), drop)
    plan = compile_inference(model)
    X = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(plan(X), graph_forward(model, X))


def test_compiled_does_not_alias_buffers_or_mutate_input():
    rng = np.random.default_rng(4)
    model = mlp([3, 5, 2], activation="tanh", rng=rng)
    plan = compile_inference(model)
    X1 = rng.normal(size=(7, 3))
    X1_copy = X1.copy()
    out1 = plan(X1)
    snapshot = out1.copy()
    # Same-shape second call reuses internal buffers; out1 must not change.
    out2 = plan(rng.normal(size=(7, 3)))
    np.testing.assert_array_equal(out1, snapshot)
    assert not np.array_equal(out1, out2)
    np.testing.assert_array_equal(X1, X1_copy)


def test_activation_first_module_does_not_mutate_input():
    model = Sequential(Activation("relu"))
    plan = compile_inference(model)
    X = np.array([[-1.0, 2.0], [3.0, -4.0]])
    X_copy = X.copy()
    out = plan(X)
    np.testing.assert_array_equal(X, X_copy)
    np.testing.assert_array_equal(out, np.maximum(X, 0.0))


def test_compiled_requires_2d_input():
    model = mlp([3, 2], rng=np.random.default_rng(5))
    plan = compile_inference(model)
    with pytest.raises(ValueError):
        plan(np.zeros(3))


def test_recompile_sees_updated_weights():
    """Plans snapshot weights by reference; optimizers rebind param.data,
    so forward_in_batches recompiles per call — fresh weights, fresh plan."""
    from repro.nn.losses import mse_loss
    from repro.nn.optimizers import SGD

    rng = np.random.default_rng(6)
    model = mlp([3, 4, 1], rng=rng)
    X = rng.normal(size=(8, 3))
    before = forward_in_batches(model, X)
    opt = SGD(model.parameters(), lr=0.1)
    opt.zero_grad()
    pred = model(Tensor(X))
    mse_loss(pred, Tensor(np.zeros((8, 1)))).backward()
    opt.step()
    after = forward_in_batches(model, X)
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, graph_forward(model, X))


def test_out_destination_contract():
    rng = np.random.default_rng(3)
    model = mlp([6, 8, 4], activation="relu", rng=rng)
    plan = compile_inference(model)
    X = rng.normal(size=(10, 6))
    expected = plan(X)
    dest = np.empty((10, 4), dtype=np.float64)
    returned = plan(X, out=dest)
    assert returned is dest
    np.testing.assert_array_equal(dest, expected)
    # Results handed out without ``out=`` are fresh arrays each call —
    # never aliases of the plan's internal buffers.
    first = plan(X)
    second = plan(X)
    assert not np.shares_memory(first, second)
    with pytest.raises(ValueError):
        plan(X, out=np.empty((9, 4)))
    with pytest.raises(ValueError):
        plan(X, out=np.empty((10, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        plan(X, out=np.empty((4, 10)).T)  # right shape, not C-contiguous
    # A dense-free plan (pure activation stack) keeps the input width and
    # applies the same dtype and contiguity checks.
    act_plan = compile_inference(Sequential(Activation("tanh")))
    act_dest = np.empty((10, 6))
    assert act_plan(X, out=act_dest) is act_dest
    np.testing.assert_array_equal(act_dest, np.tanh(X))
    assert act_plan(X[:0], out=np.empty((0, 6))).shape == (0, 6)
    with pytest.raises(ValueError):
        act_plan(X, out=np.empty((10, 6), dtype=np.float32))
    with pytest.raises(ValueError):
        act_plan(X, out=np.empty((6, 10)).T)
    with pytest.raises(ValueError):
        act_plan(X, out=np.empty((10, 5)))

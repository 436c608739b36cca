"""Fused Dense+activation kernels: parity, tiling, and the out= contract.

The contract under test: fused plans agree with the unfused op-for-op
replay (and the graph engine) to atol 1e-12 at float64 — including
batches large enough to cross the row-tile boundary — while
``disable_fused_kernels`` restores exact bitwise parity; and the ``out=``
destination contract holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, no_grad
from repro.backend.kernels import FUSE_TILE_ROWS, fused_dense_act
from repro.nn import compile_inference, disable_fused_kernels, fused_kernels_enabled
from repro.nn.layers import mlp

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


@settings(max_examples=40, deadline=None)
@given(architectures, st.integers(1, 17))
def test_fused_matches_unfused_and_graph(arch, rows):
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    fused = compile_inference(model, fused=True)
    unfused = compile_inference(model, fused=False)
    expected = graph_forward(model, X)
    # atol 1e-12: the documented fused-kernel budget.
    np.testing.assert_allclose(fused(X), expected, atol=1e-12, rtol=0)
    np.testing.assert_allclose(fused(X), unfused(X), atol=1e-12, rtol=0)
    # Unfused replays the graph's fp op sequence bitwise.
    np.testing.assert_array_equal(unfused(X), expected)


@pytest.mark.parametrize("rows", [2 * FUSE_TILE_ROWS, 2 * FUSE_TILE_ROWS + 1, 1300])
def test_fused_parity_across_tile_boundary(rows):
    """Batches large enough to trigger row tiling keep the 1e-12 budget."""
    rng = np.random.default_rng(7)
    model = mlp([32, 64, 16, 64, 32], activation="relu",
                output_activation="relu", rng=rng)
    X = rng.normal(size=(rows, 32))
    fused = compile_inference(model, fused=True)
    unfused = compile_inference(model, fused=False)
    np.testing.assert_allclose(fused(X), unfused(X), atol=1e-12, rtol=0)


def test_disable_fused_kernels_restores_bitwise_parity():
    rng = np.random.default_rng(11)
    model = mlp([9, 7, 5], activation="tanh", rng=rng)
    X = rng.normal(size=(23, 9))
    with disable_fused_kernels():
        assert not fused_kernels_enabled()
        plan = compile_inference(model)
    assert not plan.fused
    np.testing.assert_array_equal(plan(X), graph_forward(model, X))


def test_fused_is_the_default_when_backend_supports_it():
    assert fused_kernels_enabled()
    model = mlp([4, 3], rng=np.random.default_rng(0))
    assert compile_inference(model).fused


def test_out_destination_contract():
    rng = np.random.default_rng(3)
    model = mlp([6, 8, 4], activation="relu", rng=rng)
    plan = compile_inference(model, fused=True)
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


def test_fused_dense_act_kernel_direct():
    """The kernel itself: matmul + bias + activation into ``out``."""
    rng = np.random.default_rng(13)
    X = rng.normal(size=(600, 8))  # 600 > 2 * FUSE_TILE_ROWS: tiled path
    W = rng.normal(size=(8, 5))
    b = rng.normal(size=5)
    out = np.empty((600, 5))
    returned = fused_dense_act(X, W, b, "relu", out)
    assert returned is out
    np.testing.assert_allclose(
        out, np.maximum(X @ W + b, 0.0), atol=1e-12, rtol=0
    )
    # Bias-free and linear (activation=None) paths.
    out2 = np.empty((600, 5))
    fused_dense_act(X, W, None, None, out2)
    np.testing.assert_allclose(out2, X @ W, atol=1e-12, rtol=0)

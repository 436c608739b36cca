"""Training-loop edge cases."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn.layers import mlp
from repro.nn.optimizers import SGD
from repro.nn.train import (
    forward_in_batches,
    infer_output_dim,
    iterate_minibatches,
    train_epoch,
)


class TestMinibatchEdgeCases:
    def test_batch_size_larger_than_n(self):
        batches = list(iterate_minibatches(3, 100, shuffle=False))
        assert len(batches) == 1 and len(batches[0]) == 3

    def test_n_equals_one(self):
        batches = list(iterate_minibatches(1, 4, shuffle=False))
        assert [b.tolist() for b in batches] == [[0]]

    def test_exact_multiple(self):
        batches = list(iterate_minibatches(20, 5, shuffle=False))
        assert [len(b) for b in batches] == [5, 5, 5, 5]


class TestTrainEpochEdgeCases:
    def test_returns_mean_loss(self):
        rng = np.random.default_rng(0)
        model = mlp([2, 1], rng=rng)
        opt = SGD(model.parameters(), lr=1e-9)  # effectively frozen
        X = rng.standard_normal((8, 2))

        def loss_fn(idx):
            return (model(Tensor(X[idx])) ** 2.0).mean()

        loss = train_epoch(model, opt, loss_fn, 8, 4, rng=rng)
        assert np.isfinite(loss) and loss >= 0


class TestInferOutputDim:
    def test_simple_mlp(self):
        assert infer_output_dim(mlp([3, 8, 2], rng=np.random.default_rng(0))) == 2

    def test_trailing_activation_does_not_hide_width(self):
        # A non-linear output activation leaves an Activation module after
        # the final Dense; inference must look past it.
        model = mlp([3, 4], output_activation="sigmoid",
                    rng=np.random.default_rng(0))
        assert infer_output_dim(model) == 4

    def test_model_without_linear_layers(self):
        class Opaque:
            pass

        assert infer_output_dim(Opaque()) is None


class TestForwardInBatchesEdgeCases:
    def test_empty_input_preserves_output_dim(self):
        # Regression: used to return a 1-D np.empty((0,)), which broke
        # downstream softmax / column indexing on empty batches.
        model = mlp([3, 2], rng=np.random.default_rng(0))
        out = forward_in_batches(model, np.empty((0, 3)))
        assert out.shape == (0, 2)

    def test_empty_input_matches_nonempty_width(self):
        rng = np.random.default_rng(2)
        model = mlp([4, 8, 5], rng=rng)
        full = forward_in_batches(model, rng.standard_normal((3, 4)))
        empty = forward_in_batches(model, np.empty((0, 4)))
        assert empty.shape[1] == full.shape[1]

    def test_batch_size_one(self):
        rng = np.random.default_rng(1)
        model = mlp([3, 2], rng=rng)
        X = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            forward_in_batches(model, X, batch_size=1),
            forward_in_batches(model, X, batch_size=100),
        )

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_raises(self, batch_size):
        model = mlp([3, 2], rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="batch_size must be positive"):
            forward_in_batches(model, np.ones((5, 3)), batch_size=batch_size)

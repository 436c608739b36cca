"""Backend conformance: the compiled plans honour their contracts on numpy.

The compiled-vs-graph parity cases, parametrized by the name of the array
library the plans execute on (:func:`repro.backend.active_backend`, always
``numpy``) so a run records which library each case covered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, no_grad
from repro.backend import active_backend
from repro.nn import (
    compile_inference,
    force_graph_forward,
    forward_in_batches,
)
from repro.nn.layers import mlp

BACKENDS = [active_backend().name]

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


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(arch=architectures, rows=st.integers(1, 17))
def test_compiled_matches_graph_dense_inputs(backend, arch, rows):
    """Dense inputs: the compiled plan replays the graph bitwise."""
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    expected = graph_forward(model, X)
    got = compile_inference(model)(X)
    assert active_backend().name == backend
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(arch=architectures, rows=st.integers(0, 40), batch_size=st.integers(1, 16))
def test_forward_in_batches_parity(backend, arch, rows, batch_size):
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    compiled = forward_in_batches(model, X, batch_size=batch_size)
    with force_graph_forward():
        graphed = forward_in_batches(model, X, batch_size=batch_size)
    assert active_backend().name == backend
    np.testing.assert_array_equal(compiled, graphed)
    assert compiled.shape == (rows, sizes[-1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_float32_inference_dtype_supported(backend):
    rng = np.random.default_rng(31)
    model = mlp([6, 8, 3], rng=rng)
    X = rng.normal(size=(9, 6))
    expected = graph_forward(model, X)
    got = compile_inference(model, dtype=np.float32)(X)
    assert active_backend().name == backend
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)

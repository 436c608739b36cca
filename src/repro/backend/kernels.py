"""The numpy serving kernels of the compiled inference plan.

The in-place activations replay the autodiff graph's float64 op
sequences exactly (which is what gives the unfused compiled path its
bitwise parity with the graph forward); :func:`fused_dense_act` runs one
Dense+activation step per row tile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# -- in-place activation kernels ----------------------------------------
# Each kernel owns its argument (works in place) and must return the
# result array.


def relu_(x: np.ndarray) -> np.ndarray:
    np.maximum(x, 0.0, out=x)
    return x


def leaky_relu_(x: np.ndarray) -> np.ndarray:
    np.multiply(x, np.where(x > 0, x.dtype.type(1.0), x.dtype.type(0.01)), out=x)
    return x


def tanh_(x: np.ndarray) -> np.ndarray:
    np.tanh(x, out=x)
    return x


def sigmoid_(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-clip(x))), the same guarded form as Tensor.sigmoid.
    np.clip(x, -500, 500, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += x.dtype.type(1.0)
    np.reciprocal(x, out=x)
    return x


def softplus_(x: np.ndarray) -> np.ndarray:
    np.logaddexp(x.dtype.type(0.0), x, out=x)
    return x


#: name -> in-place kernel; "linear" is the identity (no kernel).
INPLACE_ACTIVATIONS: dict = {
    "relu": relu_,
    "leaky_relu": leaky_relu_,
    "tanh": tanh_,
    "sigmoid": sigmoid_,
    "softplus": softplus_,
    "linear": None,
}

#: Row-tile size for the fused Dense+activation kernel. Tiling keeps the
#: matmul output resident in cache for the bias/activation passes; on
#: row-independent GEMMs the per-row dot products are unchanged, so the
#: result stays within 1e-12 of the untiled op sequence (bitwise on the
#: BLAS builds we test against).
FUSE_TILE_ROWS = 256


def fused_dense_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    activation: Optional[str],
    out: np.ndarray,
) -> np.ndarray:
    """One Dense+activation step: ``act(x @ weight + bias)`` into ``out``.

    The fused serving kernel of the compiled inference plan: matmul,
    bias add, and the nonlinearity execute per row tile so the matmul
    output is still cache-resident when the elementwise passes touch
    it — the memory-traffic saving that matters on the BLAS-bound
    autoencoder shapes. ``activation`` is a name from
    :data:`INPLACE_ACTIVATIONS` (``None``/"linear" = identity).

    Numeric contract: each output row is the same dot product the
    unfused sequence computes, so results agree with the unfused
    path to atol 1e-12 (bitwise on BLAS builds whose GEMM is
    row-blocked, which the fused parity suite asserts with a
    tolerance rather than relying on).
    """
    kernel = INPLACE_ACTIVATIONS[activation] if activation is not None else None
    n = x.shape[0]
    if n <= 2 * FUSE_TILE_ROWS:
        np.matmul(x, weight, out=out)
        if bias is not None:
            out += bias
        if kernel is not None:
            kernel(out)
        return out
    for start in range(0, n, FUSE_TILE_ROWS):
        tile = out[start : start + FUSE_TILE_ROWS]
        np.matmul(x[start : start + FUSE_TILE_ROWS], weight, out=tile)
        if bias is not None:
            tile += bias
        if kernel is not None:
            kernel(tile)
    return out

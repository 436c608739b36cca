"""Generic mini-batch training utilities."""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Module
from repro.nn.optimizers import Optimizer


def iterate_minibatches(
    n: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n)`` in batches.

    The final partial batch is included. With ``shuffle=False`` the order is
    sequential, which keeps evaluation deterministic.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = np.arange(n)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        rng.shuffle(indices)
    for start in range(0, n, batch_size):
        yield indices[start : start + batch_size]


def train_epoch(
    model: Module,
    optimizer: Optimizer,
    loss_fn: Callable[[np.ndarray], Tensor],
    n: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Run one epoch; returns the mean batch loss.

    ``loss_fn`` maps a batch index array to a scalar loss tensor. This
    indirection lets callers close over arbitrary batch payloads (several
    datasets at once, per-instance weights, ...), which the TargAD classifier
    needs.
    """
    total = 0.0
    batches = 0
    for batch_idx in iterate_minibatches(n, batch_size, rng=rng):
        optimizer.zero_grad()
        loss = loss_fn(batch_idx)
        loss.backward()
        optimizer.step()
        total += float(loss.data)
        batches += 1
    return total / max(batches, 1)


def optimizer_state(optimizer: Optimizer) -> dict:
    """Snapshot an optimizer's internal state (copies).

    Returns ``{"lr": float, "step_count": int | None, "slots": {name: [arrays]}}``
    covering the moment/velocity buffers of :class:`~repro.nn.optimizers.Adam`,
    ``SGD``, and ``RMSprop``. Slots that have not been materialized yet (no
    ``step()`` taken) are omitted. Used by training checkpoint/resume so an
    interrupted run continues with identical optimizer dynamics.
    """
    slot_names = {"_m": "m", "_v": "v", "_velocity": "velocity", "_sq": "sq"}
    slots = {}
    for attr, name in slot_names.items():
        value = getattr(optimizer, attr, None)
        if value is not None:
            slots[name] = [np.array(arr, copy=True) for arr in value]
    return {
        "lr": float(optimizer.lr),
        "step_count": getattr(optimizer, "_step_count", None),
        "slots": slots,
    }


def load_optimizer_state(optimizer: Optimizer, state: dict) -> None:
    """Restore a snapshot produced by :func:`optimizer_state`.

    The optimizer must wrap the same parameter list (same order/shapes) it
    had when the snapshot was taken.
    """
    optimizer.lr = float(state["lr"])
    if state.get("step_count") is not None and hasattr(optimizer, "_step_count"):
        optimizer._step_count = int(state["step_count"])
    slot_names = {"m": "_m", "v": "_v", "velocity": "_velocity", "sq": "_sq"}
    for name, arrays in state.get("slots", {}).items():
        attr = slot_names[name]
        if not hasattr(optimizer, attr):
            raise ValueError(f"optimizer {type(optimizer).__name__} has no slot {name!r}")
        restored = [np.array(arr, copy=True) for arr in arrays]
        if len(restored) != len(optimizer.params):
            raise ValueError(
                f"slot {name!r} has {len(restored)} arrays, "
                f"optimizer has {len(optimizer.params)} parameters"
            )
        setattr(optimizer, attr, restored)


def infer_output_dim(model: Module) -> Optional[int]:
    """Output width of ``model``, inferred from its last ``Dense`` layer.

    Width-preserving modules (activations, dropout) after the final dense
    layer are fine; returns ``None`` when the model contains no layer with
    an ``out_features`` attribute (e.g. a pure activation stack).
    """
    modules = getattr(model, "modules", None)
    if modules is None:
        modules = [model]
    for module in reversed(list(modules)):
        nested = infer_output_dim(module) if hasattr(module, "modules") else None
        if nested is not None:
            return nested
        out_features = getattr(module, "out_features", None)
        if out_features is not None:
            return int(out_features)
    return None


def forward_in_batches(
    model: Module,
    X: np.ndarray,
    batch_size: int = 4096,
    dtype=None,
) -> np.ndarray:
    """Run ``model`` over ``X`` without building a graph, batched for memory.

    This is the repository's hot read path: TargAD scoring, the
    candidate-selection autoencoders, serving, and every neural baseline
    funnel through it. By default it executes on the **compiled
    inference path** (:func:`repro.nn.inference.cached_inference`) —
    pure array calls into preallocated buffers, no ``Tensor`` objects,
    with the plan reused from the weight-keyed cache whenever the
    model's parameters have not been rebound since the last call — and
    falls back to the graph engine under ``no_grad`` only for module
    trees the compiler does not understand (custom modules,
    training-mode dropout), or inside
    :func:`~repro.nn.inference.force_graph_forward`. Multi-chunk results
    are written directly into one preallocated output array (no
    per-chunk copy, no final concatenate).

    Parameters
    ----------
    model, X, batch_size:
        ``X`` is processed in chunks of ``batch_size`` rows; a
        ``batch_size`` below 1 raises ``ValueError``.
    dtype:
        Inference precision per the :mod:`repro.backend` policy:
        ``None`` (thread default, normally float64) or
        ``"float64"``/``"float32"``. The graph fallback always computes
        in float64 and casts the result.

    Empty input returns an empty ``(0, out_dim)`` array (``out_dim``
    inferred from the model's last dense layer) so downstream reductions
    over axis 1 — softmax, Eq. 9 scoring, the tri-class rule — work
    unchanged on zero rows.
    """
    from repro.autodiff import no_grad
    from repro.backend.policy import resolve_dtype
    from repro.nn.inference import (
        NotCompilableError,
        cached_inference,
        graph_forward_forced,
    )

    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    resolved = resolve_dtype(dtype)
    plan = None
    if not graph_forward_forced():
        try:
            plan = cached_inference(model, dtype=resolved)
        except NotCompilableError:
            pass
    if plan is not None and len(X):
        if len(X) <= batch_size:
            return plan(X)  # single chunk: the plan returns a fresh array
        # Write each chunk's final segment straight into one preallocated
        # result — no per-chunk copy, no concatenate. A dense-free plan
        # (pure activation stack) keeps the input width.
        width = plan.out_dim if plan.out_dim is not None else np.shape(X)[-1]
        result = np.empty((len(X), width), dtype=resolved)
        for start in range(0, len(X), batch_size):
            stop = start + batch_size
            plan(X[start:stop], out=result[start:stop])
        return result
    if plan is None:
        outputs = []
        with no_grad():
            for start in range(0, len(X), batch_size):
                out = model(Tensor(X[start : start + batch_size]))
                outputs.append(out.data.astype(resolved, copy=False))
        if outputs:
            return np.concatenate(outputs, axis=0)
    out_dim = infer_output_dim(model)
    return np.empty((0, out_dim) if out_dim is not None else (0,), dtype=resolved)

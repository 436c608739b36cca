"""Compiled, graph-free inference over :class:`~repro.nn.layers.Module` trees.

Training needs the autodiff graph; serving does not. A forward pass
through the graph engine pays for ``Tensor`` wrappers, per-op output
allocation, and activation retention bookkeeping that only ``backward``
would ever use. :func:`compile_inference` walks a module tree once
(``Dense`` / ``Activation`` / ``Sequential`` nesting, plus inference-mode
``Dropout``, which is the identity) and emits a
:class:`CompiledInference` plan: a flat list of steps executed as plain
numpy calls into preallocated buffers — no ``Tensor`` objects, no graph,
no ``no_grad`` juggling.

Besides the plan itself, two pieces of the serving fast path live here:

- **Destination writing.** The final dense segment of a plan writes
  straight into the caller-visible output array (``plan(X, out=...)``
  or a freshly allocated result), eliminating the result copy — and,
  via :func:`~repro.nn.train.forward_in_batches`, the cross-chunk
  ``concatenate`` — that previously cost two full passes over the
  output on every call.

- **A weight-keyed plan cache.** :func:`cached_inference` memoizes
  compiled plans per module keyed on the tuple of parameter-array
  ``id()``\\ s (plus dtype and a structural fingerprint). Optimizers in
  this repository rebind ``param.data`` on every step, so a stale key
  detects weight updates exactly and forces a recompile; repeated
  serving calls against frozen weights skip the tree walk entirely.
  Cache entries hold strong references to the arrays they captured, so
  an ``id()`` can never be recycled into a false hit. The cache is
  per-thread (plans own mutable buffers); hits/misses/invalidations are
  process-wide counters readable via :func:`plan_cache_stats`.

The numeric contract: at ``float64`` (the default, per the
:mod:`repro.backend` dtype policy) a compiled plan executes the exact
same floating-point operations as the graph forward, op for op, so
outputs agree bitwise (the parity suite asserts ``array_equal``).
``float32`` is an explicit opt-in (``dtype="float32"``) that casts the
weights once at compile time and trades ~1e-6 relative error for roughly
double throughput.

Weights are captured *by reference* at compile time (no copy at
``float64``). In-place writes to a captured array (``param.data[:] =
...``) are invisible to the cache key — rebind (``param.data = ...``)
or call :func:`clear_plan_cache` after such edits. Structural edits that
preserve every container's length *and* parameter identity (e.g.
swapping one ``Activation`` for another in place) likewise require
:func:`clear_plan_cache`.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.backend.policy import DtypeLike, resolve_dtype
from repro.nn.layers import Activation, Dense, Module, Sequential
from repro.nn.regularization import Dropout


class NotCompilableError(TypeError):
    """The module tree contains something the compiled path cannot run.

    Raised for unknown module types, activations without a compiled
    kernel, and training-mode dropout (whose stochastic mask belongs to
    the graph engine). Callers that can fall back to the graph forward
    (``forward_in_batches``) catch this and do so.
    """


# -- graph-forward escape hatch (parity tests, A/B benchmarks) ----------
class _ForcedGraph(threading.local):
    active = False


_FORCED_GRAPH = _ForcedGraph()


def graph_forward_forced() -> bool:
    """Whether this thread is inside :func:`force_graph_forward`."""
    return _FORCED_GRAPH.active


@contextlib.contextmanager
def force_graph_forward() -> Iterator[None]:
    """Route ``forward_in_batches`` through the graph engine in this thread.

    The escape hatch the parity tests and the inference benchmark use to
    compare the two execution paths on identical inputs.
    """
    previous = _FORCED_GRAPH.active
    _FORCED_GRAPH.active = True
    try:
        yield
    finally:
        _FORCED_GRAPH.active = previous


# -- in-place activation kernels ----------------------------------------
# Each kernel owns its argument (works in place) and must return the
# result array. They replay the autodiff graph's float64 op sequences
# exactly, which is what gives compiled plans their bitwise parity.


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


_DENSE = 0
_ACT = 1

_MISSING = object()


def _collect(
    module: Module,
    leaves: List[Module],
    dropouts: List[Dropout],
    containers: List[Tuple[object, int]],
) -> None:
    """Flatten a module tree, recording cache-validation guards.

    ``leaves`` receives the Dense/Activation leaves in execution order;
    ``dropouts`` every Dropout encountered (the cache must refuse a plan
    when one is later switched to training mode); ``containers`` each
    Sequential-like node with its current child count (the structural
    fingerprint — an ``append`` invalidates the cached plan).
    """
    if isinstance(module, Sequential) or (
        not isinstance(module, Dropout) and hasattr(module, "modules")
    ):
        containers.append((module, len(module.modules)))
        for child in module.modules:
            _collect(child, leaves, dropouts, containers)
    elif isinstance(module, Dropout):
        if module.training and module.p > 0.0:
            raise NotCompilableError(
                "training-mode Dropout cannot be compiled; call "
                "set_training(module, False) first or use the graph forward"
            )
        # Inference-mode dropout is the identity: skip it.
        dropouts.append(module)
    else:
        leaves.append(module)


class CompiledInference:
    """An executable forward plan over plain arrays.

    Call it with a 2-D batch ``(n, in_features)``; it returns a
    ``(n, out_features)`` array of the compiled dtype — a fresh array,
    or ``out`` when the caller passes one (``plan(X, out=dest)`` writes
    the final dense segment straight into ``dest``, which is how
    ``forward_in_batches`` assembles multi-chunk results without a
    concatenate). Internal buffers are preallocated per batch size and
    reused across calls, so repeated same-sized batches (the serving
    steady state) run allocation-free.
    """

    __slots__ = ("_steps", "out_dim", "dtype", "_buffers", "_rows", "_last_matmul")

    def __init__(self, steps: List[tuple], out_dim: Optional[int], dtype: np.dtype):
        self._steps = steps
        self.out_dim = out_dim
        self.dtype = dtype
        self._buffers: List[Optional[np.ndarray]] = []
        self._rows = -1
        # Index of the last matmul step: it (and the in-place activation
        # steps after it) writes into the caller-visible destination
        # rather than an internal buffer.
        self._last_matmul = max(
            (i for i, step in enumerate(steps) if step[0] == _DENSE), default=None
        )

    def _allocate(self, rows: int) -> None:
        self._buffers = [
            None
            if step[0] == _ACT or i == self._last_matmul
            else np.empty((rows, step[1].shape[1]), dtype=self.dtype)
            for i, step in enumerate(self._steps)
        ]
        self._rows = rows

    def _destination(
        self, n: int, in_width: int, out: Optional[np.ndarray]
    ) -> np.ndarray:
        # A dense-free plan (pure activation stack) keeps the input width.
        width = self.out_dim if self.out_dim is not None else in_width
        if out is None:
            return np.empty((n, width), dtype=self.dtype)
        if out.shape != (n, width):
            raise ValueError(
                f"out has shape {out.shape}, plan produces ({n}, {width})"
            )
        if out.dtype != self.dtype:
            raise ValueError(f"out has dtype {out.dtype}, plan runs {self.dtype}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return out

    def __call__(
        self, X: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 2:
            raise ValueError(f"compiled inference expects a 2-D batch, got ndim={X.ndim}")
        n = X.shape[0]
        dest = self._destination(n, X.shape[1], out)
        if n == 0:
            return dest
        if self._last_matmul is None:
            # Pure activation stack: copy the input, apply in place.
            np.copyto(dest, X)
            for _, kernel in self._steps:
                kernel(dest)
            return dest
        if n != self._rows:
            self._allocate(n)
        current = X
        owns_current = False  # may we mutate `current` in place?
        for i, step in enumerate(self._steps):
            if step[0] == _ACT:
                if not owns_current:
                    current = np.array(current, dtype=self.dtype)
                    owns_current = True
                current = step[1](current)
                continue
            _, weight, bias = step
            target = dest if i == self._last_matmul else self._buffers[i]
            np.matmul(current, weight, out=target)
            if bias is not None:
                target += bias
            current = target
            owns_current = True
        return current


def _compile_with_meta(
    module: Module, resolved: np.dtype
) -> Tuple[CompiledInference, List, List, List]:
    """Compile, returning the plan plus the cache-validation metadata."""
    leaves: List[Module] = []
    dropouts: List[Dropout] = []
    containers: List[Tuple[object, int]] = []
    _collect(module, leaves, dropouts, containers)
    steps: List[tuple] = []
    params: List = []
    out_dim: Optional[int] = None
    for leaf in leaves:
        if isinstance(leaf, Dense):
            params.append(leaf.weight)
            weight = leaf.weight.data
            bias = None
            if leaf.bias is not None:
                params.append(leaf.bias)
                bias = leaf.bias.data
            if weight.dtype != resolved:
                weight = weight.astype(resolved)
                bias = bias.astype(resolved) if bias is not None else None
            out_dim = int(leaf.out_features)
            steps.append((_DENSE, weight, bias))
        elif isinstance(leaf, Activation):
            kernel = INPLACE_ACTIVATIONS.get(leaf.name, _MISSING)
            if kernel is _MISSING:
                raise NotCompilableError(
                    f"activation {leaf.name!r} has no compiled kernel"
                )
            if kernel is None:
                continue  # linear: identity, dropped at compile time
            steps.append((_ACT, kernel))
        else:
            raise NotCompilableError(
                f"module {type(leaf).__name__} is not supported by the "
                "compiled inference path"
            )
    plan = CompiledInference(steps, out_dim, resolved)
    return plan, params, dropouts, containers


def compile_inference(module: Module, dtype: DtypeLike = None) -> CompiledInference:
    """Compile a module tree into a graph-free forward plan.

    Parameters
    ----------
    module:
        A :class:`~repro.nn.layers.Module` built from ``Dense``,
        ``Activation``, ``Sequential`` (arbitrarily nested), and
        inference-mode ``Dropout``. Anything else raises
        :class:`NotCompilableError`.
    dtype:
        Execution precision: ``None`` (the thread's policy default,
        normally float64), ``"float64"``, or ``"float32"``. Weights are
        captured by reference at float64 and cast once at float32.
        A float64 plan replays the graph's op sequence bitwise.

    Returns
    -------
    CompiledInference
        The executable plan. It snapshots current weights; recompile
        after an optimizer step or ``load_state_dict`` (or use
        :func:`cached_inference`, which detects both automatically).
    """
    plan, _, _, _ = _compile_with_meta(module, resolve_dtype(dtype))
    return plan


# -- weight-keyed plan cache --------------------------------------------
class _CacheEntry:
    """One cached plan plus everything needed to validate it cheaply.

    ``params`` are the parameter *Tensors* (stable objects; optimizers
    rebind only their ``.data``), ``data_ids`` the ids of the arrays the
    plan captured, ``sources`` strong references to those arrays — an id
    can only be recycled after its array is garbage collected, so
    holding the sources makes the id comparison sound. ``dropouts`` and
    ``containers`` guard against mode flips and structural edits.
    """

    __slots__ = ("plan", "params", "data_ids", "sources", "dropouts", "containers")

    def __init__(self, plan, params, dropouts, containers):
        self.plan = plan
        self.params = params
        self.sources = tuple(p.data for p in params)
        self.data_ids = tuple(id(arr) for arr in self.sources)
        self.dropouts = dropouts
        self.containers = containers

    def valid(self) -> bool:
        if tuple(id(p.data) for p in self.params) != self.data_ids:
            return False
        for container, length in self.containers:
            if len(container.modules) != length:
                return False
        for dropout in self.dropouts:
            if dropout.training and dropout.p > 0.0:
                return False
        return True


class _PlanCache(threading.local):
    def __init__(self):
        self.modules: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


_PLAN_CACHE = _PlanCache()

_STATS_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0, "invalidations": 0}


def _count(event: str) -> None:
    with _STATS_LOCK:
        _STATS[event] += 1


def plan_cache_stats() -> dict:
    """Process-wide plan-cache counters: hits, misses, invalidations.

    A *miss* is a module/dtype combination seen for the first time; an
    *invalidation* is a stale entry (rebound ``param.data``, structural
    edit, or a dropout flipped to training mode) that forced a
    recompile. Serving telemetry snapshots these around each batch.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def reset_plan_cache_stats() -> None:
    """Zero the hit/miss/invalidation counters (tests, benchmarks)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


def clear_plan_cache() -> None:
    """Drop every cached plan owned by the calling thread.

    Needed only after mutations the key cannot see: in-place writes to
    a captured ``param.data`` array, or structural edits that preserve
    container lengths and parameter identity.
    """
    _PLAN_CACHE.modules = weakref.WeakKeyDictionary()


def evict_plan(module: Module) -> bool:
    """Drop the calling thread's cached plans for one module.

    The model hot-swap path retires a network that will never be scored
    again; evicting it eagerly releases the plan's scratch buffers and
    the strong array references the cache holds (a WeakKeyDictionary
    only drops them once the *module* is collected, which the retired
    generation may delay by staying reachable for rollback). Counts as
    an invalidation in :func:`plan_cache_stats` when something was
    evicted; returns whether it was.
    """
    try:
        bucket = _PLAN_CACHE.modules.pop(module, None)
    except TypeError:  # unhashable/non-weakrefable module: never cached
        return False
    if bucket:
        _count("invalidations")
        return True
    return False


def cached_inference(module: Module, dtype: DtypeLike = None) -> CompiledInference:
    """Return a compiled plan for ``module``, reusing a cached one when valid.

    The fast path for repeated serving calls against frozen weights: a
    cache hit is two tuple comparisons — no tree walk, no buffer
    allocation. The key is the tuple of parameter-array ``id()``\\ s
    plus the dtype. Optimizers rebind ``param.data`` on
    every step, so any weight update also changes the key and forces a
    recompile. Plans are cached per-thread because they own mutable
    scratch buffers.

    Raises :class:`NotCompilableError` exactly like
    :func:`compile_inference` (e.g. training-mode dropout), leaving any
    previously cached entry intact.
    """
    resolved = resolve_dtype(dtype)
    key = resolved.str
    try:
        bucket = _PLAN_CACHE.modules.setdefault(module, {})
    except TypeError:  # unhashable/non-weakrefable module: compile fresh
        _count("misses")
        return compile_inference(module, dtype=resolved)
    entry = bucket.get(key)
    if entry is not None:
        if entry.valid():
            _count("hits")
            return entry.plan
        _count("invalidations")
    else:
        _count("misses")
    plan, params, dropouts, containers = _compile_with_meta(module, resolved)
    bucket[key] = _CacheEntry(plan, params, dropouts, containers)
    return plan

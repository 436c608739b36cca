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

Three layers of the serving fast path live here:

- **Fused Dense+activation steps.** By default each ``Dense`` and the
  activation that follows it compile into one call of
  :func:`repro.backend.kernels.fused_dense_act`: matmul, bias add, and
  the nonlinearity execute per row tile into a preallocated output
  buffer. Fused results agree with the unfused sequence to atol 1e-12;
  the escape hatch is :func:`disable_fused_kernels` (or
  ``compile_inference(..., fused=False)``), which restores the unfused
  op-for-op replay of the graph forward — **bitwise** identical at
  float64.

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
:mod:`repro.backend` dtype policy) the unfused compiled path executes
the exact same floating-point operations as the graph forward, so
outputs agree bitwise (the parity suite asserts atol 1e-9 and equality).
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

from repro.backend.kernels import INPLACE_ACTIVATIONS, fused_dense_act
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


# -- fused-kernel escape hatch ------------------------------------------
class _FusedPolicy(threading.local):
    enabled = True


_FUSED_POLICY = _FusedPolicy()


def fused_kernels_enabled() -> bool:
    """Whether newly compiled plans in this thread fuse Dense+activation."""
    return _FUSED_POLICY.enabled


@contextlib.contextmanager
def disable_fused_kernels() -> Iterator[None]:
    """Compile plans with the unfused (bitwise graph-parity) op sequence.

    The fused-kernel escape hatch: inside the block every new
    compilation in this thread uses separate matmul / bias-add /
    activation steps, replaying the graph forward's exact float64 op
    sequence. Cached fused plans are not evicted — fused and unfused
    plans occupy distinct cache slots.
    """
    previous = _FUSED_POLICY.enabled
    _FUSED_POLICY.enabled = False
    try:
        yield
    finally:
        _FUSED_POLICY.enabled = previous


_DENSE = 0
_ACT = 1
_FUSED = 2

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

    __slots__ = (
        "_steps", "out_dim", "in_dim", "dtype", "fused",
        "_buffers", "_rows", "_last_matmul",
    )

    def __init__(
        self,
        steps: List[tuple],
        in_dim: Optional[int],
        out_dim: Optional[int],
        dtype: np.dtype,
        fused: bool = False,
    ):
        self._steps = steps
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.dtype = dtype
        self.fused = fused
        self._buffers: List[Optional[np.ndarray]] = []
        self._rows = -1
        # Index of the last matmul step: it (and the in-place activation
        # steps after it) writes into the caller-visible destination
        # rather than an internal buffer.
        self._last_matmul = max(
            (i for i, step in enumerate(steps) if step[0] != _ACT), default=None
        )

    def _allocate(self, rows: int) -> None:
        self._buffers = [
            None
            if step[0] == _ACT or i == self._last_matmul
            else np.empty((rows, step[2].shape[1]), dtype=self.dtype)
            for i, step in enumerate(self._steps)
        ]
        self._rows = rows

    def _destination(self, n: int, out: Optional[np.ndarray]) -> np.ndarray:
        width = self.out_dim if self.out_dim is not None else self.in_dim
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
        if n == 0:
            if out is not None:
                return self._destination(0, out)
            width = self.out_dim if self.out_dim is not None else X.shape[1]
            return np.empty((0, width), dtype=self.dtype)
        if self._last_matmul is None:
            # Pure activation stack: copy the input, apply in place.
            if self.out_dim is None and out is not None and out.shape[1] != X.shape[1]:
                raise ValueError(
                    f"out has width {out.shape[1]}, input has {X.shape[1]}"
                )
            dest = out if out is not None else np.empty_like(X)
            np.copyto(dest, X)
            for step in self._steps:
                step[1](dest)
            return dest
        if n != self._rows:
            self._allocate(n)
        dest = self._destination(n, out)
        current = X
        owns_current = False  # may we mutate `current` in place?
        for i, step in enumerate(self._steps):
            kind = step[0]
            if kind == _ACT:
                if not owns_current:
                    current = np.array(current, dtype=self.dtype)
                    owns_current = True
                current = step[1](current)
                continue
            target = dest if i == self._last_matmul else self._buffers[i]
            if kind == _DENSE:
                _, _, weight, bias = step
                np.matmul(current, weight, out=target)
                if bias is not None:
                    target += bias
            else:  # _FUSED
                _, act_name, weight, bias = step
                fused_dense_act(current, weight, bias, act_name, target)
            current = target
            owns_current = True
        return current


def _compile_with_meta(
    module: Module, resolved: np.dtype, fused: bool
) -> Tuple[CompiledInference, List, List, List]:
    """Compile, returning the plan plus the cache-validation metadata."""
    leaves: List[Module] = []
    dropouts: List[Dropout] = []
    containers: List[Tuple[object, int]] = []
    _collect(module, leaves, dropouts, containers)
    steps: List[tuple] = []
    params: List = []
    in_dim: Optional[int] = None
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
            if in_dim is None:
                in_dim = int(leaf.in_features)
            out_dim = int(leaf.out_features)
            steps.append((_DENSE, None, weight, bias))
        elif isinstance(leaf, Activation):
            kernel = INPLACE_ACTIVATIONS.get(leaf.name, _MISSING)
            if kernel is _MISSING:
                raise NotCompilableError(
                    f"activation {leaf.name!r} has no compiled kernel"
                )
            if kernel is None:
                continue  # linear: identity, dropped at compile time
            if fused and steps and steps[-1][0] == _DENSE:
                _, _, weight, bias = steps[-1]
                steps[-1] = (_FUSED, leaf.name, weight, bias)
            else:
                steps.append((_ACT, kernel))
        else:
            raise NotCompilableError(
                f"module {type(leaf).__name__} is not supported by the "
                "compiled inference path"
            )
    plan = CompiledInference(steps, in_dim, out_dim, resolved, fused=fused)
    return plan, params, dropouts, containers


def compile_inference(
    module: Module, dtype: DtypeLike = None, fused: Optional[bool] = None
) -> CompiledInference:
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
    fused:
        ``None`` (default) — fuse each Dense with its following
        activation into one kernel call unless
        :func:`disable_fused_kernels` is in effect;
        ``True``/``False`` force the choice. Unfused plans replay the
        graph's float64 op sequence bitwise; fused plans agree to
        atol 1e-12.

    Returns
    -------
    CompiledInference
        The executable plan. It snapshots current weights; recompile
        after an optimizer step or ``load_state_dict`` (or use
        :func:`cached_inference`, which detects both automatically).
    """
    resolved = resolve_dtype(dtype)
    if fused is None:
        fused = _FUSED_POLICY.enabled
    plan, _, _, _ = _compile_with_meta(module, resolved, bool(fused))
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


def cached_inference(
    module: Module, dtype: DtypeLike = None, fused: Optional[bool] = None
) -> CompiledInference:
    """Return a compiled plan for ``module``, reusing a cached one when valid.

    The fast path for repeated serving calls against frozen weights: a
    cache hit is two tuple comparisons — no tree walk, no buffer
    allocation. The key is the tuple of parameter-array ``id()``\\ s
    plus the dtype and fused flag. Optimizers rebind ``param.data`` on
    every step, so any weight update also changes the key and forces a
    recompile. Plans are cached per-thread because they own mutable
    scratch buffers.

    Raises :class:`NotCompilableError` exactly like
    :func:`compile_inference` (e.g. training-mode dropout), leaving any
    previously cached entry intact.
    """
    resolved = resolve_dtype(dtype)
    if fused is None:
        fused = _FUSED_POLICY.enabled
    key = (resolved.str, bool(fused))
    try:
        bucket = _PLAN_CACHE.modules.setdefault(module, {})
    except TypeError:  # unhashable/non-weakrefable module: compile fresh
        _count("misses")
        return compile_inference(module, dtype=resolved, fused=fused)
    entry = bucket.get(key)
    if entry is not None:
        if entry.valid():
            _count("hits")
            return entry.plan
        _count("invalidations")
    else:
        _count("misses")
    plan, params, dropouts, containers = _compile_with_meta(
        module, resolved, bool(fused)
    )
    bucket[key] = _CacheEntry(plan, params, dropouts, containers)
    return plan

"""Execution layer behind :class:`~repro.serving.pipeline.ScoringPipeline`.

Serving scores a batch either inline (``model.score_batch`` in the
calling process) or on the always-on
:class:`~repro.serving.daemon.ServingDaemon`. This module puts both
behind one seam:

- :class:`Executor` — the protocol every execution path implements:
  ``score(X) -> (scores, routing)``, ``update_spec(spec)`` for model
  hot-swaps, ``reset()`` for swap rollback, ``alive`` for chain
  selection, and ``close()``.
- :class:`InlineExecutor`, :class:`DaemonExecutor` — adapters wrapping
  the two engines; each owns its engine's lifecycle, disable logic, and
  telemetry.
- :class:`FallbackChain` — the infra-failure matrix, encoded once: an
  :class:`~repro.serving.errors.ExecutorUnavailable` raised by any
  executor demotes the batch to the next executor in the chain without
  touching the circuit breaker, while *model* faults propagate raw so
  the pipeline's breaker/degraded-fallback guardrails treat every
  executor identically.

Every executor scores through the same :class:`ScoringSpec` forward
functions the inline path uses, so on identical float64 inputs scores
and routing are bitwise-identical across the whole chain — the
conformance suite (``tests/serving/test_executor_conformance.py``)
pins that, including across hot swaps. The one exception is a request
the daemon coalesces with concurrent ones into a larger dispatch: its
routes are the same and its scores are within ``1e-12`` of scoring it
alone (a 1-row matmul may take a different BLAS kernel).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import ensure_telemetry
from repro.serving.daemon import DaemonUnavailable, ServingDaemon
from repro.serving.errors import ExecutorUnavailable
from repro.serving.sharding import ScoringSpec

__all__ = [
    "DaemonExecutor",
    "Executor",
    "ExecutorUnavailable",
    "FallbackChain",
    "InlineExecutor",
]

#: A zero-argument callable producing a fresh :class:`ScoringSpec` from
#: the pipeline's *current* model — evaluated lazily so executors built
#: before a hot swap still pick up the live generation.
SpecFactory = Callable[[], ScoringSpec]


class Executor(abc.ABC):
    """One serving execution path with a uniform control surface.

    The contract the :class:`FallbackChain` (and through it the
    pipeline's hot-swap machinery) depends on:

    - :meth:`score` returns ``(scores, routing)`` bitwise-identical to
      the inline ``model.score_batch`` on the same rows. Infrastructure
      problems raise :class:`ExecutorUnavailable`; model faults raise
      with their original type.
    - :attr:`alive` is ``False`` once the executor has permanently
      disabled itself; the chain then skips it without trying.
    - :meth:`update_spec` pushes a new model generation into any worker
      surface; :meth:`needs_spec` reports whether one exists (so the
      swap only builds a spec when somebody will consume it).
    - :meth:`reset` restores workers to the pipeline's current model
      after a failed swap (the pipeline has already restored its own
      pointers when this is called).
    - :meth:`close` is idempotent.
    """

    #: Telemetry tag naming this execution path (e.g. ``"daemon"``).
    name: str = "executor"

    @property
    def alive(self) -> bool:
        return True

    @abc.abstractmethod
    def score(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score sanitized rows; see the class docstring for the contract."""

    def needs_spec(self) -> bool:
        """Whether a live worker surface would consume ``update_spec``."""
        return False

    def update_spec(self, spec: ScoringSpec) -> None:
        """Push a new generation's spec into the worker surface."""

    def reset(self) -> None:
        """Rollback hook: re-point workers at the pipeline's current model."""

    def close(self) -> None:
        """Release worker resources. Idempotent."""


class InlineExecutor(Executor):
    """Single-process scoring on the live model — the terminal executor.

    Reads the model through ``model_ref`` on every call, so a hot swap
    is visible the moment the pipeline flips its pointer; ``update_spec``
    and ``reset`` are therefore no-ops. Never raises
    :class:`ExecutorUnavailable` — anything it raises is a model fault.
    """

    name = "inline"

    def __init__(self, model_ref: Callable[[], object], strategy: str):
        self._model_ref = model_ref
        self._strategy = strategy

    def score(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # score_batch runs the classifier once on the compiled
        # graph-free path and yields scores + routing together —
        # no Tensor objects are constructed at serve time.
        return self._model_ref().score_batch(X, strategy=self._strategy)


class DaemonExecutor(Executor):
    """Always-on serving daemon behind the executor protocol.

    Wraps a caller-owned :class:`ServingDaemon` (not closed by
    :meth:`close` — the caller keeps its lifecycle) or lazily builds an
    owned one from the spec factory on first score. A daemon that cannot
    start — or dies and cannot respawn — disables the executor for its
    lifetime (``serve.daemon.disabled``); a transiently unavailable
    daemon (worker crash mid-respawn) demotes that batch only
    (``serve.daemon.fallbacks``). Worker *model* faults propagate raw.
    """

    name = "daemon"

    def __init__(
        self,
        spec_factory: SpecFactory,
        daemon: Optional[ServingDaemon] = None,
        telemetry=None,
    ):
        self._spec_factory = spec_factory
        self.telemetry = ensure_telemetry(telemetry)
        self._daemon = daemon
        self._owned = False
        self._disabled = False

    @property
    def alive(self) -> bool:
        return not self._disabled

    @property
    def daemon(self) -> Optional[ServingDaemon]:
        return self._daemon

    def _ensure(self) -> ServingDaemon:
        """Build/start the daemon on first use; disable on hard failure."""
        try:
            if self._daemon is None:
                try:
                    spec = self._spec_factory()
                except Exception as exc:
                    # A spec that cannot be extracted (e.g. the strategy
                    # cannot calibrate) is "daemon unavailable", not a
                    # model fault: the inline path keeps its lazier
                    # semantics further down the chain.
                    raise DaemonUnavailable(
                        f"cannot build scoring spec: {exc}"
                    ) from exc
                self._daemon = ServingDaemon(spec, telemetry=self.telemetry)
                self._owned = True
            if not self._daemon.alive:
                self._daemon.start()
        except DaemonUnavailable as exc:
            self._disable(exc)
            raise
        return self._daemon

    def score(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        daemon = self._ensure()
        try:
            return daemon.score(X)
        except DaemonUnavailable as exc:
            # Transient (worker died mid-respawn): the chain rescores
            # this batch further down; a dead daemon stays disabled.
            self.telemetry.increment("serve.daemon.fallbacks")
            self.telemetry.record_event(
                "serve.daemon.fallback",
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )
            if not daemon.alive:
                self._disable(exc)
            raise

    def _disable(self, exc: Exception) -> None:
        self._disabled = True
        if self._daemon is not None and self._owned:
            self._daemon.close()
            self._daemon = None
        self.telemetry.increment("serve.daemon.disabled")
        self.telemetry.record_event(
            "serve.daemon.disabled",
            error=type(exc).__name__,
            detail=str(exc)[:200],
        )

    def needs_spec(self) -> bool:
        return (
            self._daemon is not None
            and not self._disabled
            and self._daemon.alive
        )

    def update_spec(self, spec: ScoringSpec) -> None:
        if self.needs_spec():
            self._daemon.update_spec(spec)

    def reset(self) -> None:
        """Put the daemon back on the pipeline's (restored) model.

        An owned daemon is simply closed — the lazy build path
        reconstructs it from the spec factory, which reads the restored
        model. A caller-owned daemon cannot be rebuilt here, so its spec
        is re-pushed; if even that fails the executor is disabled and
        the chain serves without it.
        """
        if self._daemon is None:
            return
        if self._owned:
            self._daemon.close()
            self._daemon = None
            return
        try:
            self._daemon.update_spec(self._spec_factory())
        except Exception as exc:
            self._disable(exc)

    def close(self) -> None:
        if self._daemon is not None and self._owned:
            self._daemon.close()
            self._daemon = None


class FallbackChain:
    """Ordered executors plus the infra-failure matrix, encoded once.

    :meth:`score` walks the chain: the first executor that is alive
    serves the batch. An :class:`ExecutorUnavailable` demotes
    the batch to the next executor — one ``serve.executor.demotions``
    count and a ``serve.executor.demoted`` event, never a circuit-
    breaker fault (whether the failure was permanent is the executor's
    own bookkeeping, observed through ``alive`` next batch). Any other
    exception is a model fault and propagates to the caller's
    guardrails exactly as the inline path would raise it.

    The chain also forwards the uniform control surface the pipeline's
    swap machinery calls: :meth:`push_spec` (swap push phase),
    :meth:`reset` (swap rollback), :meth:`close`.
    """

    def __init__(self, executors: Sequence[Executor], telemetry=None):
        if not executors:
            raise ValueError("FallbackChain needs at least one executor")
        self.executors: List[Executor] = list(executors)
        self.telemetry = ensure_telemetry(telemetry)
        self.last_executor: Optional[str] = None

    def __iter__(self):
        return iter(self.executors)

    def find(self, cls) -> Optional[Executor]:
        """First executor of (a subclass of) ``cls``, or ``None``."""
        for executor in self.executors:
            if isinstance(executor, cls):
                return executor
        return None

    def begin_batch(self) -> None:
        """Clear per-batch state before a new pipeline batch."""
        self.last_executor = None

    def score(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        last_exc: Optional[ExecutorUnavailable] = None
        for executor in self.executors:
            if not executor.alive:
                continue
            try:
                result = executor.score(X)
            except ExecutorUnavailable as exc:
                last_exc = exc
                self._record_demotion(executor, exc)
                continue
            self.last_executor = executor.name
            return result
        raise last_exc if last_exc is not None else ExecutorUnavailable(
            "no executor in the chain is alive"
        )

    def _record_demotion(self, executor: Executor, exc: Exception) -> None:
        if self.telemetry.enabled:
            self.telemetry.increment("serve.executor.demotions")
            self.telemetry.record_event(
                "serve.executor.demoted",
                executor=executor.name,
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )

    def needs_spec(self) -> bool:
        return any(executor.needs_spec() for executor in self.executors)

    def push_spec(
        self, spec: Optional[ScoringSpec], spec_factory: SpecFactory
    ) -> None:
        """Push a staged generation into every live worker surface.

        ``spec`` may be ``None`` when staging found no worker surface;
        if one has appeared since (lazy build on a concurrent batch),
        the factory builds it now. Raises whatever an executor's
        ``update_spec`` raises — the caller treats that as a failed swap
        push and rolls back via :meth:`reset`.
        """
        targets = [ex for ex in self.executors if ex.needs_spec()]
        if not targets:
            return
        if spec is None:
            spec = spec_factory()
        for executor in targets:
            executor.update_spec(spec)

    def reset(self) -> None:
        """Swap rollback: re-point every executor at the restored model."""
        for executor in self.executors:
            executor.reset()

    def close(self) -> None:
        """Close every executor. Idempotent."""
        for executor in self.executors:
            executor.close()

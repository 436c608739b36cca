"""Shared exception taxonomy for the serving execution layer.

The serving stack distinguishes two failure families, and every
execution path must sort its errors into exactly one of them:

- :class:`ExecutorUnavailable` — an *infrastructure* problem: shared
  memory missing, a worker process dead, a daemon that cannot start. The
  :class:`~repro.serving.executor.FallbackChain` demotes the batch to
  the next executor and the circuit breaker is never involved.
- Everything else raised while scoring is a *model fault*: it
  propagates to the pipeline's guardrails with its original type, where
  the breaker/degraded-fallback machinery treats it exactly like a
  single-process scoring fault.

:class:`~repro.serving.daemon.DaemonUnavailable` subclasses
:class:`ExecutorUnavailable`, so the chain encodes the infra-failure
matrix once instead of catching per-engine exception types.
"""

from __future__ import annotations

__all__ = ["ExecutorUnavailable"]


class ExecutorUnavailable(RuntimeError):
    """An executor cannot serve for infrastructure reasons.

    Callers (the :class:`~repro.serving.executor.FallbackChain`) demote
    the batch to the next executor in the chain; the circuit breaker is
    never involved. Whether the executor stays down permanently is the
    executor's own call — the chain just checks ``alive`` next batch.
    """

"""Deployment utilities: scoring pipelines, drift monitoring, alert routing.

The paper's motivating systems run continuously (payment platforms, SOC
pipelines). This package wraps a fitted TargAD for that setting:

- :class:`~repro.serving.pipeline.ScoringPipeline` — batch scoring with
  thresholds calibrated on a validation split and tri-class routing;
- :class:`~repro.serving.drift.DriftMonitor` — per-feature ECDF distance
  between live batches and the training reference, flagging covariate
  drift that would silently invalidate the detector;
- :class:`~repro.serving.pipeline.AlertBatch` — the structured result a
  downstream queue consumes.

The pipeline is hardened through :mod:`repro.resilience`: incoming rows
are sanitized (bad rows quarantined, marked :data:`ROUTE_QUARANTINED` in
the routing), and the primary scorer is guarded by a circuit breaker
with a reconstruction-error fallback for degraded operation.

Execution runs through the executor layer (:mod:`repro.serving.executor`):
a :class:`~repro.serving.executor.FallbackChain` of
:class:`~repro.serving.executor.Executor` adapters — an optional
always-on daemon, then inline — where infrastructure failures demote a
batch down the chain and model faults propagate to the circuit breaker
uniformly. ``ScoringPipeline(executor=...)`` takes ``"inline"``,
``"daemon"``, or a started :class:`~repro.serving.daemon.ServingDaemon`.

The daemon keeps a picklable :class:`~repro.serving.sharding.ScoringSpec`
snapshot of the fitted model *resident* in long-lived workers and moves
rows and results through :class:`~repro.serving.shm_ring.ShmRing`
shared-memory ring buffers (zero pickling on the hot path, zero-copy
result reads), coalescing concurrent small requests into fused scoring
calls. The replay harness (:mod:`repro.serving.replay`) measures
latency under open-loop load.
"""

from repro.serving.daemon import DaemonUnavailable, ServingDaemon
from repro.serving.drift import DriftMonitor, DriftReport
from repro.serving.errors import ExecutorUnavailable
from repro.serving.executor import (
    DaemonExecutor,
    Executor,
    FallbackChain,
    InlineExecutor,
)
from repro.serving.pipeline import (
    EXECUTOR_PRESETS,
    ROUTE_QUARANTINED,
    AlertBatch,
    ScoringPipeline,
)
from repro.serving.sharding import ScoringSpec, build_scoring_spec
from repro.serving.shm_ring import ShmRing

__all__ = [
    "AlertBatch",
    "DaemonExecutor",
    "DaemonUnavailable",
    "DriftMonitor",
    "DriftReport",
    "EXECUTOR_PRESETS",
    "Executor",
    "ExecutorUnavailable",
    "FallbackChain",
    "InlineExecutor",
    "ROUTE_QUARANTINED",
    "ScoringPipeline",
    "ScoringSpec",
    "ServingDaemon",
    "ShmRing",
    "build_scoring_spec",
]

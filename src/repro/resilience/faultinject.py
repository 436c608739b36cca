"""Deterministic fault injection for chaos tests.

A :class:`FaultPlan` is a declarative, seeded description of *what goes
wrong when*: which scoring calls raise, which have a fraction of their
scores NaN-corrupted, how much artificial latency each call pays. Wrapping
a fitted model with :class:`FaultyModel` replays the plan exactly — same
plan, same seed, same faults — so chaos tests and the ``repro resilience``
CLI replay are reproducible down to the corrupted row indices.

The plan is JSON-serializable (``to_dict``/``from_dict``) so fault
scenarios can live in version-controlled fixture files.

::

    plan = FaultPlan(raise_on=(2, 3), nan_fraction=0.5, nan_on=(5,), seed=7)
    chaotic = FaultyModel(model, plan)
    pipeline = ScoringPipeline(chaotic, ...)   # never crashes; breaker trips

:func:`corrupt_rows` is the input-side counterpart: it NaN-corrupts a
fraction of a batch's *rows* to exercise the quarantine path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.obs import ensure_telemetry
from repro.resilience.errors import InjectedFault


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of injected scoring faults.

    Attributes
    ----------
    raise_on:
        1-based scoring-call indices that raise :class:`InjectedFault`.
    nan_fraction:
        Fraction of output scores NaN-corrupted on affected calls.
    nan_on:
        Calls affected by NaN corruption; ``None`` = every call (when
        ``nan_fraction > 0``).
    latency:
        Seconds of artificial delay added to every scoring call.
    seed:
        Seed of the corruption RNG; fixes *which* rows get corrupted.
    """

    raise_on: Tuple[int, ...] = ()
    nan_fraction: float = 0.0
    nan_on: Optional[Tuple[int, ...]] = None
    latency: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "raise_on", tuple(int(c) for c in self.raise_on))
        if self.nan_on is not None:
            object.__setattr__(self, "nan_on", tuple(int(c) for c in self.nan_on))
        if any(c < 1 for c in self.raise_on):
            raise ValueError("raise_on call indices are 1-based and must be >= 1")
        if self.nan_on is not None and any(c < 1 for c in self.nan_on):
            raise ValueError("nan_on call indices are 1-based and must be >= 1")
        if not 0.0 <= self.nan_fraction <= 1.0:
            raise ValueError("nan_fraction must be in [0, 1]")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def to_dict(self) -> dict:
        return {
            "raise_on": list(self.raise_on),
            "nan_fraction": self.nan_fraction,
            "nan_on": None if self.nan_on is None else list(self.nan_on),
            "latency": self.latency,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from a JSON-decoded dict; unknown keys are rejected."""
        known = {"raise_on", "nan_fraction", "nan_on", "latency", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys {sorted(unknown)}; expected {sorted(known)}"
            )
        kwargs = dict(payload)
        if kwargs.get("raise_on") is not None:
            kwargs["raise_on"] = tuple(kwargs["raise_on"])
        if kwargs.get("nan_on") is not None:
            kwargs["nan_on"] = tuple(kwargs["nan_on"])
        return cls(**kwargs)

    def describe(self) -> str:
        parts = []
        if self.raise_on:
            parts.append(f"raise on call(s) {list(self.raise_on)}")
        if self.nan_fraction > 0:
            where = "every call" if self.nan_on is None else f"call(s) {list(self.nan_on)}"
            parts.append(f"NaN-corrupt {self.nan_fraction:.0%} of scores on {where}")
        if self.latency > 0:
            parts.append(f"+{self.latency * 1e3:.0f}ms latency per call")
        return "; ".join(parts) if parts else "no faults"


#: Ordered phases of one lifecycle refit/swap cycle, as fired by
#: :class:`~repro.lifecycle.LifecycleManager` and
#: ``ScoringPipeline.swap_model``. ``assemble``/``label``/``refit``/
#: ``validate`` happen before any serving state is touched; ``stage``
#: (build spec/threshold/fallback), ``push`` (re-push spec to daemon
#: workers) and ``flip`` (pointer swap) happen inside the swap.
SWAP_PHASES = ("assemble", "label", "refit", "validate", "stage", "push", "flip")


@dataclass(frozen=True)
class SwapFaultPlan:
    """Declarative description of injected hot-swap faults.

    Attributes
    ----------
    fail_phases:
        Swap phases (see :data:`SWAP_PHASES`) that raise
        :class:`InjectedFault` when reached.
    on_cycle:
        1-based refit-cycle indices the faults fire on; ``None`` = every
        cycle (so a retry after a rollback fails again).
    """

    fail_phases: Tuple[str, ...] = ()
    on_cycle: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "fail_phases", tuple(str(p) for p in self.fail_phases)
        )
        unknown = set(self.fail_phases) - set(SWAP_PHASES)
        if unknown:
            raise ValueError(
                f"unknown swap phase(s) {sorted(unknown)}; "
                f"expected a subset of {list(SWAP_PHASES)}"
            )
        if self.on_cycle is not None:
            object.__setattr__(self, "on_cycle", tuple(int(c) for c in self.on_cycle))
            if any(c < 1 for c in self.on_cycle):
                raise ValueError("on_cycle indices are 1-based and must be >= 1")

    def to_dict(self) -> dict:
        return {
            "fail_phases": list(self.fail_phases),
            "on_cycle": None if self.on_cycle is None else list(self.on_cycle),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SwapFaultPlan":
        known = {"fail_phases", "on_cycle"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown swap-fault-plan keys {sorted(unknown)}; expected {sorted(known)}"
            )
        kwargs = dict(payload)
        if kwargs.get("fail_phases") is not None:
            kwargs["fail_phases"] = tuple(kwargs["fail_phases"])
        if kwargs.get("on_cycle") is not None:
            kwargs["on_cycle"] = tuple(kwargs["on_cycle"])
        return cls(**kwargs)

    def describe(self) -> str:
        if not self.fail_phases:
            return "no swap faults"
        when = "every cycle" if self.on_cycle is None else f"cycle(s) {list(self.on_cycle)}"
        return f"fail phase(s) {list(self.fail_phases)} on {when}"


class SwapFaultInjector:
    """Replays a :class:`SwapFaultPlan` against the lifecycle swap phases.

    The lifecycle manager calls :meth:`begin_cycle` at the start of each
    refit cycle and threads :meth:`fire` through the cycle (including
    into ``ScoringPipeline.swap_model`` as its ``fault_points`` hook);
    each reached phase that the plan marks raises
    :class:`InjectedFault`. ``fired`` records ``(cycle, phase)`` tuples
    for assertions.
    """

    def __init__(self, plan: SwapFaultPlan, telemetry=None):
        self.plan = plan
        self.telemetry = ensure_telemetry(telemetry)
        self.cycle = 0
        self.fired: list = []

    def begin_cycle(self) -> int:
        self.cycle += 1
        return self.cycle

    def fire(self, phase: str) -> None:
        """Raise :class:`InjectedFault` if the plan marks ``phase`` now."""
        if phase not in SWAP_PHASES:
            raise ValueError(f"unknown swap phase {phase!r}")
        plan = self.plan
        if phase not in plan.fail_phases:
            return
        if plan.on_cycle is not None and self.cycle not in plan.on_cycle:
            return
        self.fired.append((self.cycle, phase))
        self.telemetry.increment("resilience.fault.swap")
        self.telemetry.record_event(
            "resilience.fault.injected", kind="swap", phase=phase, cycle=self.cycle
        )
        raise InjectedFault(
            f"injected swap fault in phase {phase!r} (cycle {self.cycle})"
        )


def corrupt_rows(
    X: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Return a copy of ``X`` with a fraction of its *rows* set to NaN.

    At least one row is corrupted whenever ``fraction > 0`` and the batch
    is non-empty — the quarantine path under test should actually fire.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    X = np.array(X, dtype=np.float64, copy=True)
    if fraction == 0.0 or len(X) == 0:
        return X
    n_bad = max(int(round(fraction * len(X))), 1)
    bad = rng.choice(len(X), size=n_bad, replace=False)
    X[bad] = np.nan
    return X


class FaultyModel:
    """Chaos wrapper around a fitted model, driven by a :class:`FaultPlan`.

    The scoring entry points — ``decision_function`` and the fused
    serving call ``score_batch`` — are intercepted (they are the serving
    path's mandatory model calls); every other attribute —
    ``selector_``, ``predict_triclass``, ``m_``, ... — is delegated
    untouched, so the degraded fallback keeps working while the primary
    scorer misbehaves.

    Parameters
    ----------
    model:
        The fitted model to wrap.
    plan:
        The fault plan to replay.
    sleep:
        Injectable sleep function for the latency fault (defaults to
        ``time.sleep``); tests pass a recorder to stay instant.
    telemetry:
        Optional registry; each injected fault emits a
        ``resilience.fault.injected`` event.
    """

    def __init__(
        self,
        model,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
        telemetry=None,
    ):
        self._model = model
        self.plan = plan
        self._sleep = sleep
        self._rng = np.random.default_rng(plan.seed)
        self.telemetry = ensure_telemetry(telemetry)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self.calls += 1
        plan = self.plan
        if plan.latency > 0:
            self._sleep(plan.latency)
        if self.calls in plan.raise_on:
            self.telemetry.increment("resilience.fault.raises")
            self.telemetry.record_event(
                "resilience.fault.injected", kind="raise", call=self.calls
            )
            raise InjectedFault(f"injected scoring fault on call {self.calls}")
        scores = self._model.decision_function(X)
        if plan.nan_fraction > 0 and (plan.nan_on is None or self.calls in plan.nan_on):
            scores = np.array(scores, dtype=np.float64, copy=True)
            if len(scores):
                n_bad = max(int(round(plan.nan_fraction * len(scores))), 1)
                bad = self._rng.choice(len(scores), size=n_bad, replace=False)
                scores[bad] = np.nan
                self.telemetry.increment("resilience.fault.nan_scores", n_bad)
                self.telemetry.record_event(
                    "resilience.fault.injected",
                    kind="nan", call=self.calls, n_rows=int(n_bad),
                )
        return scores

    def score_batch(self, X: np.ndarray, strategy: str = "ed"):
        """Fused serving call, with the same fault machinery on the scores.

        Routed through :meth:`decision_function` so injected raises and
        NaN corruption hit the pipeline exactly as they would on the
        unfused path; the tri-class routing is delegated untouched.
        """
        scores = self.decision_function(X)
        routing = self._model.predict_triclass(X, strategy=strategy)
        return scores, routing

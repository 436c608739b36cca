"""Picklable scoring snapshot shared by every worker-side execution path.

:class:`ScoringSpec` captures what a worker process needs to score rows
exactly like ``TargAD.score_batch``: the fitted network's dense weights
and activation names, the (m, k) head split and the *calibrated* OOD
strategy. :func:`build_scoring_spec` extracts one from a fitted model.

The :class:`~repro.serving.daemon.ServingDaemon` holds a spec resident
in each worker, and the pipeline's hot-swap pushes a fresh one through
:meth:`~repro.serving.executor.Executor.update_spec`. Workers run the
same forward functions the single-process path runs
(:func:`repro.nn.train.forward_in_batches` +
:func:`repro.core.scoring.score_and_route`), so on identical float64
inputs their scores and routing are identical to ``model.score_batch``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.scoring import score_and_route
from repro.nn.layers import Activation, Dense, Sequential
from repro.nn.train import forward_in_batches


@dataclass
class ScoringSpec:
    """Picklable snapshot of everything a scoring worker needs.

    ``layers`` is the flattened network: ``("dense", weight, bias)``
    entries (float64 arrays; ``bias`` may be ``None``) interleaved with
    ``("act", name)`` entries, in execution order. ``strategy`` is the
    already-calibrated OOD strategy object (plain picklable floats
    inside), so workers never need calibration data.
    """

    layers: List[tuple]
    m: int
    k: int
    strategy: object
    batch_size: int = 4096

    def build_network(self) -> Sequential:
        """Reconstruct the module tree; weights are rebound, not copied."""
        modules = []
        for entry in self.layers:
            if entry[0] == "dense":
                _, weight, bias = entry
                layer = Dense(
                    int(weight.shape[0]), int(weight.shape[1]), bias=bias is not None
                )
                layer.weight.data = np.asarray(weight, dtype=np.float64)
                if bias is not None:
                    layer.bias.data = np.asarray(bias, dtype=np.float64)
                modules.append(layer)
            else:
                modules.append(Activation(entry[1]))
        return Sequential(*modules)

    def score(self, network: Sequential, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score rows exactly like ``TargAD.score_batch`` does.

        Same forward path (compiled, cached) and the same
        :func:`~repro.core.scoring.score_and_route` — float64-identical
        to the parent.
        """
        logits = forward_in_batches(network, X, batch_size=self.batch_size)
        return score_and_route(logits, self.m, self.k, self.strategy)


def build_scoring_spec(model, strategy: str = "ed") -> ScoringSpec:
    """Extract a :class:`ScoringSpec` from a fitted TargAD.

    Calibrates the named OOD strategy eagerly (the parent process holds
    the calibration logits; workers only get the fitted result) and
    deep-copies it so later refits in the parent cannot race the workers.
    Raises whatever ``model._get_strategy`` raises when calibration is
    impossible (e.g. no candidates) — callers treat that as "worker
    executor unavailable", since the single-process path defers that
    failure until an anomalous row actually appears.
    """
    from repro.nn.inference import NotCompilableError, _collect

    model._check_fitted()
    fitted = copy.deepcopy(model._get_strategy(strategy))
    leaves: List = []
    _collect(model.network_, leaves, [], [])
    layers: List[tuple] = []
    for leaf in leaves:
        if isinstance(leaf, Dense):
            bias = None if leaf.bias is None else np.asarray(leaf.bias.data)
            layers.append(("dense", np.asarray(leaf.weight.data), bias))
        elif isinstance(leaf, Activation):
            layers.append(("act", leaf.name))
        else:
            raise NotCompilableError(
                f"module {type(leaf).__name__} cannot be serialized into a "
                "scoring spec"
            )
    return ScoringSpec(
        layers=layers,
        m=model.m_,
        k=model.k_,
        strategy=fitted,
    )

"""The TargAD estimator (Algorithm 1).

Usage::

    model = TargAD(TargADConfig(k=4, random_state=0))
    model.fit(X_unlabeled, X_labeled, y_labeled)
    scores = model.decision_function(X_test)   # Eq. 9, higher = target
    triclass = model.predict_triclass(X_test)  # 0 normal / 1 target / 2 non-target
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.candidate_selection import CandidateSelection, CandidateSelector
from repro.core.config import TargADConfig
from repro.core.losses import classifier_loss
from repro.core.pseudo_labels import (
    normal_pseudo_labels,
    oe_uniform_pseudo_label,
    ood_pseudo_label,
    target_pseudo_labels,
)
from repro.core.scoring import (
    route_from_logits,
    score_and_route,
    softmax,
    target_anomaly_score,
)
from repro.core.weighting import initial_weights, update_weights
from repro.nn.layers import Sequential, mlp
from repro.nn.optimizers import Adam
from repro.nn.train import forward_in_batches
from repro.obs import ensure_telemetry
from repro.ood import OODStrategy, get_strategy


def _pool_slices(sizes: List[int], n_batches: int, rng: np.random.Generator) -> List[List[np.ndarray]]:
    """Shuffle each pool and split it into ``n_batches`` contiguous slices.

    Every batch mixes all pools proportionally, so each gradient step sees
    labeled anomalies, normal candidates, and non-target candidates — the
    per-pool means of Eq. (8) are approximated per batch.
    """
    streams = []
    for size in sizes:
        indices = rng.permutation(size)
        streams.append(np.array_split(indices, n_batches))
    return streams


@dataclass
class WarmStart:
    """Donor artifacts for an incremental refit.

    ``selector`` is a *fitted* :class:`CandidateSelector` whose clustering
    and per-cluster autoencoders are reused as-is (only the α% cut is
    re-applied on the new pool via :meth:`CandidateSelector.select`);
    ``network_state`` initializes the classifier instead of random init.
    Built by :meth:`TargAD.incremental_fit` — construct directly only for
    custom refit schemes.
    """

    selector: CandidateSelector
    network_state: List[np.ndarray]


class TargAD:
    """Target-class anomaly detector (the paper's model).

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.TargADConfig`; keyword overrides may
        be passed directly (``TargAD(alpha=0.1, random_state=3)``).
    telemetry:
        Optional :class:`~repro.obs.TelemetryRegistry`; when set, ``fit``
        records the ``fit.*``/``train.*`` timers, per-epoch loss and
        Eq. 4/5 weight-distribution events, and batch throughput, and the
        candidate-selection stage records its ``select.*`` series into the
        same registry. ``None`` (default) is a shared no-op with
        negligible overhead.
    """

    def __init__(self, config: Optional[TargADConfig] = None, telemetry=None, **overrides):
        if config is None:
            config = TargADConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.telemetry = ensure_telemetry(telemetry)

        self.network_: Optional[Sequential] = None
        self.selector_: Optional[CandidateSelector] = None
        self.selection_: Optional[CandidateSelection] = None
        self.m_: Optional[int] = None
        self.k_: Optional[int] = None
        self.loss_history: List[float] = []
        self.weight_history: List[np.ndarray] = []
        self._candidate_weights: Optional[np.ndarray] = None
        self._strategies: dict = {}
        self._calibration_logits: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        X_unlabeled: np.ndarray,
        X_labeled: np.ndarray,
        y_labeled: np.ndarray,
        epoch_callback: Optional[Callable[[int, "TargAD"], None]] = None,
        *,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        max_rollbacks: int = 3,
        lr_backoff: float = 0.5,
        warm_start: Optional[WarmStart] = None,
    ) -> "TargAD":
        """Train per Algorithm 1, with optional checkpointing and resume.

        Parameters
        ----------
        X_unlabeled:
            ``D_U`` — the unlabeled pool (mostly normal, contaminated).
        X_labeled, y_labeled:
            ``D_L`` — labeled target anomalies with 0-based class labels in
            ``[0, m)``.
        epoch_callback:
            Optional hook called after every classifier epoch (used by the
            convergence experiments, Fig. 3). The finished epoch is already
            checkpointed when the hook runs, so a crash inside it loses
            nothing.
        checkpoint_dir:
            Directory for periodic training checkpoints (see
            :mod:`repro.resilience.checkpoint`). ``None`` disables disk
            checkpoints; the in-memory rollback guard still runs.
        checkpoint_every:
            Epoch interval between checkpoints (both the on-disk files and
            the in-memory rollback snapshot).
        resume:
            Resume from the latest checkpoint in ``checkpoint_dir`` (if one
            exists — otherwise training starts from scratch). Candidate
            selection is skipped and the run continues bit-for-bit where
            it stopped; requires the same data and config.
        max_rollbacks:
            Non-finite-loss guard budget: how many times a diverged epoch
            may be rolled back (with the learning rate multiplied by
            ``lr_backoff``) before ``fit`` raises
            :class:`~repro.resilience.errors.TrainingDivergenceError`.
        lr_backoff:
            Learning-rate multiplier applied on each rollback.
        warm_start:
            Donor artifacts from a previously fitted model (see
            :class:`WarmStart` / :meth:`incremental_fit`). The donor's
            selector is applied to the new pool instead of re-clustering
            and re-training autoencoders, and the classifier starts from
            the donor's weights. A checkpoint restored via ``resume``
            takes precedence over ``warm_start``.
        """
        from repro.resilience.checkpoint import (
            latest_checkpoint,
            load_checkpoint,
            save_checkpoint,
        )
        from repro.resilience.errors import TrainingDivergenceError

        cfg = self.config
        fit_start = time.perf_counter()
        X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
        X_labeled = np.asarray(X_labeled, dtype=np.float64)
        y_labeled = np.asarray(y_labeled, dtype=np.int64)
        if len(X_labeled) == 0:
            raise ValueError("TargAD requires at least one labeled target anomaly")
        if len(X_labeled) != len(y_labeled):
            raise ValueError("X_labeled and y_labeled length mismatch")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if not 0.0 < lr_backoff < 1.0:
            raise ValueError("lr_backoff must be in (0, 1)")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        m = int(y_labeled.max()) + 1
        self.m_ = m

        restored = None
        if resume:
            ckpt_path = latest_checkpoint(checkpoint_dir)
            if ckpt_path is not None:
                restored = load_checkpoint(ckpt_path)
                self._validate_checkpoint(restored, X_unlabeled, X_labeled, m)
                self.telemetry.increment("resilience.checkpoint.resumes")
                self.telemetry.record_event(
                    "resilience.checkpoint.resumed",
                    path=str(ckpt_path),
                    epoch=restored.epoch,
                )

        # --- Lines 1-7: candidate selection ----------------------------
        if restored is None and warm_start is not None:
            # Incremental refit: carry the donor's selection structure
            # over and only re-apply the α% cut on the new pool.
            self.selector_ = warm_start.selector
            selection = self.selector_.select(X_unlabeled)
            self.selection_ = selection
            self.telemetry.increment("fit.warm_starts")
            self.telemetry.observe(
                "fit.candidate_selection", time.perf_counter() - fit_start
            )
        elif restored is None:
            self.selector_ = CandidateSelector(
                k=cfg.k,
                alpha=cfg.alpha,
                eta=cfg.eta,
                ae_hidden=cfg.ae_hidden,
                ae_lr=cfg.ae_lr,
                ae_batch_size=cfg.ae_batch_size,
                ae_epochs=cfg.ae_epochs,
                k_max=cfg.k_max,
                random_state=cfg.random_state,
                telemetry=self.telemetry if self.telemetry.enabled else None,
            )
            selection = self.selector_.fit(X_unlabeled, X_labeled)
            self.selection_ = selection
            self.telemetry.observe(
                "fit.candidate_selection", time.perf_counter() - fit_start
            )
        else:
            # The selection stage is restored verbatim from the checkpoint.
            self.selector_ = restored.selector
            selection = restored.selection
            self.selection_ = selection
        k = selection.k
        self.k_ = k

        candidate_idx = selection.candidate_indices
        normal_idx = selection.normal_indices
        X_candidates = X_unlabeled[candidate_idx]
        X_normal = X_unlabeled[normal_idx]

        # --- Pseudo-labels ---------------------------------------------
        targets_labeled = target_pseudo_labels(y_labeled, m, k)
        normal_clusters = selection.cluster_labels[normal_idx]
        targets_normal = normal_pseudo_labels(normal_clusters, m, k)
        if cfg.oe_label_style == "uniform":
            ood_targets_row = oe_uniform_pseudo_label(m, k)
        else:
            ood_targets_row = ood_pseudo_label(m, k)
        ood_targets = np.tile(ood_targets_row, (len(X_candidates), 1))

        # --- Lines 8-17: classifier training ---------------------------
        rng = np.random.default_rng(
            None if cfg.random_state is None else cfg.random_state + 10_000
        )
        self.network_ = mlp(
            [X_unlabeled.shape[1], *cfg.clf_hidden, m + k], activation="relu", rng=rng
        )
        if cfg.clf_dropout > 0.0:
            # Insert Dropout after each hidden Activation (not the output).
            from repro.nn.layers import Activation
            from repro.nn.regularization import Dropout

            with_dropout = []
            for module in self.network_.modules:
                with_dropout.append(module)
                if isinstance(module, Activation):
                    with_dropout.append(Dropout(cfg.clf_dropout, rng=rng))
            self.network_.modules = with_dropout
        if restored is None and warm_start is not None:
            self.network_.load_state_dict(warm_start.network_state)
        optimizer = Adam(self.network_.parameters(), lr=cfg.clf_lr)

        total = len(X_labeled) + len(X_normal) + len(X_candidates)
        n_batches = max(int(np.ceil(total / cfg.clf_batch_size)), 1)

        self.loss_history = []
        self.weight_history = []
        weights = (
            initial_weights(selection.selection_scores[candidate_idx])
            if cfg.use_weighting
            else np.ones(len(X_candidates))
        )
        self._candidate_weights = weights
        self.weight_history.append(weights.copy())

        lr = cfg.clf_lr
        rollbacks = 0
        start_epoch = 0
        if restored is not None:
            from repro.nn.train import load_optimizer_state

            self.network_.load_state_dict(restored.network_state)
            load_optimizer_state(optimizer, restored.optimizer_state)
            rng.bit_generator.state = copy.deepcopy(restored.rng_state)
            weights = np.asarray(restored.weights, dtype=np.float64)
            self._candidate_weights = weights
            self.loss_history = list(restored.loss_history)
            self.weight_history = [
                np.asarray(w, dtype=np.float64) for w in restored.weight_history
            ]
            start_epoch = restored.epoch
            lr = restored.lr
            rollbacks = restored.rollbacks
            optimizer.lr = lr

        from repro.nn.regularization import set_training

        def checkpoint_args():
            return dict(
                n_unlabeled=len(X_unlabeled), n_labeled=len(X_labeled)
            )

        snapshot = self._take_training_snapshot(
            optimizer, rng, weights, lr, rollbacks, start_epoch
        )
        if checkpoint_dir is not None and restored is None:
            save_checkpoint(
                checkpoint_dir, self, optimizer, rng, epoch=start_epoch,
                lr=lr, rollbacks=rollbacks, **checkpoint_args(),
            )
            self.telemetry.increment("resilience.checkpoint.saves")

        train_start = time.perf_counter()
        epoch = start_epoch
        while epoch < cfg.clf_epochs:
            epoch_start = time.perf_counter()
            diverged = False
            if epoch > 0 and cfg.use_weighting and len(X_candidates):
                set_training(self.network_, False)
                probs = softmax(forward_in_batches(self.network_, X_candidates))
                set_training(self.network_, True)
                new_weights = update_weights(probs)
                if not np.all(np.isfinite(new_weights)):
                    diverged = True  # poisoned network; weights are garbage
                else:
                    weights = new_weights
                    self._candidate_weights = weights
                    self.weight_history.append(weights.copy())

            epoch_loss, batches, rows = 0.0, 0, 0
            if not diverged:
                streams = _pool_slices(
                    [len(X_labeled), len(X_normal), len(X_candidates)], n_batches, rng
                )
                # D_L is tiny (a few hundred rows at most); guarantee every
                # batch sees a handful of labeled anomalies by oversampling,
                # the standard practice for semi-supervised AD (cf. DevNet).
                min_labeled = min(8, len(X_labeled))
                for b in range(n_batches):
                    idx_l = streams[0][b]
                    if len(idx_l) < min_labeled:
                        idx_l = rng.integers(0, len(X_labeled), size=min_labeled)
                    idx_n = streams[1][b]
                    idx_a = streams[2][b]
                    if len(idx_l) == 0 and len(idx_n) == 0:
                        continue  # L_CE / L_RE need at least one supervised row
                    optimizer.zero_grad()
                    loss = classifier_loss(
                        self.network_,
                        X_labeled[idx_l],
                        targets_labeled[idx_l],
                        X_normal[idx_n],
                        targets_normal[idx_n],
                        X_candidates[idx_a],
                        ood_targets[idx_a],
                        weights[idx_a],
                        lambda1=cfg.lambda1,
                        lambda2=cfg.lambda2,
                        use_oe=cfg.use_oe_loss,
                        use_re=cfg.use_re_loss,
                    )
                    loss_value = float(loss.data)
                    if not np.isfinite(loss_value):
                        diverged = True  # never step through a NaN/inf loss
                        break
                    loss.backward()
                    optimizer.step()
                    epoch_loss += loss_value
                    batches += 1
                    rows += len(idx_l) + len(idx_n) + len(idx_a)

            if diverged:
                rollbacks += 1
                self.telemetry.increment("resilience.train.rollbacks")
                self.telemetry.record_event(
                    "resilience.train.rollback",
                    epoch=epoch, lr=lr, rollbacks=rollbacks,
                )
                if rollbacks > max_rollbacks:
                    raise TrainingDivergenceError(
                        f"non-finite training loss at epoch {epoch} persisted "
                        f"through {max_rollbacks} rollback(s) with learning-rate "
                        f"backoff (last lr {lr:.3g}); inspect the training data "
                        "for extreme values or lower clf_lr"
                    )
                lr *= lr_backoff
                weights = self._restore_training_snapshot(snapshot, optimizer, rng, lr)
                epoch = snapshot["epoch"]
                continue

            self.loss_history.append(epoch_loss / max(batches, 1))
            if self.telemetry.enabled:
                self._record_epoch_telemetry(
                    epoch, batches, rows, time.perf_counter() - epoch_start
                )
            epoch += 1
            if epoch % checkpoint_every == 0 or epoch == cfg.clf_epochs:
                snapshot = self._take_training_snapshot(
                    optimizer, rng, weights, lr, rollbacks, epoch
                )
                if checkpoint_dir is not None:
                    save_checkpoint(
                        checkpoint_dir, self, optimizer, rng, epoch=epoch,
                        lr=lr, rollbacks=rollbacks, **checkpoint_args(),
                    )
                    self.telemetry.increment("resilience.checkpoint.saves")
            if epoch_callback is not None:
                epoch_callback(epoch - 1, self)
        self.telemetry.observe("fit.classifier", time.perf_counter() - train_start)

        # Training done: dropout (if any) stays off for all inference.
        set_training(self.network_, False)
        calibration_start = time.perf_counter()

        # Calibration material for the tri-class OOD strategies: labeled
        # target anomalies are ID; for OOD we use only the *high-weight*
        # candidates — the weight mechanism (Eq. 4) concentrates weight on
        # true non-target anomalies, so filtering at the median weight
        # removes most of the target/normal noise from the OOD side.
        id_logits = forward_in_batches(self.network_, X_labeled)
        if len(X_candidates):
            reliable = weights >= np.median(weights) if len(X_candidates) > 1 else np.ones(1, bool)
            ood_logits = forward_in_batches(self.network_, X_candidates[reliable])
        else:
            ood_logits = np.empty((0, m + k))
        self._calibration_logits = (id_logits, ood_logits)
        self._strategies = {}
        self.telemetry.observe("fit.calibration", time.perf_counter() - calibration_start)
        self.telemetry.observe("fit.total", time.perf_counter() - fit_start)
        return self

    def incremental_fit(
        self,
        X_unlabeled: np.ndarray,
        X_labeled: np.ndarray,
        y_labeled: np.ndarray,
        *,
        donor: "TargAD",
        epochs: Optional[int] = None,
        **fit_kwargs,
    ) -> "TargAD":
        """Warm-started refit from a fitted ``donor`` model.

        The continual-learning entry point: reuses the donor's candidate
        selector (k-means partition + per-cluster autoencoders are *not*
        retrained; the α% cut is re-applied to the new pool) and starts
        the classifier from the donor's weights, training for ``epochs``
        classifier epochs (default: this model's configured
        ``clf_epochs``). All other ``fit`` keywords (``checkpoint_dir``,
        ``resume``, rollback knobs, ...) pass through unchanged.

        The donor must have been trained on the same feature width and
        the refit labels must cover the same ``m`` target classes — a
        changed label space invalidates the donor's output head, so that
        case raises ``ValueError`` and callers should retrain from
        scratch.
        """
        from repro.resilience.sanitize import expected_width

        if donor.network_ is None or donor.selector_ is None:
            raise RuntimeError("donor model is not fitted; call fit() first")
        y_labeled = np.asarray(y_labeled, dtype=np.int64)
        if len(y_labeled) == 0:
            raise ValueError("incremental_fit requires at least one labeled target anomaly")
        m = int(y_labeled.max()) + 1
        if m != donor.m_:
            raise ValueError(
                f"refit labels cover {m} target classes but the donor was "
                f"trained with {donor.m_}; a changed label space needs a "
                "from-scratch fit()"
            )
        X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
        width = expected_width(donor)
        if X_unlabeled.ndim != 2 or X_unlabeled.shape[1] != width:
            raise ValueError(
                f"refit pool has width {X_unlabeled.shape[1] if X_unlabeled.ndim == 2 else '?'} "
                f"but the donor expects {width} features"
            )
        if epochs is not None:
            if epochs < 1:
                raise ValueError("epochs must be >= 1")
            self.config = dataclasses.replace(self.config, clf_epochs=int(epochs))
        warm = WarmStart(
            selector=donor.selector_,
            network_state=donor.network_.state_dict(),
        )
        return self.fit(
            X_unlabeled, X_labeled, y_labeled, warm_start=warm, **fit_kwargs
        )

    # ------------------------------------------------------------------
    # Resilience plumbing (checkpoint/resume + non-finite-loss rollback)
    # ------------------------------------------------------------------
    def _take_training_snapshot(
        self, optimizer, rng, weights, lr, rollbacks, epoch
    ) -> dict:
        """In-memory epoch-boundary snapshot for the rollback guard."""
        from repro.nn.train import optimizer_state

        return {
            "epoch": epoch,
            "lr": lr,
            "rollbacks": rollbacks,
            "network": self.network_.state_dict(),
            "optimizer": optimizer_state(optimizer),
            "rng": copy.deepcopy(rng.bit_generator.state),
            "weights": weights.copy(),
            "n_loss": len(self.loss_history),
            "n_weight_history": len(self.weight_history),
        }

    def _restore_training_snapshot(self, snapshot, optimizer, rng, lr) -> np.ndarray:
        """Rewind training to ``snapshot``; returns the restored weights.

        ``lr`` (the backed-off learning rate) overrides the snapshot's —
        retrying at the rate that just diverged would diverge again.
        """
        from repro.nn.train import load_optimizer_state

        self.network_.load_state_dict(snapshot["network"])
        load_optimizer_state(optimizer, snapshot["optimizer"])
        optimizer.lr = lr
        rng.bit_generator.state = copy.deepcopy(snapshot["rng"])
        del self.loss_history[snapshot["n_loss"]:]
        del self.weight_history[snapshot["n_weight_history"]:]
        weights = snapshot["weights"].copy()
        self._candidate_weights = weights
        return weights

    def _validate_checkpoint(self, state, X_unlabeled, X_labeled, m) -> None:
        """A checkpoint must match the workload it is resumed against."""
        from repro.resilience.errors import CheckpointError

        import dataclasses as _dc

        problems = []
        if state.n_unlabeled != len(X_unlabeled):
            problems.append(
                f"unlabeled pool size {len(X_unlabeled)} != checkpoint {state.n_unlabeled}"
            )
        if state.n_features != X_unlabeled.shape[1]:
            problems.append(
                f"feature width {X_unlabeled.shape[1]} != checkpoint {state.n_features}"
            )
        if state.n_labeled != len(X_labeled):
            problems.append(
                f"labeled set size {len(X_labeled)} != checkpoint {state.n_labeled}"
            )
        if state.m != m:
            problems.append(f"target-class count {m} != checkpoint {state.m}")
        current = _dc.asdict(self.config)
        saved = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in state.config.items()
        }
        current = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in current.items()
        }
        differing = sorted(
            key for key in set(current) | set(saved)
            if current.get(key) != saved.get(key)
        )
        if differing:
            problems.append(f"config fields differ: {differing}")
        if problems:
            raise CheckpointError(
                "checkpoint does not match this fit() call — "
                + "; ".join(problems)
            )

    def _record_epoch_telemetry(self, epoch: int, batches: int, rows: int, seconds: float) -> None:
        """One ``train.epoch`` timer sample + structured event per epoch.

        The event carries the Eq. 4/5 weight-distribution summary the
        operator needs to judge whether pseudo-label noise is being
        down-weighted: mean/std and the fraction of candidates sitting
        strictly above the median weight.
        """
        weights = self._candidate_weights
        rows_per_sec = rows / seconds if seconds > 0 else 0.0
        self.telemetry.observe("train.epoch", seconds)
        self.telemetry.increment("train.epochs")
        self.telemetry.increment("train.batches", batches)
        self.telemetry.increment("train.rows", rows)
        self.telemetry.set_gauge("train.rows_per_sec", rows_per_sec)
        fields = {
            "epoch": epoch,
            "loss": self.loss_history[-1],
            "batches": batches,
            "rows": rows,
            "rows_per_sec": rows_per_sec,
        }
        if weights is not None and len(weights):
            median = float(np.median(weights))
            fields.update(
                weight_mean=float(weights.mean()),
                weight_std=float(weights.std()),
                weight_frac_above_median=float((weights > median).mean()),
            )
        self.telemetry.record_event("train.epoch", **fields)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.network_ is None:
            raise RuntimeError("TargAD is not fitted; call fit() first")

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Raw classifier outputs, shape ``(n, m + k)``."""
        self._check_fitted()
        return forward_in_batches(self.network_, np.asarray(X, dtype=np.float64))

    def predict_proba_full(self, X: np.ndarray) -> np.ndarray:
        """Full ``(m + k)``-way softmax distribution per instance."""
        return softmax(self.logits(X))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Eq. (9): target-anomaly score; higher = more likely target."""
        return target_anomaly_score(self.predict_proba_full(X), self.m_)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction: 1 = target anomaly, 0 = not."""
        return (self.decision_function(X) >= threshold).astype(np.int64)

    def _get_strategy(self, name: str) -> OODStrategy:
        self._check_fitted()
        key = name.lower()
        if key not in self._strategies:
            # ED judges the peakedness of the target-dim block only. With a
            # single target class that statistic is identically zero, so ED
            # widens to the target block plus one (the full discrepancy
            # between the target logit and the rest still matters there).
            if key == "ed":
                kwargs = {"n_dims": self.m_ if self.m_ > 1 else None}
            else:
                kwargs = {}
            strategy = get_strategy(key, **kwargs)
            id_logits, ood_logits = self._calibration_logits
            if len(ood_logits) == 0:
                raise RuntimeError("no candidates were selected; tri-class prediction unavailable")
            strategy.fit_threshold(id_logits, ood_logits)
            self._strategies[key] = strategy
        return self._strategies[key]

    def _route_from_logits(
        self, logits: np.ndarray, probs: np.ndarray, strategy: str
    ) -> np.ndarray:
        """Tri-class routing (Section III-C) from precomputed logits/probs.

        Delegates to :func:`repro.core.scoring.route_from_logits`, passing
        the strategy lazily so calibration only happens when some row is
        actually anomalous (the calibration set may be empty otherwise).
        """
        return route_from_logits(
            logits, probs, self.m_, self.k_, lambda: self._get_strategy(strategy)
        )

    def predict_triclass(self, X: np.ndarray, strategy: str = "ed") -> np.ndarray:
        """Section III-C: classify into normal / target / non-target.

        First applies the normality rule (normal-mass > k/(m+k)); instances
        on the anomalous side are split by the chosen OOD strategy ("msp",
        "es", or "ed"): OOD = non-target anomaly, ID = target anomaly.

        Returns the kind codes of :mod:`repro.data.schema` (0/1/2).
        """
        logits = self.logits(X)
        return self._route_from_logits(logits, softmax(logits), strategy)

    def score_batch(
        self, X: np.ndarray, strategy: str = "ed"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serving fast path: Eq. 9 scores and tri-class routing together.

        Runs the classifier **once** over ``X`` (on the compiled
        graph-free inference path) and derives both the
        :meth:`decision_function` scores and the
        :meth:`predict_triclass` routing from the same logits — exactly
        half the forward work of calling the two methods separately,
        with identical results.
        """
        return score_and_route(
            self.logits(X), self.m_, self.k_, lambda: self._get_strategy(strategy)
        )

    def predict_target_class(self, X: np.ndarray) -> np.ndarray:
        """Most probable target-anomaly class (argmax over the first m dims)."""
        probs = self.predict_proba_full(X)
        return probs[:, : self.m_].argmax(axis=1)

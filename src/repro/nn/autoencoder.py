"""Autoencoders, including the SAD-regularized variant of TargAD's Eq. (1).

The plain :class:`Autoencoder` is a symmetric bottleneck MLP trained on the
reconstruction MSE. :class:`SADAutoencoder` adds the paper's semi-supervised
term: labeled target anomalies are penalized by the *inverse* of their
reconstruction error so they reconstruct badly, sharpening the separation
between normal instances (low error) and anomalies (high error).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Sequential, mlp
from repro.nn.losses import reconstruction_errors
from repro.nn.optimizers import Adam
from repro.nn.train import forward_in_batches, iterate_minibatches

_EPS = 1e-6


class Autoencoder:
    """Symmetric bottleneck autoencoder.

    ``hidden_sizes`` describes the encoder half; the decoder mirrors it. For
    example ``hidden_sizes=(64, 16)`` on 100-dim input builds
    ``100 -> 64 -> 16 -> 64 -> 100``.
    """

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (64, 16),
        activation: str = "relu",
        lr: float = 1e-4,
        batch_size: int = 256,
        epochs: int = 30,
        random_state: Optional[int] = None,
    ):
        if not hidden_sizes:
            raise ValueError("hidden_sizes must be non-empty")
        self.hidden_sizes = list(hidden_sizes)
        self.activation = activation
        self.lr = lr
        self.batch_size = batch_size
        self.epochs = epochs
        self.random_state = random_state
        self.encoder: Optional[Sequential] = None
        self.decoder: Optional[Sequential] = None
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    def _build(self, n_features: int, rng: np.random.Generator) -> None:
        encoder_sizes = [n_features, *self.hidden_sizes]
        decoder_sizes = [*reversed(self.hidden_sizes), n_features]
        self.encoder = mlp(encoder_sizes, activation=self.activation,
                           output_activation=self.activation, rng=rng)
        self.decoder = mlp(decoder_sizes, activation=self.activation, rng=rng)

    def parameters(self):
        return self.encoder.parameters() + self.decoder.parameters()

    def _check_fitted(self) -> None:
        if self.encoder is None:
            raise RuntimeError("autoencoder is not fitted; call fit() first")

    def _reconstruct_tensor(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x))

    def _reconstructor(self) -> Sequential:
        """Encoder and decoder as one chain for the compiled read path."""
        return Sequential(self.encoder, self.decoder)

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "Autoencoder":
        """Train on unlabeled data with plain reconstruction MSE."""
        X = np.asarray(X, dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        self._build(X.shape[1], rng)
        optimizer = Adam(self.parameters(), lr=self.lr)
        self.loss_history = []
        for _ in range(self.epochs):
            epoch_loss, batches = 0.0, 0
            for idx in iterate_minibatches(len(X), self.batch_size, rng=rng):
                optimizer.zero_grad()
                batch = Tensor(X[idx])
                recon = self._reconstruct_tensor(batch)
                loss = reconstruction_errors(recon, batch).mean()
                loss.backward()
                optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            self.loss_history.append(epoch_loss / max(batches, 1))
        return self

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Latent representations."""
        self._check_fitted()
        return forward_in_batches(self.encoder, np.asarray(X, dtype=np.float64))

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Decoded reconstructions.

        Runs encoder and decoder as one compiled plan — one sweep over
        the data with no intermediate latent round-trip.
        """
        self._check_fitted()
        return forward_in_batches(self._reconstructor(), np.asarray(X, dtype=np.float64))

    def reconstruction_error(self, X: np.ndarray) -> np.ndarray:
        """Per-row squared L2 reconstruction error — Eq. (2), ``S^Rec``."""
        X = np.asarray(X, dtype=np.float64)
        recon = self.reconstruct(X)
        return ((X - recon) ** 2).sum(axis=1)


class SADAutoencoder(Autoencoder):
    """Autoencoder trained with the paper's Eq. (1) loss.

    ``L = mean_{x in D_U} ||x - x̂||² + (η / |D_L|) * Σ_{x in D_L} ||x - x̂||^{-2}``

    The second term penalizes *good* reconstruction of labeled target
    anomalies; minimizing the inverse error pushes their error up, so the
    bottleneck encodes only the normal manifold.
    """

    def __init__(self, eta: float = 1.0, **kwargs):
        super().__init__(**kwargs)
        if eta < 0:
            raise ValueError("eta must be non-negative")
        self.eta = eta

    def fit(self, X_unlabeled: np.ndarray, X_labeled: Optional[np.ndarray] = None) -> "SADAutoencoder":
        """Train per Eq. (1).

        Parameters
        ----------
        X_unlabeled:
            The cluster's unlabeled instances (``D_{U_i}``).
        X_labeled:
            The labeled target anomalies (``D_L``). With ``None`` or
            ``eta == 0`` this degrades to a plain autoencoder.
        """
        X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
        use_sad = X_labeled is not None and len(X_labeled) > 0 and self.eta > 0
        if use_sad:
            X_labeled = np.asarray(X_labeled, dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        self._build(X_unlabeled.shape[1], rng)
        optimizer = Adam(self.parameters(), lr=self.lr)
        self.loss_history = []
        for _ in range(self.epochs):
            epoch_loss, batches = 0.0, 0
            for idx in iterate_minibatches(len(X_unlabeled), self.batch_size, rng=rng):
                optimizer.zero_grad()
                batch = Tensor(X_unlabeled[idx])
                recon = self._reconstruct_tensor(batch)
                loss = reconstruction_errors(recon, batch).mean()
                if use_sad:
                    labeled = Tensor(X_labeled)
                    labeled_recon = self._reconstruct_tensor(labeled)
                    labeled_errors = reconstruction_errors(labeled_recon, labeled)
                    # Inverse-error penalty; _EPS guards the pole at zero.
                    inverse = (labeled_errors + _EPS) ** -1.0
                    loss = loss + self.eta * inverse.mean()
                loss.backward()
                optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            self.loss_history.append(epoch_loss / max(batches, 1))
        return self

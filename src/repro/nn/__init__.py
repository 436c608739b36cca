"""Neural-network building blocks on top of :mod:`repro.autodiff`.

Provides the pieces the paper's models are assembled from: dense layers,
activation layers, sequential containers, initializers, optimizers (Adam —
the paper's choice — plus SGD and RMSprop), loss functions, a generic
mini-batch training loop, an MLP classifier, and autoencoders including the
DeepSAD-regularized variant used by TargAD's candidate-selection stage
(Eq. 1 of the paper).
"""

from repro.nn.autoencoder import Autoencoder, SADAutoencoder
from repro.nn.inference import (
    CompiledInference,
    NotCompilableError,
    cached_inference,
    clear_plan_cache,
    evict_plan,
    compile_inference,
    force_graph_forward,
    plan_cache_stats,
    reset_plan_cache_stats,
)
from repro.nn.initializers import he_normal, xavier_uniform, zeros
from repro.nn.layers import Activation, Dense, Module, Sequential
from repro.nn.losses import (
    binary_cross_entropy,
    mse_loss,
    soft_cross_entropy,
    softmax_cross_entropy,
)
from repro.nn.mlp import MLPClassifier
from repro.nn.optimizers import SGD, Adam, Optimizer, RMSprop
from repro.nn.regularization import (
    CosineLR,
    Dropout,
    EarlyStopping,
    StepLR,
    set_training,
)
from repro.nn.train import forward_in_batches, iterate_minibatches, train_epoch

__all__ = [
    "Activation",
    "Adam",
    "Autoencoder",
    "CompiledInference",
    "CosineLR",
    "Dense",
    "Dropout",
    "EarlyStopping",
    "MLPClassifier",
    "Module",
    "NotCompilableError",
    "Optimizer",
    "RMSprop",
    "SADAutoencoder",
    "SGD",
    "Sequential",
    "StepLR",
    "binary_cross_entropy",
    "cached_inference",
    "clear_plan_cache",
    "evict_plan",
    "compile_inference",
    "force_graph_forward",
    "forward_in_batches",
    "he_normal",
    "plan_cache_stats",
    "reset_plan_cache_stats",
    "iterate_minibatches",
    "mse_loss",
    "set_training",
    "soft_cross_entropy",
    "softmax_cross_entropy",
    "train_epoch",
    "xavier_uniform",
    "zeros",
]

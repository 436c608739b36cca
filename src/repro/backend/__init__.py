"""The explicit dtype policy.

The autodiff engine and the compiled inference plans call numpy
directly; this package holds the dtype policy they share
(:mod:`repro.backend.policy`): training/grad checks are pinned to
``float64``, inference may opt into ``float32``
(:func:`inference_precision`, or the ``dtype=`` argument on the
compiled-inference entry points in :mod:`repro.nn`).
"""

from types import SimpleNamespace

from repro.backend.policy import (
    TRAINING_DTYPE,
    inference_dtype,
    inference_precision,
    resolve_dtype,
    set_inference_dtype,
    training_dtype,
)


def active_backend():
    """Name the array library (always numpy) for ``perfbench/run.py``.

    That script records it in each run's environment block and is its
    only caller; nothing in the package uses it.
    """
    return SimpleNamespace(name="numpy")


__all__ = [
    "TRAINING_DTYPE",
    "inference_dtype",
    "inference_precision",
    "resolve_dtype",
    "set_inference_dtype",
    "training_dtype",
]

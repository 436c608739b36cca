"""The dtype policy: float64 training, opt-in per-thread float32 inference."""

import threading

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.backend import (
    TRAINING_DTYPE,
    inference_dtype,
    inference_precision,
    resolve_dtype,
    set_inference_dtype,
    training_dtype,
)


class TestDtypePolicy:
    def test_training_dtype_is_float64(self):
        assert TRAINING_DTYPE == np.dtype(np.float64)
        assert training_dtype() == np.dtype(np.float64)

    def test_default_inference_dtype_is_float64(self):
        assert inference_dtype() == np.dtype(np.float64)
        assert resolve_dtype(None) == np.dtype(np.float64)

    def test_resolve_dtype_whitelist(self):
        assert resolve_dtype(np.float32) == np.dtype(np.float32)
        assert resolve_dtype("float64") == np.dtype(np.float64)
        for bad in (np.float16, np.int32, "complex128"):
            with pytest.raises(ValueError, match="inference precision"):
                resolve_dtype(bad)

    def test_inference_precision_scopes_and_restores(self):
        assert inference_dtype() == np.dtype(np.float64)
        with inference_precision(np.float32):
            assert inference_dtype() == np.dtype(np.float32)
            assert resolve_dtype(None) == np.dtype(np.float32)
        assert inference_dtype() == np.dtype(np.float64)

    def test_set_inference_dtype_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            set_inference_dtype(np.int64)

    def test_inference_precision_is_thread_local(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def other_thread():
            seen["before"] = inference_dtype()
            entered.set()
            release.wait(timeout=5)
            seen["after"] = inference_dtype()

        with inference_precision(np.float32):
            t = threading.Thread(target=other_thread)
            t.start()
            assert entered.wait(timeout=5)
            # This thread is float32; the other thread must still see the
            # policy default.
            assert inference_dtype() == np.dtype(np.float32)
            release.set()
            t.join(timeout=5)
        assert seen["before"] == np.dtype(np.float64)
        assert seen["after"] == np.dtype(np.float64)

    def test_asarray_honours_training_dtype_default(self):
        assert Tensor([[1, 2], [3, 4]]).data.dtype == TRAINING_DTYPE
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == TRAINING_DTYPE


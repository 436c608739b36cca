"""A reverse-mode automatic differentiation tensor over numpy arrays.

The engine builds a dynamic computation graph as operations execute; calling
:meth:`Tensor.backward` on a scalar output propagates gradients to every
tensor created with ``requires_grad=True``.

Design notes
------------
- All data is stored in the training dtype of the :mod:`repro.backend`
  dtype policy (``float64``). The models in this repository are small (tabular
  MLPs/autoencoders), so we favour numerical robustness and exact gradient
  checks over memory footprint. Inference that wants ``float32`` should use
  the graph-free compiled path (:func:`repro.nn.inference.compile_inference`)
  rather than this engine.
- Broadcasting follows numpy semantics; gradients are "unbroadcast" (summed
  over broadcast axes) on the way back.
- Graph recording can be suspended with the :func:`no_grad` context manager,
  which is used during inference to avoid retaining activations. The flag is
  **thread-local**, so one serving thread entering/leaving ``no_grad`` can
  never re-enable graph recording under a concurrent trainer (or vice
  versa).
- Backward rules are module-level functions bound into tiny
  :class:`_Backward` records (``__slots__`` objects) instead of per-op
  closures, cutting allocation overhead on the training path.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.policy import TRAINING_DTYPE

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Per-thread graph-recording flag; reads fall back to the class default."""

    enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops executed by the *current thread* record the graph."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction within its scope.

    The suspension is thread-local: concurrent threads each carry their
    own flag, so an inference thread inside ``no_grad`` cannot observe —
    or clobber — a training thread's recording state.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=TRAINING_DTYPE)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-guarded logistic ``1 / (1 + exp(-x))``."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that broadcasting introduced.

    ``grad`` has the shape of the broadcast result; the returned array has
    the original ``shape`` of the operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Backward:
    """A recorded backward rule plus the saved state it needs.

    One ``__slots__`` record per op replaces the per-op Python closure
    (a function object plus one cell per free variable), cutting
    allocation overhead on the training path; the rules themselves are
    shared module-level functions invoked as ``rule(grad, *state)``.
    """

    __slots__ = ("rule", "state")

    def __init__(self, rule: Callable, state: tuple):
        self.rule = rule
        self.state = state

    def __call__(self, grad: np.ndarray) -> None:
        self.rule(grad, *self.state)


class Tensor:
    """An n-dimensional array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like payload; converted to a numpy array of the policy's
        training dtype (``float64``).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[_Backward] = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        rule: Callable,
        state: tuple,
    ) -> "Tensor":
        """Create a graph node from an op result.

        ``rule(grad, *state)`` receives the upstream gradient and is
        responsible for calling :meth:`_accumulate` on each parent that
        requires a gradient. The :class:`_Backward` record is only
        allocated when the graph is actually being recorded.
        """
        parents = tuple(parents)
        out = Tensor(data)
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = _Backward(rule, state)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(_as_array(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient. Defaults to 1.0, which requires this tensor
            to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Topological order over the reachable graph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data + other.data, (self, other), _add_backward, (self, other)
        )

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data - other.data, (self, other), _sub_backward, (self, other)
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data * other.data, (self, other), _mul_backward, (self, other)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            self.data / other.data, (self, other), _div_backward, (self, other)
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), _neg_backward, (self,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)
        return Tensor._make(
            np.power(self.data, exponent), (self,), _pow_backward, (self, exponent)
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(
            np.matmul(self.data, other.data), (self, other), _matmul_backward, (self, other)
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            _sum_backward,
            (self, axis, keepdims),
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims),
            (self,),
            _mean_backward,
            (self, axis, keepdims, count),
        )

    def _extremum(self, axis, keepdims: bool, reducer) -> "Tensor":
        out_data = reducer(self.data, axis=axis, keepdims=keepdims)
        return Tensor._make(
            out_data, (self,), _extremum_backward, (self, axis, keepdims, out_data)
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, np.max)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, np.min)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mean = self.mean(axis=axis, keepdims=True)
        sq = (self - mean) ** 2.0
        return sq.mean(axis=axis, keepdims=keepdims)

    def std(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """Population standard deviation with an epsilon guard at zero."""
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise select; ``condition`` is a non-differentiable mask."""
        condition = np.asarray(condition, dtype=bool)
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        return Tensor._make(
            np.where(condition, a.data, b.data),
            (a, b),
            _where_backward,
            (condition, a, b),
        )

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise max of two tensors (ties split half/half)."""
        other = self._coerce(other)
        a_wins = self.data > other.data
        tie = self.data == other.data
        return Tensor._make(
            np.maximum(self.data, other.data),
            (self, other),
            _pairwise_extremum_backward,
            (self, other, a_wins, tie),
        )

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise min of two tensors (ties split half/half)."""
        other = self._coerce(other)
        a_wins = self.data < other.data
        tie = self.data == other.data
        return Tensor._make(
            np.minimum(self.data, other.data),
            (self, other),
            _pairwise_extremum_backward,
            (self, other, a_wins, tie),
        )

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), _exp_backward, (self, out_data))

    def log(self) -> "Tensor":
        return Tensor._make(np.log(self.data), (self,), _log_backward, (self,))

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, (self,), _sqrt_backward, (self, out_data))

    def abs(self) -> "Tensor":
        return Tensor._make(np.abs(self.data), (self,), _abs_backward, (self,))

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, (self,), _tanh_backward, (self, out_data))

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid(self.data)
        return Tensor._make(out_data, (self,), _sigmoid_backward, (self, out_data))

    def relu(self) -> "Tensor":
        mask = np.asarray(self.data > 0).astype(TRAINING_DTYPE)
        return Tensor._make(self.data * mask, (self,), _masked_backward, (self, mask))

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        factor = np.where(self.data > 0, 1.0, slope)
        return Tensor._make(
            self.data * factor, (self,), _masked_backward, (self, factor)
        )

    def softplus(self) -> "Tensor":
        # log(1 + exp(x)), numerically stabilized; d/dx = sigmoid(x).
        out_data = np.logaddexp(0.0, self.data)
        sig = _sigmoid(self.data)
        return Tensor._make(out_data, (self,), _masked_backward, (self, sig))

    def clip(self, low: float, high: float) -> "Tensor":
        inside = (self.data >= low) & (self.data <= high)
        mask = np.asarray(inside).astype(TRAINING_DTYPE)
        return Tensor._make(
            np.clip(self.data, low, high), (self,), _masked_backward, (self, mask)
        )

    # ------------------------------------------------------------------
    # Softmax family (fused for numerical stability)
    # ------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - np.max(self.data, axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_norm
        softmax = np.exp(out_data)
        return Tensor._make(
            out_data, (self,), _log_softmax_backward, (self, softmax, axis)
        )

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - np.max(self.data, axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)
        return Tensor._make(
            out_data, (self,), _softmax_backward, (self, out_data, axis)
        )

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        shifted = self.data - np.max(self.data, axis=axis, keepdims=True)
        sums = np.exp(shifted).sum(axis=axis, keepdims=True)
        out_keep = np.max(self.data, axis=axis, keepdims=True) + np.log(sums)
        softmax = np.exp(self.data - out_keep)
        out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
        return Tensor._make(
            out_data, (self,), _logsumexp_backward, (self, softmax, axis, keepdims)
        )

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(
            self.data.reshape(shape), (self,), _reshape_backward, (self,)
        )

    @property
    def T(self) -> "Tensor":
        return Tensor._make(self.data.T, (self,), _transpose_backward, (self,))

    def __getitem__(self, index) -> "Tensor":
        return Tensor._make(
            self.data[index], (self,), _getitem_backward, (self, index)
        )

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        offsets = [0]
        for t in tensors:
            offsets.append(offsets[-1] + t.data.shape[axis])
        data = np.concatenate([t.data for t in tensors], axis=axis)
        return Tensor._make(
            data, tensors, _concatenate_backward, (tuple(tensors), tuple(offsets), axis)
        )

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        return Tensor._make(data, tensors, _stack_backward, (tuple(tensors), axis))


# ----------------------------------------------------------------------
# Backward rules (module-level; bound into _Backward records by the ops)
# ----------------------------------------------------------------------
def _add_backward(grad, a, b):
    if a.requires_grad:
        a._accumulate(grad)
    if b.requires_grad:
        b._accumulate(grad)


def _sub_backward(grad, a, b):
    if a.requires_grad:
        a._accumulate(grad)
    if b.requires_grad:
        b._accumulate(-grad)


def _mul_backward(grad, a, b):
    if a.requires_grad:
        a._accumulate(grad * b.data)
    if b.requires_grad:
        b._accumulate(grad * a.data)


def _div_backward(grad, a, b):
    if a.requires_grad:
        a._accumulate(grad / b.data)
    if b.requires_grad:
        b._accumulate(-grad * a.data / (b.data**2))


def _neg_backward(grad, a):
    if a.requires_grad:
        a._accumulate(-grad)


def _pow_backward(grad, a, exponent):
    if a.requires_grad:
        a._accumulate(grad * exponent * np.power(a.data, exponent - 1.0))


def _matmul_backward(grad, a, b):
    if a.requires_grad:
        if b.data.ndim == 1:
            a._accumulate(
                np.outer(grad, b.data) if grad.ndim == 1 else grad[..., None] * b.data
            )
        else:
            a._accumulate(np.matmul(grad, b.data.swapaxes(-1, -2)))
    if b.requires_grad:
        if a.data.ndim == 1:
            b._accumulate(np.outer(a.data, grad))
        else:
            b._accumulate(np.matmul(a.data.swapaxes(-1, -2), grad))


def _sum_backward(grad, a, axis, keepdims):
    if not a.requires_grad:
        return
    g = grad
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    a._accumulate(np.broadcast_to(g, a.data.shape))


def _mean_backward(grad, a, axis, keepdims, count):
    if not a.requires_grad:
        return
    g = grad
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
    a._accumulate(np.broadcast_to(g, a.data.shape) / count)


def _extremum_backward(grad, a, axis, keepdims, out_data):
    if not a.requires_grad:
        return
    g = grad
    out = out_data
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis=axis)
        out = np.expand_dims(out, axis=axis)
    mask = np.asarray(a.data == out).astype(TRAINING_DTYPE)
    # Split gradient equally among ties to keep the operator linear.
    mask /= np.maximum(
        mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0
    )
    a._accumulate(np.broadcast_to(g, a.data.shape) * mask)


def _where_backward(grad, condition, a, b):
    if a.requires_grad:
        a._accumulate(grad * condition)
    if b.requires_grad:
        b._accumulate(grad * ~condition)


def _pairwise_extremum_backward(grad, a, b, a_wins, tie):
    if a.requires_grad:
        a._accumulate(grad * (a_wins + 0.5 * tie))
    if b.requires_grad:
        b._accumulate(grad * (~a_wins & ~tie) + grad * 0.5 * tie)


def _exp_backward(grad, a, out_data):
    if a.requires_grad:
        a._accumulate(grad * out_data)


def _log_backward(grad, a):
    if a.requires_grad:
        a._accumulate(grad / a.data)


def _sqrt_backward(grad, a, out_data):
    if a.requires_grad:
        a._accumulate(grad * 0.5 / out_data)


def _abs_backward(grad, a):
    if a.requires_grad:
        a._accumulate(grad * np.sign(a.data))


def _tanh_backward(grad, a, out_data):
    if a.requires_grad:
        a._accumulate(grad * (1.0 - out_data**2))


def _sigmoid_backward(grad, a, out_data):
    if a.requires_grad:
        a._accumulate(grad * out_data * (1.0 - out_data))


def _masked_backward(grad, a, factor):
    """Shared rule for ops whose derivative is a precomputed factor
    (relu/leaky-relu masks, clip's pass-through mask, softplus' sigmoid)."""
    if a.requires_grad:
        a._accumulate(grad * factor)


def _log_softmax_backward(grad, a, softmax, axis):
    if a.requires_grad:
        a._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))


def _softmax_backward(grad, a, out_data, axis):
    if a.requires_grad:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (grad - inner))


def _logsumexp_backward(grad, a, softmax, axis, keepdims):
    if not a.requires_grad:
        return
    g = grad if keepdims else np.expand_dims(grad, axis=axis)
    a._accumulate(g * softmax)


def _reshape_backward(grad, a):
    if a.requires_grad:
        a._accumulate(grad.reshape(a.data.shape))


def _transpose_backward(grad, a):
    if a.requires_grad:
        a._accumulate(grad.T)


def _getitem_backward(grad, a, index):
    if a.requires_grad:
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        a._accumulate(full)


def _concatenate_backward(grad, tensors, offsets, axis):
    for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        if tensor.requires_grad:
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])


def _stack_backward(grad, tensors, axis):
    for i, tensor in enumerate(tensors):
        if tensor.requires_grad:
            tensor._accumulate(np.take(grad, i, axis=axis))

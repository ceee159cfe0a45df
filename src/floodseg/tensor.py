"""Dense tensors with a recorded operation graph and reverse-mode gradients.

Tensors wrap contiguous numpy arrays (float32 for training runs, float64 for
gradient checking) and every primitive whose inputs require gradients appends
a backward closure to the implicit tape, the operation graph hanging off its
output. A closure returns one gradient per parent (see ``record_op``);
``Tensor.backward`` walks the graph once in reverse topological order and is
the only code that adds them to ``.grad``, dropping each node once its
closure has run, so only leaves keep one. Running backward a second time
over the same recording is an error.

Numerical safety: ``log`` clamps its argument and ``div`` clamps its
denominator to at least 1e-12, so saturated probabilities stay finite.
``sigmoid`` and ``softmax`` use the usual overflow-free formulations.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
CLAMP_MIN = 1e-12

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes do not conform to a primitive's contract."""


class TapeError(RuntimeError):
    """The operation graph was reused after backward already consumed it."""


class GradCheckFailure(AssertionError):
    """grad_check exceeded the caller-supplied tolerance."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward evaluation only)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_released")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and not isinstance(data, np.ndarray):
            dtype = DEFAULT_DTYPE      # only ndarrays carry an intended width
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward_fn = None
        self._released = False

    # ---- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def T(self):
        return transpose(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has {self.data.size} elements, expected 1")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, "
                f"requires_grad={self.requires_grad})")

    # ---- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, like=self), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, like=self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return _slice(self, index)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    # ---- backward ------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable ``.grad``.

        ``self`` must hold a single element. A closure's gradient for a parent
        with ``requires_grad`` on is summed to the parent's shape and added to
        its ``.grad``. Each recorded node is released, and can be freed, once
        its closure has run, so only leaves keep ``.grad`` and each forward
        pass supports exactly one backward pass.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            fn = node._backward_fn
            if fn is not None:
                if node.grad is not None:
                    for parent, g in zip(node._parents, fn(node.grad)):
                        if g is not None and parent.requires_grad:
                            g = _unbroadcast(g, parent.data.shape)
                            parent.grad = g if parent.grad is None else parent.grad + g
                node.grad = None
                node._released = True
                node._backward_fn = None
                node._parents = ()


def _toposort(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        if node._released:
            raise TapeError("backward: graph already consumed by a previous backward pass; "
                            "re-run the forward computation first")
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def record_op(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable):
    """Wrap ``data`` as the output of a primitive.

    When recording is enabled and any parent requires a gradient, the node
    keeps ``backward_fn`` on the tape. It maps the output gradient to one
    entry per parent, in order: that parent's gradient, which may have the
    broadcast shape of the output, or ``None`` to skip it. ``Tensor.backward``
    drops gradients of parents without ``requires_grad``, so a closure tests
    it only to skip real work.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out._released = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---- elementwise arithmetic --------------------------------------------


def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from exc
    return record_op(out, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from exc
    return record_op(out, (a, b), lambda g: (g, -g if b.requires_grad else None))


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return record_op(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from exc
    return record_op(out, (a, b), lambda g: (g * b.data if a.requires_grad else None,
                                             g * a.data if b.requires_grad else None))


def div(a, b) -> Tensor:
    """Elementwise quotient; the denominator is clamped to >= 1e-12."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    den = np.maximum(b.data, CLAMP_MIN)
    try:
        out = a.data / den
    except ValueError as exc:
        raise ShapeError(f"div: shapes {a.data.shape} and {b.data.shape} do not broadcast") from exc
    active = b.data > CLAMP_MIN
    return record_op(out, (a, b), lambda g: (
        g / den if a.requires_grad else None,
        -g * a.data / (den * den) * active if b.requires_grad else None))


# ---- linear algebra and structure ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    return record_op(out, (a, b), lambda g: (g @ b.data.T if a.requires_grad else None,
                                             a.data.T @ g if b.requires_grad else None))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: shapes {[t.data.shape for t in tensors]} do not align "
                         f"on axis {axis}") from exc
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % out.ndim)

    def backward(g):
        return [g[lead + (slice(start, stop),)] for start, stop in zip(offsets[:-1], offsets[1:])]

    return record_op(out, tuple(tensors), backward)


def _slice(t: Tensor, index) -> Tensor:
    out = np.array(t.data[index], copy=True)

    def backward(g):
        dz = np.zeros_like(t.data)
        np.add.at(dz, index, g)
        return (dz,)

    return record_op(out, (t,), backward)


def reshape(t: Tensor, shape) -> Tensor:
    t = _as_tensor(t)
    try:
        out = t.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view shape {t.data.shape} as {tuple(shape)}") from exc
    return record_op(out, (t,), lambda g: (g.reshape(t.data.shape),))


def transpose(t: Tensor, axes=None) -> Tensor:
    t = _as_tensor(t)
    if axes is None:
        axes = tuple(range(t.data.ndim))[::-1]
    axes = tuple(axes)
    if sorted(axes) != list(range(t.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} are not a permutation for shape {t.data.shape}")
    out = np.ascontiguousarray(t.data.transpose(axes))
    inverse = tuple(np.argsort(axes))
    return record_op(out, (t,), lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


# ---- reductions ----------------------------------------------------------


def _expand_reduced(g: np.ndarray, axis, keepdims: bool, shape) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    out = t.data.sum(axis=axis, keepdims=keepdims)
    return record_op(out, (t,), lambda g: (_expand_reduced(g, axis, keepdims, t.data.shape),))


def tmean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    out = t.data.mean(axis=axis, keepdims=keepdims)
    count = t.data.size // max(out.size, 1)          # elements behind each mean
    return record_op(out, (t,),
                     lambda g: (_expand_reduced(g, axis, keepdims, t.data.shape) / count,))


# ---- nonlinearities -------------------------------------------------------


def exp(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = np.exp(t.data)
    return record_op(out, (t,), lambda g: (g * out,))


def log(t: Tensor) -> Tensor:
    """Natural log of the input clamped to >= 1e-12."""
    t = _as_tensor(t)
    clamped = np.maximum(t.data, CLAMP_MIN)
    out = np.log(clamped)
    active = t.data > CLAMP_MIN
    return record_op(out, (t,), lambda g: (g * active / clamped,))


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    x = t.data
    e = np.exp(np.minimum(x, -x))      # -|x|, but a NaN keeps its sign bit
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return record_op(out, (t,), lambda g: (g * out * (1.0 - out),))


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = np.maximum(t.data, 0)
    return record_op(out, (t,), lambda g: (g * (t.data > 0),))


def leaky_relu(t: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x: the larger of the two when slope <= 1,
    the smaller when slope > 1."""
    t = _as_tensor(t)
    out = (np.maximum if slope <= 1 else np.minimum)(t.data, t.data * slope)

    def backward(g):
        m = t.data > 0
        return (g * (m + ~m * t.data.dtype.type(slope)),)

    return record_op(out, (t,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return record_op(out, (t,), backward)


# ---- gradient checking ----------------------------------------------------


def grad_check(fn, inputs, step: float = 1e-6, tolerance: float | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn(*inputs)`` must return a scalar Tensor and be re-runnable (it is
    evaluated twice per input coordinate). Inputs must be float64 tensors;
    they are marked ``requires_grad``, perturbed in place, and restored.
    The relative error at each coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``. When
    ``tolerance`` is given, a GradCheckFailure is raised if it is exceeded.
    """
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError("grad_check: inputs must be Tensors")
        if t.data.dtype != np.float64:
            raise ValueError("grad_check: inputs must be float64")
        t.requires_grad = True
        t.grad = None

    out = fn(*inputs)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("grad_check: fn must return a scalar Tensor")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else np.array(t.grad, dtype=np.float64)
                for t in inputs]

    worst = 0.0
    with no_grad():
        for t, ana in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            aflat = ana.reshape(-1)
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + step
                f_plus = float(fn(*inputs).data.reshape(()))
                flat[k] = original - step
                f_minus = float(fn(*inputs).data.reshape(()))
                flat[k] = original
                numeric = (f_plus - f_minus) / (2.0 * step)
                a = float(aflat[k])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if rel > worst:
                    worst = rel
    if tolerance is not None and worst > tolerance:
        raise GradCheckFailure(
            f"gradient check failed: max relative error {worst:.3e} > tolerance {tolerance:.1e}")
    return worst

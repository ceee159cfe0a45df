"""Dense tensors with a recorded operation graph and reverse-mode gradients.

Tensors wrap contiguous numpy arrays (float32 for training runs, float64 for
gradient checking). Every primitive whose inputs require gradients records a
tape node for its output: a small object apart from the Tensor, holding the
backward closure, the nodes of its parents (a leaf Tensor with
``requires_grad``, or ``None`` for a parent that takes no gradient), the
output's shape and, during backward, its gradient. A Tensor owns ``.data``
and ``requires_grad``; its node never holds a Tensor of the graph, so an
intermediate array lives only as long as the caller's references to it or a
closure that saved it. A closure saves only what its backward reads: shapes,
flags, and the arrays the rule needs (``mul`` keeps the other operand,
``exp`` and ``sigmoid`` their output).

Primitives take Tensor operands. Only the operators convert: a Python number
or numpy array in ``+ - * /`` or right of ``@`` takes the other operand's dtype.

A closure returns one gradient per parent (see ``record_op``);
``Tensor.backward`` walks the nodes once in reverse topological order and is
the only code that adds them up, releasing each node once its closure has
run, so only leaves keep a ``.grad``. Running backward a second time over
the same recording is an error.

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


class _Node:
    """One recorded op on the tape; ``Tensor.backward`` releases it as it passes."""

    __slots__ = ("backward_fn", "parents", "shape", "grad")

    def __init__(self, backward_fn: Callable, parents: tuple, shape: tuple):
        self.backward_fn = backward_fn
        self.parents = parents
        self.shape = shape
        self.grad = None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")
    __array_ufunc__ = None      # numpy defers ``array - tensor`` to ``Tensor.__rsub__``

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and not isinstance(data, np.ndarray):
            dtype = DEFAULT_DTYPE      # only ndarrays carry an intended width
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _backward_fn(self):
        """The node's closure, None if nothing was recorded or backward released it;
        assigning a wrapper changes what ``backward`` calls."""
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

    # ---- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self))

    def __getitem__(self, index):
        return _slice(self, index)

    # ---- backward ------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable ``.grad``.

        ``self`` must hold a single element. A closure's gradient for a parent
        that took part with ``requires_grad`` on is summed to the parent's
        shape and added to the gradient of its node, or to a leaf's ``.grad``.
        Each node is released, and its closure's saved arrays can be freed,
        once its closure has run, so only leaves keep ``.grad`` and each
        forward pass supports exactly one backward pass.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.data.shape}")
        if self._node is None:
            self.grad = np.ones_like(self.data)
            return
        order = _toposort(self._node)
        self._node.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.grad is not None:
                for parent, g in zip(node.parents, node.backward_fn(node.grad)):
                    if g is not None and parent is not None:
                        g = _unbroadcast(g, parent.shape)
                        parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = node.backward_fn = None
            node.parents = ()


def _toposort(root: _Node):
    """Nodes reachable from ``root``, each after every node it reads from."""
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
        if node.backward_fn is None:
            raise TapeError("backward: graph already consumed by a previous backward pass; "
                            "re-run the forward computation first")
        stack.append((node, True))
        for parent in node.parents:
            if isinstance(parent, _Node) and id(parent) not in seen:
                stack.append((parent, False))
    return order


def record_op(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable):
    """Wrap ``data`` as the output of a primitive.

    When recording is enabled and any parent requires a gradient, the output
    gets a tape node that keeps ``backward_fn``. It maps the output gradient
    to one entry per parent, in order: that parent's gradient, which may have
    the broadcast shape of the output, or ``None`` to skip it. Gradients of
    parents without ``requires_grad`` are dropped, so a closure tests it only
    to skip real work. ``backward_fn`` must capture only what it reads, never
    a Tensor: the node holds its parents' nodes, not their data.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out._node = None
    out.requires_grad = False
    if _grad_enabled:
        nodes = tuple([p._node or (p if p.requires_grad else None) for p in parents])
        if nodes.count(None) < len(nodes):
            out.requires_grad = True
            out._node = _Node(backward_fn, nodes, out.data.shape)
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    """An operator's other operand: ``x`` itself if a Tensor, else ``x`` in ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


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


def _broadcast(name: str, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op(a, b)``; operands that do not broadcast raise a ShapeError naming ``name``."""
    try:
        return op(a, b)
    except ValueError as exc:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("add", np.add, a.data, b.data)
    return record_op(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("sub", np.subtract, a.data, b.data)
    b_grad = b.requires_grad
    return record_op(out, (a, b), lambda g: (g, -g if b_grad else None))


def neg(a: Tensor) -> Tensor:
    return record_op(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("mul", np.multiply, a.data, b.data)
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return record_op(out, (a, b), lambda g: (None if b_data is None else g * b_data,
                                             None if a_data is None else g * a_data))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; the denominator is clamped to >= 1e-12."""
    den = np.maximum(b.data, CLAMP_MIN)
    out = _broadcast("div", np.divide, a.data, den)
    a_grad = a.requires_grad
    a_data, active = (a.data, b.data > CLAMP_MIN) if b.requires_grad else (None, None)
    return record_op(out, (a, b), lambda g: (
        g / den if a_grad else None,
        None if a_data is None else -g * a_data / (den * den) * active))


# ---- linear algebra and structure ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return record_op(out, (a, b), lambda g: (None if b_data is None else g @ b_data.T,
                                             None if a_data is None else a_data.T @ g))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
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
    # A basic index (ints, slices, None, Ellipsis) names each element at most
    # once, so its gradient is assigned; an advanced one may repeat an element.
    basic = all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
                for i in (index if isinstance(index, tuple) else (index,)))

    shape, dtype = t.data.shape, t.data.dtype

    def backward(g):
        dz = np.zeros(shape, dtype)
        if basic:
            dz[index] = g
        else:
            np.add.at(dz, index, g)
        return (dz,)

    return record_op(out, (t,), backward)


def reshape(t: Tensor, shape) -> Tensor:
    try:
        out = t.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view shape {t.data.shape} as {tuple(shape)}") from exc
    shape = t.data.shape
    return record_op(out, (t,), lambda g: (g.reshape(shape),))


def transpose(t: Tensor, axes=None) -> Tensor:
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
    out = t.data.sum(axis=axis, keepdims=keepdims)
    shape = t.data.shape
    return record_op(out, (t,), lambda g: (_expand_reduced(g, axis, keepdims, shape),))


def tmean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = t.data.mean(axis=axis, keepdims=keepdims)
    count = t.data.size // max(out.size, 1)          # elements behind each mean
    shape = t.data.shape
    return record_op(out, (t,), lambda g: (_expand_reduced(g, axis, keepdims, shape) / count,))


# ---- nonlinearities -------------------------------------------------------


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return record_op(out, (t,), lambda g: (g * out,))


def log(t: Tensor) -> Tensor:
    """Natural log of the input clamped to >= 1e-12."""
    clamped = np.maximum(t.data, CLAMP_MIN)
    out = np.log(clamped)
    active = t.data > CLAMP_MIN
    return record_op(out, (t,), lambda g: (g * active / clamped,))


def sigmoid(t: Tensor) -> Tensor:
    x = t.data
    e = np.exp(np.minimum(x, -x))      # -|x|, but a NaN keeps its sign bit
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return record_op(out, (t,), lambda g: (g * out * (1.0 - out),))


def leaky_relu(t: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x: the larger of the two when slope <= 1,
    the smaller when slope > 1; slope 0 is the ReLU.

    For slope > 0 the output is positive exactly where the input is (signed
    zeros, infinities and NaN included), so the backward reads the output and
    the input can be freed. At slope 0, ``+inf * 0`` is NaN, so the mask reads
    the input.
    """
    out = t.data * slope
    (np.maximum if slope <= 1 else np.minimum)(t.data, out, out=out)
    sign_of = out if slope > 0 else t.data
    slope = t.data.dtype.type(slope)

    def backward(g):
        m = sign_of > 0
        return (g * (m + ~m * slope),)

    return record_op(out, (t,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    out = t.data - t.data.max(axis=axis, keepdims=True)      # exp and the division in place
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

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

"""Convolution, pooling, upsampling, and the two segmentation losses.

Operators take a batch laid out channels-first, ``(N, C, H, W)``; a single
``(C, H, W)`` sample is the N = 1 case. ``conv2d`` is a stride-1
cross-correlation (no kernel flip) with an odd square kernel, zero-padded so
the output keeps the input's extent. Its taps are strided views of one flat
padded copy of each sample, which is all the tape keeps for the gradients;
its GEMMs run one sample at a time, so their transients stay at one sample's
size. ``dice_loss`` is the mean over the batch of per-sample dice losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, _as_tensor, log, record_op, tmean, tsum


def _pad_flat(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` (...,H,W) zero-padded by p on each side, rows end to end, then 2p zeros."""
    *lead, h, w = a.shape
    size = (h + 2 * p) * (w + 2 * p)
    flat = np.zeros((*lead, size + 2 * p), dtype=a.dtype)
    flat[..., :size].reshape(*lead, h + 2 * p, w + 2 * p)[..., p:p + h, p:p + w] = a
    return flat


def _check_map(name: str, x: Tensor):
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"{name}: expected input (N,C,H,W) or (C,H,W), got shape {x.data.shape}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           dilation: int = 1) -> Tensor:
    """Cross-correlate ``x`` (N,C_in,H,W) or (C_in,H,W) with ``weight`` (C_out,C_in,k,k), k odd.

    The input is zero-padded by dilation*(k-1)/2 on each side, so the output
    is (N,C_out,H,W), or (C_out,H,W) for a single sample. The input gradient
    is the same correlation of the output gradient with the flipped,
    channel-transposed kernel.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    _check_map("conv2d", x)
    if weight.data.ndim != 4 or weight.data.shape[2] != weight.data.shape[3]:
        raise ShapeError(f"conv2d: expected square kernel (C_out,C_in,k,k), got {weight.data.shape}")
    c_in, h, w = x.data.shape[-3:]
    c_out, wc_in, k, _ = weight.data.shape
    if wc_in != c_in:
        raise ShapeError(f"conv2d: input has {c_in} channels but kernel expects {wc_in} "
                         f"(shapes {x.data.shape} and {weight.data.shape})")
    if dilation < 1:
        raise ShapeError(f"conv2d: dilation {dilation} must be >= 1")
    if k % 2 == 0:
        raise ShapeError(f"conv2d: same padding needs an odd kernel, got {k}")
    if bias is not None:
        bias = _as_tensor(bias, like=x)
        if bias.data.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")

    kernel = weight.data
    p = dilation * (k - 1) // 2
    wp = w + 2 * p

    def taps(a, tap_rows=0):
        """Read-only (R,k,k,H*wp) view of ``a``, R = tap_rows or len(a): [r,i,j,q]
        is element [(i*k + j)*tap_rows + r, (i*wp + j)*dilation + q]."""
        s0, s1 = a.strides
        steps = (s0, k * tap_rows * s0 + dilation * wp * s1, tap_rows * s0 + dilation * s1, s1)
        return as_strided(a, (tap_rows or len(a), k, k, h * wp), steps, writeable=False)

    def correlate(buf, kern, out):
        """Same-padded correlation of one sample's ``_pad_flat`` map with ``kern``
        (C_o,C_i,k,k), written to ``out`` (C_o,H*wp).

        If C_i <= C_o, one GEMM on the taps copied into columns; otherwise one GEMM
        gives every tap's output rows, summed at their shifted offsets. Rows run over
        the padded width, so each ends in 2p wrap-around columns to be dropped."""
        c_o, c_i = kern.shape[:2]
        if c_i <= c_o:
            np.matmul(kern.reshape(c_o, -1), taps(buf).reshape(-1, h * wp), out=out)
        else:
            per_tap = kern.transpose(2, 3, 0, 1).reshape(k * k * c_o, c_i) @ buf
            taps(per_tap, c_o).sum(axis=(1, 2), out=out)

    def cropped(rows):
        """(...,C,H,W) view of (...,C,H*wp) rows, without the wrap-around columns."""
        return rows.reshape(rows.shape[:-1] + (h, wp))[..., :w]

    flat = _pad_flat(x.data.reshape(-1, c_in, h, w), p)            # (N, C_in, L)
    rows = np.empty((len(flat), c_out, h * wp), np.result_type(flat, kernel))
    for sample, r in zip(flat, rows):
        correlate(sample, kernel, r)
    out = cropped(rows)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g = g.reshape(-1, c_out, h, w)
        dw = 0
        dx = (np.empty(flat.shape[:2] + (h * wp,), np.result_type(g, kernel))
              if x.requires_grad else None)
        flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        for i, sample in enumerate(flat):
            g_flat = _pad_flat(g[i], p)
            if weight.requires_grad:
                g_wp = g_flat[:, p * wp + p:][:, :h * wp]      # zeros in the wrap-around columns
                dw = dw + np.matmul(g_wp, taps(sample).transpose(1, 2, 3, 0))  # (k,k,C_out,C_in)
            if dx is not None:
                correlate(g_flat, flipped, dx[i])
        return (None if dx is None else cropped(dx).reshape(x.data.shape),
                dw.transpose(2, 3, 0, 1) if weight.requires_grad else None,
                g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None)

    return record_op(out.reshape(x.data.shape[:-3] + out.shape[1:]), parents, backward)


def _corners(a: np.ndarray) -> list[np.ndarray]:
    """The four strided (...,H/2,W/2) views of the 2x2 windows of ``a``, in row-major window order."""
    return [a[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; gradients route to the first argmax."""
    x = _as_tensor(x)
    _check_map("maxpool2", x)
    h, w = x.data.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2: spatial extent must be even, got {(h, w)}")
    corners = _corners(x.data)
    out = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))

    def backward(g):
        dx = np.zeros_like(x.data)
        free = np.ones(out.shape, dtype=bool)        # windows whose max is not yet taken
        for corner, d in zip(corners, _corners(dx)):
            first = corner == out
            first &= free
            np.copyto(d, g, where=first)
            free ^= first
        return (dx,)

    return record_op(out, (x,), backward)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling; each input pixel becomes a 2x2 block."""
    x = _as_tensor(x)
    _check_map("upsample2", x)
    out = x.data.repeat(2, axis=-2).repeat(2, axis=-1)

    def backward(g):
        a, b, c, d = _corners(g)
        return (a + b + c + d,)

    return record_op(out, (x,), backward)


# ---- losses ---------------------------------------------------------------


def bce_loss(pred: Tensor, target) -> Tensor:
    """Binary cross-entropy averaged over every element.

    Predictions are probabilities; the log clamp bounds them away from 0
    and 1 so saturated outputs stay finite.
    """
    pred = _as_tensor(pred)
    target = _as_tensor(target, like=pred)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"bce_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    term = target * log(pred) + (1.0 - target) * log(1.0 - pred)
    return -tmean(term)


def dice_loss(pred: Tensor, target, eps: float = 1e-6) -> Tensor:
    """Mean over the batch of one minus the soft overlap ratio 2*|pred*target| / (|pred| + |target|).

    Each sample's sums run over the last three axes (C,H,W); an input with
    at most three axes is one sample.
    """
    pred = _as_tensor(pred)
    target = _as_tensor(target, like=pred)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"dice_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    axes = tuple(range(pred.data.ndim))[-3:]
    intersection = tsum(pred * target, axis=axes, keepdims=True)
    denom = tsum(pred, axis=axes, keepdims=True) + tsum(target, axis=axes, keepdims=True) + eps
    return tmean(1.0 - (2.0 * (intersection + eps)) / denom)


LOSSES = {"bce": bce_loss, "dice": dice_loss}


@dataclass
class ConvParams:
    """One convolutional layer: kernel, optional bias, and its dilation."""

    weight: Tensor
    bias: Tensor | None = None
    dilation: int = 1

    def __post_init__(self):
        if self.weight.data.ndim != 4 or self.weight.data.shape[2] != self.weight.data.shape[3]:
            raise ShapeError(f"ConvParams: kernel must be (C_out,C_in,k,k), got {self.weight.data.shape}")
        k = self.weight.data.shape[2]
        if k % 2 == 0:
            raise ShapeError(f"ConvParams: kernel extent must be odd, got {k}")
        if self.dilation < 1:
            raise ShapeError("ConvParams: dilation must be >= 1")

    def apply(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, dilation=self.dilation)

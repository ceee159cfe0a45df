"""Convolution, pooling, upsampling, and the two segmentation losses.

All operators work on single samples laid out channels-first: images are
``(C, H, W)`` and masks broadcast from ``(1, H, W)``. ``conv2d`` is a stride-1
cross-correlation (no kernel flip) with an odd square kernel, zero-padded so
the output keeps the input's extent. Its taps are strided views of one flat
padded copy of the input, which is all the tape keeps for the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import (ShapeError, Tensor, _accum, _as_tensor, log, record_op,
                     tmean, tsum)


def _pad_flat(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` (C,H,W) zero-padded by p on each side, rows end to end, then 2p zeros."""
    c, h, w = a.shape
    flat = np.zeros((c, (h + 2 * p) * (w + 2 * p) + 2 * p), dtype=a.dtype)
    flat[:, :flat.shape[1] - 2 * p].reshape(c, h + 2 * p, w + 2 * p)[:, p:p + h, p:p + w] = a
    return flat


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           dilation: int = 1) -> Tensor:
    """Cross-correlate ``x`` (C_in,H,W) with ``weight`` (C_out,C_in,k,k), k odd.

    The input is zero-padded by dilation*(k-1)/2 on each side, so the output
    is (C_out,H,W). The input gradient is the same correlation of the output
    gradient with the flipped, channel-transposed kernel.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: expected input (C,H,W), got shape {x.data.shape}")
    if weight.data.ndim != 4 or weight.data.shape[2] != weight.data.shape[3]:
        raise ShapeError(f"conv2d: expected square kernel (C_out,C_in,k,k), got {weight.data.shape}")
    c_in, h, w = x.data.shape
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

    def correlate(buf, kern):
        """Same-padded correlation of a ``_pad_flat`` map with ``kern`` (C_o,C_i,k,k).

        If C_i <= C_o, one GEMM on the taps copied into columns; otherwise one GEMM
        gives every tap's output rows, summed at their shifted offsets. Rows run over
        the padded width; their 2p wrap-around columns are dropped."""
        c_o, c_i = kern.shape[:2]
        if c_i <= c_o:
            out = kern.reshape(c_o, -1) @ taps(buf).reshape(-1, h * wp)
        else:
            rows = kern.transpose(2, 3, 0, 1).reshape(k * k * c_o, c_i) @ buf
            out = taps(rows, c_o).sum(axis=(1, 2))
        return out.reshape(c_o, h, wp)[:, :, :w]

    flat = _pad_flat(x.data, p)
    out = correlate(flat, kernel)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g_flat = _pad_flat(g, p)
        if weight.requires_grad:
            g_wp = g_flat[:, p * wp + p:][:, :h * wp]      # zeros in the wrap-around columns
            dw = np.matmul(g_wp, taps(flat).transpose(1, 2, 3, 0))      # (k,k,C_out,C_in)
            _accum(weight, dw.transpose(2, 3, 0, 1))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(1, 2)))
        if x.requires_grad:
            flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            _accum(x, correlate(g_flat, flipped))

    return record_op(out, parents, backward)


def dilated_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
                   dilation: int = 2) -> Tensor:
    """conv2d with spread-out taps; dilation 1 reduces to plain conv2d."""
    return conv2d(x, weight, bias, dilation=dilation)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; gradients route to the first argmax."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2: expected input (C,H,W), got shape {x.data.shape}")
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2: spatial extent must be even, got {(h, w)}")
    windows = (x.data.reshape(c, h // 2, 2, w // 2, 2)
               .transpose(0, 1, 3, 2, 4)
               .reshape(c, h // 2, w // 2, 4))
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if x.requires_grad:
            dwin = np.zeros_like(windows)
            np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
            dx = (dwin.reshape(c, h // 2, w // 2, 2, 2)
                  .transpose(0, 1, 3, 2, 4)
                  .reshape(c, h, w))
            _accum(x, dx)

    return record_op(out, (x,), backward)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling; each input pixel becomes a 2x2 block."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"upsample2: expected input (C,H,W), got shape {x.data.shape}")
    c, h, w = x.data.shape
    out = x.data.repeat(2, axis=1).repeat(2, axis=2)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

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
    """One minus the soft overlap ratio 2*|pred*target| / (|pred| + |target|)."""
    pred = _as_tensor(pred)
    target = _as_tensor(target, like=pred)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"dice_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    intersection = tsum(pred * target)
    denom = tsum(pred) + tsum(target) + eps
    return 1.0 - (2.0 * (intersection + eps)) / denom


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

"""Convolution, pooling, upsampling, and the two segmentation losses.

All operators work on single samples laid out channels-first: images are
``(C, H, W)`` and masks broadcast from ``(1, H, W)``. ``conv2d`` is a
cross-correlation (no kernel flip) with zero padding; with ``padding=None``
and stride 1 it pads to preserve the spatial extent, which needs an odd
kernel. The heavy lifting runs through an im2col gather and one matrix
multiply so CPU training stays tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (ShapeError, Tensor, _accum, _as_tensor, log, record_op,
                     tmean, tsum)


def _out_extent(n: int, k: int, stride: int, dilation: int, padding: int) -> int:
    effective = dilation * (k - 1) + 1
    return (n + 2 * padding - effective) // stride + 1


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, dilation: int = 1, padding: int | None = None) -> Tensor:
    """Cross-correlate ``x`` (C_in,H,W) with ``weight`` (C_out,C_in,k,k).

    ``padding=None`` selects same-size zero padding (stride 1, odd kernels).
    Output extent follows floor((n + 2p - d*(k-1) - 1) / stride) + 1.
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
    if stride < 1 or dilation < 1:
        raise ShapeError(f"conv2d: stride {stride} and dilation {dilation} must be >= 1")
    if padding is None:
        if stride != 1 or k % 2 == 0:
            raise ShapeError("conv2d: same padding needs stride 1 and an odd kernel")
        padding = dilation * (k - 1) // 2
    ho = _out_extent(h, k, stride, dilation, padding)
    wo = _out_extent(w, k, stride, dilation, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel (effective {dilation*(k-1)+1}) exceeds padded input "
                         f"{(h + 2*padding, w + 2*padding)}")
    if bias is not None:
        bias = _as_tensor(bias, like=x)
        if bias.data.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")

    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c_in, k, k, ho, wo), dtype=x.data.dtype)
    for ky in range(k):
        for kx in range(k):
            ys, xs = ky * dilation, kx * dilation
            cols[:, ky, kx] = xp[:, ys:ys + stride * ho:stride, xs:xs + stride * wo:stride]
    cols2 = cols.reshape(c_in * k * k, ho * wo)
    w2 = weight.data.reshape(c_out, c_in * k * k)
    out = (w2 @ cols2).reshape(c_out, ho, wo)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g2 = g.reshape(c_out, ho * wo)
        if weight.requires_grad:
            _accum(weight, (g2 @ cols2.T).reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(1, 2)))
        if x.requires_grad:
            dcols = (w2.T @ g2).reshape(c_in, k, k, ho, wo)
            dxp = np.zeros_like(xp)
            for ky in range(k):
                for kx in range(k):
                    ys, xs = ky * dilation, kx * dilation
                    dxp[:, ys:ys + stride * ho:stride, xs:xs + stride * wo:stride] += dcols[:, ky, kx]
            _accum(x, dxp[:, padding:padding + h, padding:padding + w])

    return record_op(out, parents, backward)


def dilated_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
                   dilation: int = 2, stride: int = 1, padding: int | None = None) -> Tensor:
    """conv2d with spread-out taps; dilation 1 reduces to plain conv2d."""
    return conv2d(x, weight, bias, stride=stride, dilation=dilation, padding=padding)


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
    """One convolutional layer: kernel, optional bias, and its geometry."""

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    dilation: int = 1
    padding: int | None = None

    def __post_init__(self):
        if self.weight.data.ndim != 4 or self.weight.data.shape[2] != self.weight.data.shape[3]:
            raise ShapeError(f"ConvParams: kernel must be (C_out,C_in,k,k), got {self.weight.data.shape}")
        k = self.weight.data.shape[2]
        if k % 2 == 0:
            raise ShapeError(f"ConvParams: kernel extent must be odd, got {k}")
        if self.dilation < 1 or self.stride < 1:
            raise ShapeError("ConvParams: stride and dilation must be >= 1")

    def apply(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias,
                      stride=self.stride, dilation=self.dilation, padding=self.padding)

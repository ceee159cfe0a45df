"""Convolution, pooling, upsampling, and the two segmentation losses.

Operators take a batch laid out channels-first, ``(N, C, H, W)``; a single
``(C, H, W)`` sample is the N = 1 case. ``conv2d`` is a stride-1
cross-correlation (no kernel flip) with an odd square kernel, zero-padded so
the output keeps the input's extent. Its taps are strided views of a flat
padded copy of one sample, made when a correlation needs it and dropped
after. The tape keeps the unpadded input for the kernel gradient, and only
when the kernel trains; the input gradient reads only the kernel. The
forward and input-gradient correlations run one sample at a time, over
column tiles of the sample's flat padded rows: each tile's GEMM operand (its
tap columns, or its per-tap output rows) fits a fixed byte budget, so that
scratch stays cache-sized whatever the image size. ``dice_loss`` is the mean
over the batch of per-sample dice losses.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, log, record_op, tmean, tsum

# Byte budgets of one column tile's GEMM operand in ``conv2d``: the tap columns
# copied when C_i <= C_o, and the per-tap output rows when C_i > C_o. Of the
# sizes timed on gac-unet's 256 and 512 px conv shapes, these were fastest.
_COLUMN_TILE_BYTES = 1 << 20
_TAP_TILE_BYTES = 4 << 20


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
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")

    kernel = weight.data
    p = dilation * (k - 1) // 2
    wp = w + 2 * p

    def taps(a, tap_rows=0, m=h * wp):
        """Read-only (R,k,k,m) view of ``a``, R = tap_rows or len(a): [r,i,j,q]
        is element [(i*k + j)*tap_rows + r, (i*wp + j)*dilation + q]."""
        s0, s1 = a.strides
        steps = (s0, k * tap_rows * s0 + dilation * wp * s1, tap_rows * s0 + dilation * s1, s1)
        return as_strided(a, (tap_rows or len(a), k, k, m), steps, writeable=False)

    def correlator(kern, dtype):
        """A function that writes the same-padded correlation of one sample's
        ``_pad_flat`` map with ``kern`` (C_o,C_i,k,k) to a (C_o,H*wp) ``dtype``
        array, one column tile at a time.

        The kernel's GEMM operand and the tile width are prepared here, once
        per call of ``conv2d`` or of its backward. If C_i <= C_o, each tile
        copies its taps into columns for one GEMM; otherwise one GEMM gives
        every tap's output rows for the tile and its 2p*(wp+1) halo columns,
        into one buffer that every tile of the sample reuses, summed at their
        shifted offsets. A tile's operand fills its byte budget, halo aside.
        Rows run over the padded width, so each ends in 2p wrap-around columns
        to be dropped."""
        c_o, c_i = kern.shape[:2]
        if c_i <= c_o:
            columns = kern.reshape(c_o, -1)
            m = max(1, _COLUMN_TILE_BYTES // (columns.shape[1] * dtype.itemsize))

            def correlate(buf, out):
                for q0 in range(0, h * wp, m):
                    n = min(m, h * wp - q0)
                    np.matmul(columns, taps(buf[:, q0:], 0, n).reshape(-1, n),
                              out=out[:, q0:q0 + n])
        else:
            per_tap_rows = kern.transpose(2, 3, 0, 1).reshape(k * k * c_o, c_i)
            m = max(1, _TAP_TILE_BYTES // (len(per_tap_rows) * dtype.itemsize))
            halo = 2 * p * (wp + 1)

            def correlate(buf, out):
                prod = np.empty((len(per_tap_rows), min(m, h * wp) + halo), dtype)
                for q0 in range(0, h * wp, m):
                    n = min(m, h * wp - q0)
                    per_tap = np.matmul(per_tap_rows, buf[:, q0:q0 + n + halo],
                                        out=prod[:, :n + halo])
                    taps(per_tap, c_o, n).sum(axis=(1, 2), out=out[:, q0:q0 + n])
        return correlate

    def cropped(rows):
        """(...,C,H,W) view of (...,C,H*wp) rows, without the wrap-around columns."""
        return rows.reshape(rows.shape[:-1] + (h, wp))[..., :w]

    samples = x.data.reshape(-1, c_in, h, w)
    rows = np.empty((len(samples), c_out, h * wp), np.result_type(x.data, kernel))
    correlate = correlator(kernel, rows.dtype)
    for sample, r in zip(samples, rows):
        correlate(_pad_flat(sample, p), r)
    out = cropped(rows)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_shape, x_grad = x.data.shape, x.requires_grad
    saved = samples if weight.requires_grad else None      # read only by the kernel gradient
    bias_grad = bias is not None and bias.requires_grad

    def backward(g):
        g = g.reshape(-1, c_out, h, w)
        dw = 0
        if x_grad:
            dx = np.empty((len(g), c_in, h * wp), np.result_type(g, kernel))
            correlate_dx = correlator(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), dx.dtype)
        for i in range(len(g)):
            g_flat = _pad_flat(g[i], p)
            if saved is not None:
                g_wp = g_flat[:, p * wp + p:][:, :h * wp]      # zeros in the wrap-around columns
                dw = dw + np.matmul(g_wp, taps(_pad_flat(saved[i], p)).transpose(1, 2, 3, 0))
            if x_grad:
                correlate_dx(g_flat, dx[i])
        return (cropped(dx).reshape(x_shape) if x_grad else None,
                None if saved is None else dw.transpose(2, 3, 0, 1),  # (k,k,C_out,C_in) first
                g.sum(axis=(0, 2, 3)) if bias_grad else None)

    return record_op(out.reshape(x_shape[:-3] + out.shape[1:]), parents, backward)


def _corners(a: np.ndarray) -> list[np.ndarray]:
    """The four strided (...,H/2,W/2) views of the 2x2 windows of ``a``, in row-major window order."""
    return [a[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; gradients route to the first argmax."""
    _check_map("maxpool2", x)
    h, w = x.data.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2: spatial extent must be even, got {(h, w)}")
    corners = _corners(x.data)
    out = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        dx = np.zeros(shape, dtype)
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
    _check_map("upsample2", x)
    out = x.data.repeat(2, axis=-2).repeat(2, axis=-1)

    def backward(g):
        a, b, c, d = _corners(g)
        return (a + b + c + d,)

    return record_op(out, (x,), backward)


# ---- losses ---------------------------------------------------------------


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Binary cross-entropy averaged over every element.

    Predictions are probabilities; the log clamp bounds them away from 0
    and 1 so saturated outputs stay finite.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"bce_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    term = target * log(pred) + (1.0 - target) * log(1.0 - pred)
    return -tmean(term)


def dice_loss(pred: Tensor, target: Tensor, eps: float = 1e-6) -> Tensor:
    """Mean over the batch of one minus the soft overlap ratio 2*|pred*target| / (|pred| + |target|).

    Each sample's sums run over the last three axes (C,H,W); an input with
    at most three axes is one sample.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"dice_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    axes = tuple(range(pred.data.ndim))[-3:]
    intersection = tsum(pred * target, axis=axes, keepdims=True)
    denom = tsum(pred, axis=axes, keepdims=True) + tsum(target, axis=axes, keepdims=True) + eps
    return tmean(1.0 - (2.0 * (intersection + eps)) / denom)


LOSSES = {"bce": bce_loss, "dice": dice_loss}

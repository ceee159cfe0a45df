"""Convolution, pooling, upsampling, and the two segmentation losses.

Operators take a batch laid out channels-first, ``(N, C, H, W)``; a single
``(C, H, W)`` sample is the N = 1 case. ``conv2d`` is a stride-1
cross-correlation (no kernel flip) with an odd square kernel, zero-padded so
the output keeps the input's extent. A 1x1 kernel is one GEMM per sample,
with no padding. A larger kernel's taps are strided views of a flat padded
map, made when a correlation needs it and dropped after. The tape keeps the
unpadded input for the kernel gradient, and only when the kernel trains; the
input gradient reads only the kernel. The forward and input-gradient
correlations walk column tiles of the flat padded rows: each tile's GEMM
operand (its tap columns, or its per-tap output rows) fits a fixed byte
budget, so that scratch stays cache-sized whatever the image size. Samples
smaller than one tile are stacked, G to a map, one below the other, and one
walk covers the G samples; a sample as large as a tile or larger has a walk
of its own. The kernel gradient also walks column tiles, one sample at a
time: each tile's output-gradient and input columns fit a third budget, so
they stay in cache while all k*k per-tap GEMMs read them, and the tiles'
products are summed in column order. ``dice_loss`` is the mean over the batch
of per-sample dice losses.
"""

from __future__ import annotations

import numpy as np

from .graphnn import is_int
from .tensor import ShapeError, Tensor, log, record_op, tmean, tsum

# Byte budgets of one column tile's GEMM operand in ``conv2d``: the tap columns
# copied when C_i <= C_o, and the per-tap output rows when C_i > C_o; and, for
# the kernel gradient, the output-gradient and input columns that a tile's k*k
# GEMMs read. Of the sizes timed on gac-unet's 256 and 512 px conv shapes,
# these were fastest.
_COLUMN_TILE_BYTES = 1 << 20
_TAP_TILE_BYTES = 4 << 20
_DW_TILE_BYTES = 128 << 10
DICE_EPS = 1e-6     # added to dice_loss's overlap and denominator: empty masks give -1


def _pad_flat(a: np.ndarray, p: int) -> np.ndarray:
    """Samples ``a`` (G,C,H,W) as one (C, G*(H+2p)*(W+2p) + 2p*(W+2p+1)) map: each
    zero-padded by p on each side, its rows end to end below the previous sample's,
    then zeros for the taps of the last sample's bottom padding rows."""
    g, c, h, w = a.shape
    size = g * (h + 2 * p) * (w + 2 * p)
    flat = np.zeros((c, size + 2 * p * (w + 2 * p + 1)), dtype=a.dtype)
    flat[:, :size].reshape(c, g, h + 2 * p, w + 2 * p)[..., p:p + h, p:p + w] = \
        a.transpose(1, 0, 2, 3)
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
    if not is_int(dilation) or dilation < 1:
        raise ShapeError(f"conv2d: dilation {dilation!r} must be an integer >= 1")
    if 0 in (c_in, h, w, c_out):
        raise ShapeError(f"conv2d: input {x.data.shape} and kernel {weight.data.shape} "
                         f"need channels and an extent of at least 1")
    if k % 2 == 0:
        raise ShapeError(f"conv2d: same padding needs an odd kernel, got {k}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")

    kernel = weight.data
    p = dilation * (k - 1) // 2
    wp = w + 2 * p
    span = (h + 2 * p) * wp         # one sample's columns in a stacked ``_pad_flat`` map
    samples = x.data.reshape(-1, c_in, h, w)
    batch = len(samples)

    def taps(a, q0=0, tap_rows=0, m=h * wp):
        """(R,k,k,m) view of the C-contiguous ``a`` from column q0, R = tap_rows or
        len(a): [r,i,j,q] is element [(i*k + j)*tap_rows + r, q0 + (i*wp + j)*dilation + q]."""
        s0, s1 = a.strides
        steps = (s0, k * tap_rows * s0 + dilation * wp * s1, tap_rows * s0 + dilation * s1, s1)
        return np.ndarray((tap_rows or len(a), k, k, m), a.dtype, a, q0 * s1, steps)

    def correlator(kern, dtype):
        """A function that writes the same-padded correlation of G samples'
        stacked ``_pad_flat`` map with ``kern`` (C_o,C_i,k,k) to their
        (G,C_o,H*wp) ``dtype`` rows; and G.

        The kernel's GEMM operand and the tile width m are prepared here, once
        per call of ``conv2d`` or of its backward, and G = min(N, m // span),
        at least 1: samples smaller than a tile share one walk over m-column
        tiles, and a larger sample walks alone. If C_i <= C_o, each tile
        copies its taps into columns for one GEMM; otherwise one GEMM gives
        every tap's output rows for the tile and its 2p*(wp+1) halo columns,
        into one buffer that every tile of the walk reuses, summed at their
        shifted offsets. A tile's operand fills its byte budget, halo aside.
        Rows run over the padded width, so each ends in 2p wrap-around columns
        to be dropped. A walk over G > 1 samples also computes, then drops,
        each sample's 2p bottom padding rows, whose taps never reach the next
        sample; it runs on through the last sample's, so that the GEMM's
        ragged last columns, which BLAS may round differently, are dropped."""
        c_o, c_i = kern.shape[:2]
        if c_i <= c_o:
            columns = kern.reshape(c_o, -1)
            m = max(1, _COLUMN_TILE_BYTES // (columns.shape[1] * dtype.itemsize))

            def walk(buf, out):
                for q0 in range(0, out.shape[1], m):
                    n = min(m, out.shape[1] - q0)
                    np.matmul(columns, taps(buf, q0, 0, n).reshape(-1, n),
                              out=out[:, q0:q0 + n])
        else:
            per_tap_rows = kern.transpose(2, 3, 0, 1).reshape(k * k * c_o, c_i)
            m = max(1, _TAP_TILE_BYTES // (len(per_tap_rows) * dtype.itemsize))
            halo = 2 * p * (wp + 1)

            def walk(buf, out):
                prod = np.empty((len(per_tap_rows), min(m, out.shape[1]) + halo), dtype)
                for q0 in range(0, out.shape[1], m):
                    n = min(m, out.shape[1] - q0)
                    np.matmul(per_tap_rows, buf[:, q0:q0 + n + halo], out=prod[:, :n + halo])
                    taps(prod, 0, c_o, n).sum(axis=(1, 2), out=out[:, q0:q0 + n])

        def correlate(buf, rows):
            if len(rows) == 1:
                return walk(buf, rows[0])
            stack = np.empty((c_o, len(rows), span), dtype)
            walk(buf, stack.reshape(c_o, -1))
            rows[...] = stack[:, :, :h * wp].transpose(1, 0, 2)
        return correlate, max(1, min(batch, m // span))

    def cropped(rows):
        """(...,C,H,W) view of (...,C,H*wp) rows, without the wrap-around columns."""
        return rows.reshape(rows.shape[:-1] + (h, wp))[..., :w]

    if k == 1:
        rows = np.matmul(kernel.reshape(c_out, c_in), samples.reshape(-1, c_in, h * w))
    else:
        rows = np.empty((batch, c_out, h * wp), np.result_type(x.data, kernel))
        correlate, group = correlator(kernel, rows.dtype)
        for n0 in range(0, batch, group):
            correlate(_pad_flat(samples[n0:n0 + group], p), rows[n0:n0 + group])
    out = cropped(rows)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_shape, x_grad = x.data.shape, x.requires_grad
    saved = samples if weight.requires_grad else None      # read only by the kernel gradient
    bias_grad = bias is not None and bias.requires_grad

    def sample_dw(g_wp, x_flat, q0, m, total, prod):
        """Write to ``total`` one sample's (k,k,C_out,C_in) kernel gradient from its
        (C_out,H*wp) output gradient rows and its taps at column q0 of ``x_flat``:
        the k*k per-tap GEMMs over m-column tiles, summed in column order. Each
        tile after the first writes its products to ``prod`` first."""
        for t0 in range(0, h * wp, m):
            n = min(m, h * wp - t0)
            np.matmul(g_wp[:, t0:t0 + n], taps(x_flat, q0 + t0, 0, n).transpose(1, 2, 3, 0),
                      out=prod if t0 else total)
            if t0:
                total += prod

    def backward(g):
        g = g.reshape(-1, c_out, h, w)
        dx = dw = None
        if k == 1:
            g_rows = g.reshape(-1, c_out, h * w)
            if x_grad:
                dx = np.matmul(kernel.reshape(c_out, c_in).T, g_rows)
            if saved is not None:       # the samples' (C_out,C_in) products, summed in order
                dw = np.matmul(g_rows, saved.reshape(-1, c_in, h * w).transpose(0, 2, 1))
                dw = dw.sum(axis=0)[None, None]
        else:
            group = 1
            if x_grad:
                dx = np.empty((batch, c_in, h * wp), np.result_type(g, kernel))
                correlate_dx, group = correlator(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                                                 dx.dtype)
            if saved is not None:
                dw = np.zeros((k, k, c_out, c_in), np.result_type(g, saved))
                dw_tile = max(1, _DW_TILE_BYTES // ((c_in + c_out) * dw.itemsize))
                sample, prod = np.empty_like(dw), np.empty_like(dw)
            for n0 in range(0, batch, group):
                chunk = g[n0:n0 + group]
                g_flat = _pad_flat(chunk, p)
                if saved is not None:       # per sample, in column tiles; added in sample order
                    x_flat = _pad_flat(saved[n0:n0 + group], p)
                    for q0 in range(0, len(chunk) * span, span):
                        g_wp = g_flat[:, q0 + p * wp + p:][:, :h * wp]  # zeros in wrap-arounds
                        sample_dw(g_wp, x_flat, q0, dw_tile, sample, prod)
                        dw += sample
                if x_grad:
                    correlate_dx(g_flat, dx[n0:n0 + group])
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


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over the batch of one minus the soft overlap ratio 2*|pred*target| / (|pred| + |target|).

    Each sample's sums run over the last three axes (C,H,W); an input with
    at most three axes is one sample.
    """
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"dice_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    axes = tuple(range(pred.data.ndim))[-3:]
    intersection = tsum(pred * target, axis=axes, keepdims=True)
    sums = tsum(pred, axis=axes, keepdims=True) + tsum(target, axis=axes, keepdims=True)
    return tmean(1.0 - (2.0 * (intersection + DICE_EPS)) / (sums + DICE_EPS))


LOSSES = {"bce": bce_loss, "dice": dice_loss}


def loss_named(name: str):
    """``LOSSES[name]``, read at call time; an unknown name is a ``ValueError``."""
    if name not in LOSSES:
        raise ValueError(f"unknown loss {name!r}, expected one of {sorted(LOSSES)}")
    return LOSSES[name]

"""Convolution/pooling operators and losses against scalar-loop oracles."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from floodseg import convnn
from floodseg.convnn import bce_loss, conv2d, dice_loss, maxpool2, upsample2
from floodseg.tensor import ShapeError, Tensor, concat, grad_check, tsum


def conv_oracle(x, w, b=None, stride=1, dilation=1, padding=0):
    """Direct quadruple-loop cross-correlation."""
    c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    wo = (width + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += (xp[ci, i * stride + ky * dilation,
                                       j * stride + kx * dilation]
                                    * w[co, ci, ky, kx])
                out[co, i, j] = acc
        if b is not None:
            out[co] += b[co]
    return out


def conv_backward_oracle(x, w, g, dilation):
    """Same-padded conv gradients by k*k tap slices: pad, slice-add, crop."""
    _, h, width = x.shape
    k = w.shape[2]
    p = dilation * (k - 1) // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ky in range(k):
        for kx in range(k):
            ys, xs = ky * dilation, kx * dilation
            dw[:, :, ky, kx] = np.einsum("ohw,ihw->oi", g, xp[:, ys:ys + h, xs:xs + width])
            dxp[:, ys:ys + h, xs:xs + width] += np.einsum("oi,ohw->ihw", w[:, :, ky, kx], g)
    return dxp[:, p:p + h, p:p + width], dw


def assert_relative_close(got, want, rtol):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


# ---- convolution -----------------------------------------------------------


# Fewer input than output channels, more, and equal: conv2d picks its GEMM
# form by that comparison, and the input gradient swaps the two counts.
CHANNELS = [(2, 3), (3, 2), (2, 2)]


def _channel_id(c_in, c_out):
    # 2->3 is the base case and carries no suffix.
    return "" if (c_in, c_out) == (2, 3) else f"-{c_in}to{c_out}"


@pytest.mark.parametrize("k,dilation,c_in,c_out", [
    pytest.param(k, dilation, c_in, c_out, id=f"{k}-{dilation}{_channel_id(c_in, c_out)}")
    for c_in, c_out in CHANNELS for k, dilation in [(1, 1), (3, 1), (3, 2), (5, 1)]])
def test_conv2d_matches_loop_oracle(k, dilation, c_in, c_out):
    rng = np.random.RandomState(k * 100 + dilation)
    x = rng.uniform(-1, 1, (c_in, 9, 8))
    w = rng.uniform(-1, 1, (c_out, c_in, k, k))
    b = rng.uniform(-1, 1, c_out)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation)
    want = conv_oracle(x, w, b, dilation=dilation, padding=dilation * (k - 1) // 2)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, atol=1e-10)


@pytest.mark.parametrize("c_out,shape", [
    pytest.param(c_out, (c_in,) + extent, id=f"{name}{_channel_id(c_in, c_out)}")
    for c_in, c_out in CHANNELS for extent, name in [((9, 8), "9x8"), ((3, 4), "3x4")]])
@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_gradients_match_tap_loop_oracle(k, dilation, c_out, shape):
    # A 3x4 input is smaller than every dilated kernel span above 1x1.
    rng = np.random.RandomState(k * 100 + dilation * 10 + shape[1])
    x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (c_out, shape[0], k, k)), requires_grad=True, dtype=np.float64)
    g = rng.uniform(-1, 1, (c_out,) + shape[1:])
    tsum(conv2d(x, w, dilation=dilation) * Tensor(g, dtype=np.float64)).backward()
    want_dx, want_dw = conv_backward_oracle(x.data, w.data, g, dilation)
    assert_relative_close(x.grad, want_dx, 1e-12)
    assert_relative_close(w.grad, want_dw, 1e-12)


@pytest.mark.parametrize("k,dilation,c_in,c_out", [
    pytest.param(k, dilation, c_in, c_out, id=f"{k}-{dilation}{_channel_id(c_in, c_out)}")
    for c_in, c_out in CHANNELS for k in [1, 3, 5] for dilation in [1, 2]])
def test_conv2d_over_several_column_tiles_matches_oracles(monkeypatch, k, dilation, c_in, c_out):
    # Budgets of m columns split each correlation's 9*(8+2p) flat output
    # columns into four tiles, the last one three columns wide. Every GEMM,
    # forward and input gradient, has k*k*min(c_in, c_out) operand rows.
    columns = 9 * (8 + dilation * (k - 1))
    m = columns // 3 - 1
    assert columns % m and -(-columns // m) >= 3
    budget = m * k * k * min(c_in, c_out) * 8
    monkeypatch.setattr(convnn, "_COLUMN_TILE_BYTES", budget)
    monkeypatch.setattr(convnn, "_TAP_TILE_BYTES", budget)
    rng = np.random.RandomState(k * 100 + dilation + 3)
    x = Tensor(rng.uniform(-1, 1, (c_in, 9, 8)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, k, k)), requires_grad=True, dtype=np.float64)
    b = rng.uniform(-1, 1, c_out)
    g = rng.uniform(-1, 1, (c_out, 9, 8))
    out = conv2d(x, w, Tensor(b, dtype=np.float64), dilation=dilation)
    p = dilation * (k - 1) // 2
    np.testing.assert_allclose(out.data, conv_oracle(x.data, w.data, b, dilation=dilation,
                                                     padding=p), atol=1e-10)
    tsum(out * Tensor(g, dtype=np.float64)).backward()
    want_dx, want_dw = conv_backward_oracle(x.data, w.data, g, dilation)
    assert_relative_close(x.grad, want_dx, 1e-12)
    assert_relative_close(w.grad, want_dw, 1e-12)


def per_sample_oracle(op, batch, *args):
    """``op`` on each sample of ``batch`` as its own N = 1 call: outputs stacked,
    input gradients stacked, and gradients of ``args`` summed over the calls."""
    outs, grads = [], []
    for sample in batch:
        x = Tensor(sample, requires_grad=True, dtype=np.float64)
        for a in args:
            a.grad = None
        out = op(x, *args)
        outs.append(out.data)
        tsum(out * Tensor(np.arange(out.data.size).reshape(out.shape) % 7 - 3.0,
                          dtype=np.float64)).backward()
        grads.append([x.grad] + [a.grad for a in args])
    return (np.stack(outs), np.stack([g[0] for g in grads]),
            [sum(g[i] for g in grads) for i in range(1, len(args) + 1)])


def batched(op, batch, *args):
    """``op`` on the whole ``batch`` in one call, probed as ``per_sample_oracle`` does."""
    x = Tensor(batch, requires_grad=True, dtype=np.float64)
    for a in args:
        a.grad = None
    out = op(x, *args)
    probe = np.arange(out.data[0].size).reshape(out.shape[1:]) % 7 - 3.0
    tsum(out * Tensor(np.broadcast_to(probe, out.shape).copy(), dtype=np.float64)).backward()
    return out.data, x.grad, [a.grad for a in args]


def assert_batch_matches_samples(op, batch, *args):
    want_out, want_dx, want_dargs = per_sample_oracle(op, batch, *args)
    got_out, got_dx, got_dargs = batched(op, batch, *args)
    assert_relative_close(got_out, want_out, 1e-12)
    assert_relative_close(got_dx, want_dx, 1e-12)
    for got, want in zip(got_dargs, want_dargs):
        assert_relative_close(got, want, 1e-12)


@pytest.mark.parametrize("k,dilation,c_in,c_out", [
    pytest.param(k, dilation, c_in, c_out, id=f"{k}-{dilation}{_channel_id(c_in, c_out)}")
    for c_in, c_out in CHANNELS for k, dilation in [(1, 1), (3, 1), (3, 2), (5, 1)]])
def test_conv2d_batch_matches_separate_samples(k, dilation, c_in, c_out):
    rng = np.random.RandomState(k * 100 + dilation + 7)
    batch = rng.uniform(-1, 1, (3, c_in, 9, 8))
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, k, k)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.uniform(-1, 1, c_out), requires_grad=True, dtype=np.float64)
    assert_batch_matches_samples(lambda x, w, b: conv2d(x, w, b, dilation=dilation),
                                 batch, w, b)
    assert conv2d(Tensor(batch), w, b).shape == (3, c_out, 9, 8)


# A single sample carries no id suffix; an N = 2 batch ends in "-batch2".
@pytest.mark.parametrize("c_in,c_out,batch", [
    pytest.param(c_in, c_out, batch, id=f"{c_in}-{c_out}" + ("-batch2" if batch else ""))
    for batch in [(), (2,)] for c_in, c_out in [(48, 16), (16, 48)]])
def test_conv2d_tape_keeps_no_column_buffer(c_in, c_out, batch):
    # Until backward the tape holds the unpadded input, which its Tensor owns
    # already, not the c_in*k*k-row columns (9x the input) or per-tap outputs.
    # A 64 px sample here is too large to share a column tile (G = 1), so the
    # forward pads and correlates one sample at a time, over column tiles, and
    # its transient (one padded sample and its GEMM tiles) stays under 1.5x one
    # sample's k*k*min(c_in, c_out)*H*(W+2) floats whatever the batch.
    rng = np.random.RandomState(9)
    x = Tensor(rng.uniform(-1, 1, batch + (c_in, 64, 64)), requires_grad=True,
               dtype=np.float32)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, 3, 3)), requires_grad=True, dtype=np.float32)
    tracemalloc.start()
    try:
        out = conv2d(x, w)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - out.data.nbytes < 1.5 * x.data.nbytes
    assert peak - held < 1.5 * 3 * 3 * min(c_in, c_out) * 64 * 66 * 4


@pytest.mark.parametrize("train_kernel", [True, False], ids=["trained", "frozen"])
def test_conv2d_tape_holds_no_padded_copy(train_kernel):
    # With the caller's reference to the input gone, the tape holds the output
    # and, only for the kernel gradient, the input itself: no padded copy.
    rng = np.random.RandomState(12)
    leaf = Tensor(rng.uniform(-1, 1, (2, 16, 64, 64)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.uniform(-1, 1, (16, 16, 3, 3)), requires_grad=train_kernel, dtype=np.float32)
    g = rng.uniform(-1, 1, (2, 16, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        x = leaf * 1.0                       # an intermediate: only the tape can hold it
        out = conv2d(x, w)
        del x
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = leaf.data.nbytes if train_kernel else 0
    assert abs(held - kept - out.data.nbytes) < leaf.data.nbytes // 50
    tsum(out * Tensor(g)).backward()
    # The input gradient reads only the kernel, so freezing it changes no byte.
    trained = Tensor(leaf.data, requires_grad=True)
    tsum(conv2d(trained, Tensor(w.data, requires_grad=True)) * Tensor(g)).backward()
    assert leaf.grad.tobytes() == trained.grad.tobytes()


def conv2d_backward_peak(batch, c_in, c_out, k, side, train_kernel=True):
    """tracemalloc peak of one narrowing conv2d backward, less the input
    gradient of every sample after the first."""
    rng = np.random.RandomState(8)
    x = Tensor(rng.uniform(-1, 1, batch + (c_in, side, side)), requires_grad=True,
               dtype=np.float32)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, k, k)), requires_grad=train_kernel,
               dtype=np.float32)
    loss = tsum(conv2d(x, w))
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    n = batch[0] if batch else 1
    return peak - (n - 1) * x.grad.nbytes // n


def test_conv2d_backward_peaks_below_one_input_column_buffer():
    # The input gradient gathers the output gradient (C_out rows per tap),
    # so a narrowing layer never holds a second C_in*k*k*H*W buffer.
    c_in, c_out, k, side = 48, 16, 3, 64
    assert conv2d_backward_peak((), c_in, c_out, k, side) < 0.6 * c_in * k * k * side * side * 4


def test_conv2d_batch_backward_peaks_below_one_sample_column_buffer():
    # A 64 px sample is too large to share a column tile (G = 1), so the
    # backward pads and walks one sample at a time, its kernel-gradient GEMMs
    # run per sample and the input gradient's per column tile: beyond the input
    # gradient of the second sample, a batch of two peaks under the one-sample
    # bound.
    c_in, c_out, k, side = 48, 16, 3, 64
    assert conv2d_backward_peak((2,), c_in, c_out, k, side) < 0.6 * c_in * k * k * side * side * 4


def _tile_budget(c_in, c_out):
    """The byte budget of the tiles of a c_in -> c_out correlation."""
    return convnn._COLUMN_TILE_BYTES if c_in <= c_out else convnn._TAP_TILE_BYTES


@pytest.mark.parametrize("c_in,c_out", [(48, 16), (16, 48)])
def test_conv2d_forward_scratch_is_bounded_by_the_tile(c_in, c_out):
    # The forward keeps only the cropped output, made after its peak. At the
    # peak it holds, transiently, the sample's padded copy, the uncropped
    # output rows and its GEMM scratch. So the peak less what it keeps, the
    # padded copy and the rows is the scratch less one output: at most one
    # tile, with the per-tap rows' 2(258 + 1)-column halo when C_i > C_o (every
    # tile reuses one product buffer), against 24-33 MiB for one GEMM over the
    # whole 256x256 sample.
    rng = np.random.RandomState(9)
    x = Tensor(rng.uniform(-1, 1, (c_in, 256, 256)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, 3, 3)), requires_grad=True, dtype=np.float32)
    tracemalloc.start()
    try:
        out = conv2d(x, w)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    padded = c_in * (258 * 258 + 2) * 4
    rows = c_out * 256 * 258 * 4
    assert held - out.data.nbytes < padded // 100
    halo = 9 * c_out * 2 * 259 * 4 if c_in > c_out else 0
    assert peak - held - padded - rows < _tile_budget(c_in, c_out) + halo


def test_conv2d_backward_scratch_is_bounded_by_the_tile():
    # Beyond the input gradient, the backward holds the padded output gradient
    # and the input-gradient correlation's column tiles (40.5 MiB untiled).
    # The tape keeps the input unpadded, so a trained kernel's gradient also
    # pads each input sample while its taps are read; a frozen kernel's
    # backward pads no input.
    c_in, c_out, side = 48, 16, 256
    padded_input = c_in * ((side + 2) ** 2 + 2) * 4
    bound = c_out * side * side * 4 + 2 * _tile_budget(c_out, c_in)
    frozen = conv2d_backward_peak((), c_in, c_out, 3, side, train_kernel=False)
    assert frozen - c_in * side * side * 4 < bound
    peak = conv2d_backward_peak((), c_in, c_out, 3, side)
    assert peak - c_in * side * side * 4 < bound + padded_input


@pytest.mark.parametrize("c_in,c_out,dilation", [(48, 16, 1), (16, 16, 2)],
                         ids=["dec1", "enc1.dil"])
def test_conv2d_kernel_gradient_scratch_is_bounded_by_its_tile(c_in, c_out, dilation):
    # A frozen input's backward computes only the kernel gradient. It holds
    # the output gradient, its padded copy and the input's, and the kernel
    # gradient; beyond them, each tile's k*k products and the sample's running
    # sum: under one kernel-gradient tile, against the k*k*C_in*H*W values
    # that a copy of the whole sample's tap columns would take (108 or 36 MiB).
    side, k = 256, 3
    p = dilation * (k - 1) // 2
    rng = np.random.RandomState(10)
    x = Tensor(rng.uniform(-1, 1, (1, c_in, side, side)), dtype=np.float32)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, k, k)), requires_grad=True, dtype=np.float32)
    probe = Tensor(rng.uniform(-1, 1, (1, c_out, side, side)), dtype=np.float32)
    loss = tsum(conv2d(x, w, dilation=dilation) * probe)
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == w.shape
    padded = (c_in + c_out) * ((side + 2 * p) ** 2 + 2 * p * (side + 2 * p + 1)) * 4
    assert peak - c_out * side * side * 4 - padded - w.grad.nbytes < convnn._DW_TILE_BYTES


@pytest.mark.parametrize("c_in,batch", [(1, 1), (1, 2), (2, 1), (2, 2)],
                         ids=["columns", "columns-batch2", "per-tap", "per-tap-batch2"])
def test_conv2d_forward_of_a_small_sample_peaks_within_a_few_padded_inputs(c_in, batch):
    # With C_out = 1 an 8x8 sample is a small part of a tile: 145 (C_in = 1) or
    # 582 (C_in = 2) padded samples would fit one. The forward's stacked rows
    # are for the samples there are, not for as many as a tile could hold. Its
    # scratch is the padded map, the k*k tap copies of it (or per-tap rows),
    # and the stacked and final rows: under 2*(k*k + 3) padded inputs.
    rng = np.random.RandomState(13)
    x = Tensor(rng.uniform(-1, 1, (batch, c_in, 8, 8)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (1, c_in, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        out = conv2d(x, w)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (batch, 1, 8, 8)
    assert peak - held < 2 * (9 + 3) * batch * c_in * 10 * 10 * 8


BATCH_SHAPES = {"3to4": (3, 4, 3, 1), "4to4-dil2": (4, 4, 3, 2), "12to4": (12, 4, 3, 1),
                "1x1-4to8": (4, 8, 1, 1)}


@pytest.mark.parametrize("c_in,c_out,k,dilation,n,group", [
    pytest.param(*shape, n, group, id=f"{name}-{n}{label}")
    for name, shape in BATCH_SHAPES.items() for n in (4, 3, 2)
    for group, label in ((None, ""), (1, "-alone"), (2, "-pairs")) if shape[2] > 1 or not group])
def test_conv2d_float32_batch_is_byte_identical_to_separate_samples(monkeypatch, c_in, c_out, k,
                                                                    dilation, n, group):
    # The convs of a 32 px (4, 8) base. Two to four 32 px samples share one
    # stacked walk, forward and input gradient, and a 1x1 kernel is one GEMM
    # per sample; each gives the bytes of one-sample calls. The kernel
    # gradient is their sum, added in sample order: each sample fits one
    # kernel-gradient tile here, and, with the budget shrunk to 8 KiB, a 3x3
    # kernel's sample crosses 4 to 9 of them, the last one ragged.
    # With ``group`` set, the column and per-tap budgets give tiles of exactly
    # ``group`` padded samples, so the samples walk alone or in pairs, the
    # last pair of an odd batch one sample short. Either budget prices one
    # column at k*k*min(C_in, C_out) floats, forward and input gradient alike.
    if group is not None:
        span = (32 + dilation * (k - 1)) ** 2
        budget = group * span * k * k * min(c_in, c_out) * 4
        monkeypatch.setattr(convnn, "_COLUMN_TILE_BYTES", budget)
        monkeypatch.setattr(convnn, "_TAP_TILE_BYTES", budget)
    walks = []          # the samples in each walk of the forward
    pad_flat = convnn._pad_flat
    monkeypatch.setattr(convnn, "_pad_flat", lambda a, p: walks.append(len(a)) or pad_flat(a, p))
    conv2d(Tensor(np.zeros((n, c_in, 32, 32), np.float32)),
           Tensor(np.zeros((c_out, c_in, k, k), np.float32)), dilation=dilation)
    step = group or n
    assert walks == ([] if k == 1 else [min(step, n - n0) for n0 in range(0, n, step)])
    assert_batch_bytes_match_samples(c_in, c_out, k, dilation, n)
    monkeypatch.setattr(convnn, "_DW_TILE_BYTES", 8 << 10)
    assert_batch_bytes_match_samples(c_in, c_out, k, dilation, n)


def assert_batch_bytes_match_samples(c_in, c_out, k, dilation, n):
    rng = np.random.RandomState(32)
    batch = rng.uniform(-1, 1, (n, c_in, 32, 32)).astype(np.float32)
    w = rng.uniform(-1, 1, (c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-1, 1, c_out).astype(np.float32)
    g = rng.uniform(-1, 1, (n, c_out, 32, 32)).astype(np.float32)

    def run(x, probe):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, Tensor(b), dilation=dilation)
        tsum(out * Tensor(probe)).backward()
        return out.data, xt.grad, wt.grad

    out, dx, dw = run(batch, g)
    parts = [run(x[None], probe[None]) for x, probe in zip(batch, g)]
    assert out.tobytes() == np.concatenate([part[0] for part in parts]).tobytes()
    assert dx.tobytes() == np.concatenate([part[1] for part in parts]).tobytes()
    want_dw = parts[0][2]
    for part in parts[1:]:
        want_dw = want_dw + part[2]
    assert dw.tobytes() == want_dw.tobytes()


@pytest.mark.parametrize("budget", [None, 7 << 10], ids=["one-tile", "tiles"])
def test_conv2d_kernel_gradient_is_its_tiles_matmuls_summed_in_column_order(monkeypatch, budget):
    # A 32 px sample of 8 + 8 channels is 72 KiB of output-gradient and input
    # columns, within one kernel-gradient tile: its dW is one matmul of the
    # k*k per-tap GEMMs over the whole sample, byte for byte. With the budget
    # shrunk to 7 KiB, it crosses 11 tiles of 112 columns, the last of 32, and
    # its dW is their matmuls summed in column order.
    c_in, c_out, k, dilation, side = 8, 8, 3, 2, 32
    p = dilation * (k - 1) // 2
    wp = side + 2 * p
    if budget is None:
        assert (c_in + c_out) * 4 * side * wp <= convnn._DW_TILE_BYTES
        m = side * wp
    else:
        monkeypatch.setattr(convnn, "_DW_TILE_BYTES", budget)
        m = budget // ((c_in + c_out) * 4)
    rng = np.random.RandomState(33)
    x = rng.uniform(-1, 1, (c_in, side, side)).astype(np.float32)
    w = rng.uniform(-1, 1, (c_out, c_in, k, k)).astype(np.float32)
    g = rng.uniform(-1, 1, (c_out, side, side)).astype(np.float32)
    wt = Tensor(w, requires_grad=True)
    tsum(conv2d(Tensor(x), wt, dilation=dilation) * Tensor(g)).backward()
    # Rows over the padded width: g with 2p zero columns on the right, and x
    # padded with one more bottom row for the last taps' wrap-around columns.
    g_wp = np.pad(g, ((0, 0), (0, 0), (0, 2 * p))).reshape(c_out, side * wp)
    x_flat = np.pad(x, ((0, 0), (p, p + 1), (p, p))).reshape(c_in, -1)
    s0, s1 = x_flat.strides
    taps = np.lib.stride_tricks.as_strided(x_flat, (k, k, side * wp, c_in),
                                           (dilation * wp * s1, dilation * s1, s1, s0))
    want = np.matmul(g_wp[:, :m], taps[:, :, :m])
    for t0 in range(m, side * wp, m):
        want += np.matmul(g_wp[:, t0:t0 + m], taps[:, :, t0:t0 + m])
    assert wt.grad.tobytes() == want.transpose(2, 3, 0, 1).tobytes()


@pytest.mark.parametrize("k", [3, 1])
def test_conv2d_of_an_empty_batch_gives_zero_gradients_of_the_parameters_shapes(k):
    x = Tensor(np.zeros((0, 2, 5, 5)), requires_grad=True)
    w = Tensor(np.ones((3, 2, k, k)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = conv2d(x, w, b)
    assert out.shape == (0, 3, 5, 5)
    tsum(out).backward()
    assert x.grad.shape == (0, 2, 5, 5)
    assert w.grad.shape == (3, 2, k, k) and not w.grad.any()
    assert b.grad.shape == (3,) and not b.grad.any()


def test_same_padding_preserves_extent():
    rng = np.random.RandomState(0)
    x = Tensor(rng.uniform(-1, 1, (2, 7, 11)))
    w = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)))
    assert conv2d(x, w).shape == (4, 7, 11)
    assert conv2d(x, w, dilation=2).shape == (4, 7, 11)      # dilation 2, pad 2
    np.testing.assert_allclose(conv2d(x, w).data,
                               conv_oracle(x.data, w.data, padding=1), atol=1e-6)


def test_dilated_taps_skip_pixels():
    # single-channel impulse: dilation-2 taps land 2 pixels apart
    x = np.zeros((1, 7, 7))
    x[0, 3, 3] = 1.0
    w = np.zeros((1, 1, 3, 3))
    w[0, 0] = np.arange(9, dtype=float).reshape(3, 3)
    out = conv2d(Tensor(x), Tensor(w), dilation=2).data[0]
    assert out[3, 3] == 4.0                   # center tap
    assert out[1, 1] == 8.0                   # impulse under the last tap
    assert out[2, 2] == 0.0                   # between taps: nothing
    np.testing.assert_allclose(out[1::2, 1::2].ravel(), np.arange(9)[::-1])


def test_conv2d_validation_errors():
    x = Tensor(np.zeros((2, 6, 6)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((6, 6))), w)
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 4, 3, 3))))                  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 2, 3, 2))))                  # non-square
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 2, 2, 2))))                  # same pad needs odd k
    with pytest.raises(ShapeError, match="dilation 0 "):
        conv2d(x, w, dilation=0)
    with pytest.raises(ShapeError, match="dilation 2.0 "):
        conv2d(x, w, dilation=2.0)
    with pytest.raises(ShapeError, match="dilation True "):
        conv2d(x, w, dilation=True)                                # a bool is not an integer
    assert conv2d(x, w, dilation=np.int64(2)).shape == (3, 6, 6)
    for shape in [(2, 0, 6), (2, 6, 0), (1, 2, 6, 0)]:             # an empty extent
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            conv2d(Tensor(np.zeros(shape)), w)
    with pytest.raises(ShapeError, match=r"\(0, 6, 6\)"):          # no channels
        conv2d(Tensor(np.zeros((0, 6, 6))), Tensor(np.zeros((3, 0, 3, 3))))
    with pytest.raises(ShapeError, match=r"\(0, 2, 3, 3\)"):
        conv2d(x, Tensor(np.zeros((0, 2, 3, 3))))


def test_conv2d_is_linear_in_the_input():
    rng = np.random.RandomState(2)
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), dtype=np.float64)
    x = rng.uniform(-1, 1, (2, 6, 6))
    y = rng.uniform(-1, 1, (2, 6, 6))
    a, b = 1.7, -0.4
    mixed = conv2d(Tensor(a * x + b * y, dtype=np.float64), w).data
    parts = a * conv2d(Tensor(x, dtype=np.float64), w).data \
        + b * conv2d(Tensor(y, dtype=np.float64), w).data
    np.testing.assert_allclose(mixed, parts, atol=1e-10)


# ---- pooling and upsampling -------------------------------------------------


def test_maxpool2_hand_case_and_gradient_routing():
    x = Tensor(np.array([[[1.0, 2.0, 5.0, 1.0],
                          [3.0, 0.0, 2.0, 2.0],
                          [7.0, 7.0, 1.0, 1.0],
                          [6.0, 5.0, 1.0, 1.0]]]), requires_grad=True)
    out = maxpool2(x)
    np.testing.assert_array_equal(out.data, [[[3.0, 5.0], [7.0, 1.0]]])
    tsum(out).backward()
    # ties route to the first window cell in row-major order
    np.testing.assert_array_equal(x.grad, [[[0, 0, 1, 0],
                                            [1, 0, 0, 0],
                                            [1, 0, 1, 0],
                                            [0, 0, 0, 0]]])


def test_maxpool2_requires_even_extent():
    with pytest.raises(ShapeError):
        maxpool2(Tensor(np.zeros((1, 5, 4))))
    with pytest.raises(ShapeError):
        maxpool2(Tensor(np.zeros((4, 4))))


def test_upsample2_hand_case_and_gradient_sums():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
    out = upsample2(x)
    np.testing.assert_array_equal(out.data, [[[1, 1, 2, 2],
                                              [1, 1, 2, 2],
                                              [3, 3, 4, 4],
                                              [3, 3, 4, 4]]])
    tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [[[4.0, 4.0], [4.0, 4.0]]])


def test_tape_frees_an_upsample_output_once_concat_has_copied_it():
    # Only concat reads upsample2's output, and it copies it: while the loss's
    # tape is alive, nothing holds the upsampled array.
    rng = np.random.RandomState(4)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
    skip = Tensor(rng.uniform(-1, 1, (2, 2, 8, 8)), requires_grad=True, dtype=np.float64)
    up = upsample2(x)
    upsampled = weakref.ref(up.data)
    joined = concat([up, skip], axis=1)
    loss = tsum(joined * joined)
    del up, joined
    assert upsampled() is None
    loss.backward()
    want = 2 * upsample2(Tensor(x.data)).data
    np.testing.assert_array_equal(x.grad, sum(want[..., i::2, j::2] for i in (0, 1) for j in (0, 1)))


def test_maxpool_of_upsample_is_identity():
    rng = np.random.RandomState(3)
    x = rng.uniform(-5, 5, (3, 6, 7))
    np.testing.assert_array_equal(maxpool2(upsample2(Tensor(x))).data, x)


def maxpool_loop_oracle(x, g):
    """Pooled values and the input gradient, routing each window's gradient to
    its first maximum in row-major order."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    dx = np.zeros_like(x)
    for s in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
                    best = cells[0]
                    for cell in cells[1:]:
                        if x[s, ch][cell] > x[s, ch][best]:
                            best = cell
                    out[s, ch, i, j] = x[s, ch][best]
                    dx[s, ch][best] = g[s, ch, i, j]
    return out, dx


def test_maxpool2_with_tied_windows_matches_loop_oracle():
    # Small integers tie often: windows with two, three and four equal maxima.
    rng = np.random.RandomState(10)
    x = rng.randint(0, 3, (3, 2, 6, 8)).astype(np.float64)
    x[0, 0, :2, :2] = 2.0                          # a four-way tie
    g = rng.uniform(-1, 1, (3, 2, 3, 4))
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = maxpool2(t)
    tsum(out * Tensor(g, dtype=np.float64)).backward()
    want_out, want_dx = maxpool_loop_oracle(x, g)
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(t.grad, want_dx)


def test_maxpool2_and_upsample2_batches_match_separate_samples():
    rng = np.random.RandomState(11)
    ties = rng.randint(0, 3, (2, 3, 6, 4)).astype(np.float64)
    assert_batch_matches_samples(maxpool2, ties)
    assert_batch_matches_samples(maxpool2, rng.uniform(-1, 1, (3, 2, 4, 6)))
    assert_batch_matches_samples(upsample2, rng.uniform(-1, 1, (3, 2, 3, 5)))


# ---- losses -----------------------------------------------------------------


def bce_oracle(pred, target):
    total = 0.0
    for p, t in zip(pred.ravel(), target.ravel()):
        p = min(max(p, 1e-12), 1 - 1e-12)
        total += t * math.log(p) + (1 - t) * math.log(1 - p)
    return -total / pred.size


def test_bce_perfect_prediction_is_zero_up_to_clamp():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    loss = bce_loss(Tensor(target, dtype=np.float64), Tensor(target, dtype=np.float64))
    assert 0.0 <= loss.item() <= 1e-11


def test_bce_at_half_is_ln_two():
    pred = Tensor(np.full((5, 5), 0.5, dtype=np.float64))
    target = Tensor((np.arange(25).reshape(5, 5) % 2).astype(np.float64))
    assert loss_close(bce_loss(pred, target).item(), math.log(2.0))


def loss_close(got, want, tol=1e-10):
    return abs(got - want) <= tol


def test_bce_matches_scalar_loop_oracle():
    rng = np.random.RandomState(4)
    for _ in range(20):
        pred = rng.uniform(0.02, 0.98, (6, 6))
        target = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(float)
        got = bce_loss(Tensor(pred, dtype=np.float64),
                       Tensor(target, dtype=np.float64)).item()
        assert loss_close(got, bce_oracle(pred, target))
        assert got >= 0.0


def test_bce_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        bce_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        dice_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_dice_perfect_overlap_is_near_zero():
    ones = Tensor(np.ones((8, 8), dtype=np.float64))
    assert abs(dice_loss(ones, ones).item()) < 1e-7


def test_dice_disjoint_is_near_one():
    pred = np.zeros(16); pred[:4] = 1.0
    target = np.zeros(16); target[8:12] = 1.0
    loss = dice_loss(Tensor(pred, dtype=np.float64), Tensor(target, dtype=np.float64))
    assert abs(loss.item() - 1.0) < 1e-6


def test_dice_half_overlap_is_about_half():
    pred = np.zeros(32); pred[:8] = 1.0
    target = np.zeros(32); target[4:12] = 1.0      # 4 of 8 overlap
    loss = dice_loss(Tensor(pred, dtype=np.float64), Tensor(target, dtype=np.float64))
    assert loss_close(loss.item(), 0.5, tol=1e-6)


def test_dice_empty_prediction_and_target_bottoms_out_at_minus_one():
    # With both sums zero the ratio is 2(0+eps)/(0+eps): the loss rewards a
    # correctly empty prediction with its minimum value.
    zeros = Tensor(np.zeros((4, 4), dtype=np.float64))
    assert loss_close(dice_loss(zeros, zeros).item(), -1.0, tol=1e-12)


def test_dice_decreases_as_prediction_blends_toward_target():
    rng = np.random.RandomState(5)
    for _ in range(100):
        pred = rng.uniform(0, 1, (5, 5))
        target = (rng.uniform(0, 1, (5, 5)) > 0.4).astype(float)
        if target.sum() == 0:
            continue
        losses = []
        for lam in np.linspace(0, 1, 6):
            blend = lam * target + (1 - lam) * pred
            losses.append(dice_loss(Tensor(blend, dtype=np.float64),
                                    Tensor(target, dtype=np.float64)).item())
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12


def test_losses_pass_grad_check_at_saturation():
    rng = np.random.RandomState(6)
    target = Tensor((rng.uniform(0, 1, (4, 4)) > 0.5).astype(float), dtype=np.float64)
    for level in (0.001, 0.5, 0.999):
        pred = Tensor(np.full((4, 4), level), dtype=np.float64)
        assert grad_check(lambda p: bce_loss(p, target), [pred]) < 1e-5
        pred2 = Tensor(np.full((4, 4), level), dtype=np.float64)
        assert grad_check(lambda p: dice_loss(p, target), [pred2]) < 1e-5


def test_dice_of_a_batch_is_the_mean_of_per_sample_dice():
    rng = np.random.RandomState(12)
    pred = rng.uniform(0, 1, (3, 1, 5, 6))
    target = (rng.uniform(0, 1, (3, 1, 5, 6)) > 0.5).astype(float)
    target[2] = 0.0                                  # an empty mask weighs as one sample
    got = dice_loss(Tensor(pred, dtype=np.float64), Tensor(target, dtype=np.float64)).item()
    each = [dice_loss(Tensor(p, dtype=np.float64), Tensor(t, dtype=np.float64)).item()
            for p, t in zip(pred, target)]
    assert loss_close(got, sum(each) / 3, tol=1e-12)
    pooled = dice_loss(Tensor(pred.ravel(), dtype=np.float64),
                       Tensor(target.ravel(), dtype=np.float64)).item()
    assert abs(got - pooled) > 0.01
    pt = Tensor(pred, requires_grad=True, dtype=np.float64)
    dice_loss(pt, Tensor(target, dtype=np.float64)).backward()
    for p, t, grad in zip(pred, target, pt.grad):
        one = Tensor(p, requires_grad=True, dtype=np.float64)
        dice_loss(one, Tensor(t, dtype=np.float64)).backward()
        assert_relative_close(grad, one.grad / 3, 1e-12)


def test_conv_pool_upsample_pass_grad_check():
    rng = np.random.RandomState(7)
    x = Tensor(rng.uniform(-1, 1, (2, 6, 6)), dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), dtype=np.float64)
    b = Tensor(rng.uniform(-1, 1, 3), dtype=np.float64)
    probe = rng.uniform(-1, 1, (3, 6, 6))

    def loss(x, w, b):
        return tsum(conv2d(x, w, b) * Tensor(probe, dtype=np.float64))
    assert grad_check(loss, [x, w, b]) < 1e-5

    x2 = Tensor(rng.uniform(-1, 1, (2, 4, 4)), dtype=np.float64)
    probe2 = rng.uniform(-1, 1, (2, 2, 2))
    assert grad_check(lambda t: tsum(maxpool2(t) * Tensor(probe2, dtype=np.float64)),
                      [x2]) < 1e-5
    probe3 = rng.uniform(-1, 1, (2, 8, 8))
    assert grad_check(lambda t: tsum(upsample2(t) * Tensor(probe3, dtype=np.float64)),
                      [x2]) < 1e-5

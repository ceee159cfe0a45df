"""Generated checks of conv2d against the loop oracles of test_convnn.

Each draw picks a batch, channel counts, an extent, a kernel, a dilation, a
float width and the two tile budgets. Half the draws set the budgets
log-uniformly from 64 bytes, where every walk crosses many one-column tiles,
to 64 MiB, where one walk covers the whole batch; the other half size the
forward's tiles to hold 1 to N padded samples, so a stacked walk of G
samples takes every G from 1 to N.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floodseg import convnn
from floodseg.convnn import conv2d
from floodseg.tensor import Tensor, tsum
from test_convnn import assert_relative_close, conv_backward_oracle, conv_oracle

# (forward atol, gradient rtol) against the float64 oracles. The float64 pair
# is test_convnn's. A float32 output sums up to C_in*k*k = 150 rounded
# products of values in [-1, 1].
TOLERANCES = {np.float64: (1e-10, 1e-12), np.float32: (1e-5, 1e-5)}


@st.composite
def conv_cases(draw):
    """(x, weight, bias, probe, dilation, budgets) for one conv2d call."""
    n, c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    h, w = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    k, dilation = draw(st.sampled_from([3, 5, 1])), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        budgets = (1 << draw(st.integers(6, 26)), 1 << draw(st.integers(6, 26)))
    else:       # the forward's tile holds 1 to n padded samples, and part of one more
        span = (h + dilation * (k - 1)) * (w + dilation * (k - 1))
        columns = draw(st.integers(1, n)) * span + draw(st.integers(0, span - 1))
        operand_rows = c_in * k * k if c_in <= c_out else k * k * c_out
        budgets = (columns * operand_rows * np.dtype(dtype).itemsize,) * 2
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    x = rng.uniform(-1, 1, (n, c_in, h, w)).astype(dtype)
    weight = rng.uniform(-1, 1, (c_out, c_in, k, k)).astype(dtype)
    bias = rng.uniform(-1, 1, c_out).astype(dtype)
    return x, weight, bias, rng.uniform(-1, 1, (n, c_out, h, w)).astype(dtype), dilation, budgets


def run_conv(case, backward):
    """conv2d of ``case`` under its tile budgets: the output, and with ``backward``
    the input and kernel gradients of the probe-weighted sum."""
    x, weight, bias, probe, dilation, budgets = case
    with patch.object(convnn, "_COLUMN_TILE_BYTES", budgets[0]), \
            patch.object(convnn, "_TAP_TILE_BYTES", budgets[1]):
        xt, wt = Tensor(x, requires_grad=True), Tensor(weight, requires_grad=True)
        out = conv2d(xt, wt, Tensor(bias), dilation=dilation)
        if backward:
            tsum(out * Tensor(probe)).backward()
    assert out.data.dtype == x.dtype
    return out.data, xt.grad, wt.grad


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(conv_cases())
def test_conv2d_forward_matches_the_loop_oracle(case):
    x, weight, bias, _, dilation, _ = case
    got, _, _ = run_conv(case, backward=False)
    p = dilation * (weight.shape[2] - 1) // 2
    want = np.stack([conv_oracle(s.astype(np.float64), weight.astype(np.float64), bias,
                                 dilation=dilation, padding=p) for s in x])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=TOLERANCES[x.dtype.type][0])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(conv_cases())
def test_conv2d_gradients_match_the_tap_loop_oracle(case):
    x, weight, _, probe, dilation, _ = case
    _, dx, dw = run_conv(case, backward=True)
    oracle = [conv_backward_oracle(s.astype(np.float64), weight.astype(np.float64),
                                   g.astype(np.float64), dilation) for s, g in zip(x, probe)]
    rtol = TOLERANCES[x.dtype.type][1]
    assert_relative_close(dx, np.stack([d for d, _ in oracle]), rtol)
    assert_relative_close(dw, sum(d for _, d in oracle), rtol)

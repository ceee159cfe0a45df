"""Generated checks of the strided and tiled kernels against loop and dense
oracles.

``conv2d`` is checked against the loop oracles of test_convnn. Each draw
picks a batch, channel counts, an extent, a kernel, a dilation, a float
width and the three tile budgets. Half the draws set the budgets
log-uniformly from 64 bytes, where every walk crosses many one-column tiles,
to 64 MiB, where one walk covers the whole batch; the other half size the
forward's tiles to hold 1 to N padded samples, so a stacked walk of G
samples takes every G from 1 to N, and the kernel gradient's tiles to hold 1
to H*(W+2p) columns, so that most of those draws cross several of them.

``maxpool2`` is checked on maps of a few integer levels, so that most
windows tie, against a loop whose gradient goes to the first maximum in
row-major window order; ``upsample2`` against ``np.repeat``, with its
gradient as the 2x2 block sums; and ``neighbour_sum`` on random graphs with
isolated nodes against the dense product and the loop gradients of
test_graphnn.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floodseg import convnn
from floodseg.convnn import conv2d, maxpool2, upsample2
from floodseg.graphnn import Graph, neighbour_sum
from floodseg.tensor import Tensor, tsum
from test_convnn import (assert_relative_close, conv_backward_oracle, conv_oracle,
                         maxpool_loop_oracle)
from test_graphnn import assert_relative, scattered

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
    itemsize = np.dtype(dtype).itemsize
    if draw(st.booleans()):
        budgets = (1 << draw(st.integers(6, 26)), 1 << draw(st.integers(6, 26)),
                   int(2 ** draw(st.floats(6, 26))))
    else:       # the forward's tile holds 1 to n padded samples, and part of one more
        wp = w + dilation * (k - 1)
        span = (h + dilation * (k - 1)) * wp
        columns = draw(st.integers(1, n)) * span + draw(st.integers(0, span - 1))
        operand_rows = c_in * k * k if c_in <= c_out else k * k * c_out
        dw_columns = draw(st.integers(1, h * wp))
        budgets = (columns * operand_rows * itemsize,) * 2 + \
            (dw_columns * (c_in + c_out) * itemsize,)
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
            patch.object(convnn, "_TAP_TILE_BYTES", budgets[1]), \
            patch.object(convnn, "_DW_TILE_BYTES", budgets[2]):
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



def one_or_batch(draw, *arrays):
    """The (N, C, H, W) ``arrays``, or each one's first sample as a (C, H, W) map."""
    return tuple(a[0] for a in arrays) if draw(st.booleans()) else arrays


@st.composite
def pool_cases(draw):
    """(x, probe) for one maxpool2 call: an even-sided map of 1 to 8 integer
    levels, so that most windows tie, and one level ties every window."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = 2 * draw(st.integers(1, 6)), 2 * draw(st.integers(1, 6))
    levels = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    x = rng.randint(0, levels, (n, c, h, w)).astype(dtype)
    return one_or_batch(draw, x, rng.uniform(-1, 1, (n, c, h // 2, w // 2)).astype(dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pool_cases())
def test_maxpool2_routes_each_window_to_its_first_maximum(case):
    x, probe = case
    xt = Tensor(x, requires_grad=True)
    out = maxpool2(xt)
    tsum(out * Tensor(probe)).backward()
    want_out, want_dx = maxpool_loop_oracle(x.reshape((-1,) + x.shape[-3:]),
                                            probe.reshape((-1,) + probe.shape[-3:]))
    assert out.data.dtype == x.dtype
    np.testing.assert_array_equal(out.data, want_out.reshape(probe.shape))
    np.testing.assert_array_equal(xt.grad, want_dx.reshape(x.shape))


@st.composite
def upsample_cases(draw):
    """(x, probe) for one upsample2 call of any extent. The probe is integer-valued,
    so that its 2x2 block sums are exact in any order."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    return one_or_batch(draw, rng.uniform(-1, 1, (n, c, h, w)).astype(dtype),
                        rng.randint(-8, 9, (n, c, 2 * h, 2 * w)).astype(dtype))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(upsample_cases())
def test_upsample2_repeats_each_pixel_and_sums_each_block(case):
    x, probe = case
    xt = Tensor(x, requires_grad=True)
    out = upsample2(xt)
    assert out.data.dtype == x.dtype
    np.testing.assert_array_equal(out.data, x.repeat(2, axis=-2).repeat(2, axis=-1))
    tsum(out * Tensor(probe)).backward()
    h, w = x.shape[-2:]
    np.testing.assert_array_equal(
        xt.grad, probe.reshape(probe.shape[:-2] + (h, 2, w, 2)).sum(axis=(-3, -1)))


@st.composite
def graph_cases(draw):
    """(graph, w, x, probe) for one float64 neighbour_sum call. The graph has 1 to
    24 nodes, and its edges join only its first m, relabelled by a drawn
    permutation, so that the other n - m are isolated wherever they fall. The
    weights are random in every slot, the spare ones included."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, n))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    label = rng.permutation(n).tolist()
    ends = rng.randint(0, m, (draw(st.integers(0, 3 * m)), 2)).tolist()
    graph = Graph(n, sorted({tuple(sorted((label[u], label[v]))) for u, v in ends if u != v}))
    f = draw(st.integers(1, 4))
    return (graph,) + tuple(rng.uniform(-1, 1, shape)
                            for shape in [graph.index.shape, (n, f), (n, f)])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graph_cases())
def test_neighbour_sum_matches_the_dense_product_and_the_loop_gradients(case):
    graph, w, x, probe = case
    index = graph.index
    wt, xt = Tensor(w, requires_grad=True), Tensor(x, requires_grad=True)
    out = neighbour_sum(wt, xt, graph)
    assert_relative(out.data, scattered(w, index) @ x)
    tsum(out * Tensor(probe)).backward()
    dw, dx = np.zeros_like(w), np.zeros_like(x)
    for i, d in np.ndindex(index.shape):
        dw[i, d] = probe[i] @ x[index[i, d]]
        dx[index[i, d]] += w[i, d] * probe[i]
    assert_relative(wt.grad, dw)
    assert_relative(xt.grad, dx)

"""Tensor core: forward values against numpy, gradients against finite differences."""

import operator
import weakref

import numpy as np
import pytest

from floodseg.tensor import (CLAMP_MIN, GradCheckFailure, ShapeError, TapeError,
                             Tensor, add, concat, div, exp, grad_check, leaky_relu, log,
                             matmul, mul, no_grad, record_op, reshape, sigmoid,
                             softmax, sub, tmean, transpose, tsum)


def rand(rng, *shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape), dtype=np.float64)


def numeric_grad(fn, t, step=1e-6):
    """Central-difference gradient of scalar fn() in every coordinate of t."""
    out = np.zeros_like(t.data)
    flat_x, flat_g = t.data.reshape(-1), out.reshape(-1)
    with no_grad():
        for k in range(flat_x.size):
            orig = flat_x[k]
            flat_x[k] = orig + step
            f_plus = fn().item()
            flat_x[k] = orig - step
            f_minus = fn().item()
            flat_x[k] = orig
            flat_g[k] = (f_plus - f_minus) / (2 * step)
    return out


# ---- forward values ---------------------------------------------------------


def test_arithmetic_matches_numpy():
    rng = np.random.RandomState(0)
    a = rand(rng, 3, 4)
    b = rand(rng, 3, 4, lo=0.5, hi=3.0)
    np.testing.assert_allclose((a + b).data, a.data + b.data, rtol=1e-12)
    np.testing.assert_allclose((a - b).data, a.data - b.data, rtol=1e-12)
    np.testing.assert_allclose((a * b).data, a.data * b.data, rtol=1e-12)
    np.testing.assert_allclose((a / b).data, a.data / b.data, rtol=1e-12)
    np.testing.assert_allclose((-a).data, -a.data, rtol=1e-12)
    np.testing.assert_allclose((2.0 * a + 1.0).data, 2 * a.data + 1, rtol=1e-12)
    np.testing.assert_allclose((1.0 - a).data, 1 - a.data, rtol=1e-12)


def test_matmul_matches_triple_loop():
    rng = np.random.RandomState(1)
    a = rand(rng, 4, 5)
    b = rand(rng, 5, 3)
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a.data[i, k] * b.data[k, j]
    np.testing.assert_allclose((a @ b).data, want, atol=1e-12)


def test_matmul_shape_mismatch_raises():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.zeros(3)))


ELEMENTWISE = {"add": (add, operator.add), "sub": (sub, operator.sub),
               "mul": (mul, operator.mul), "div": (div, operator.truediv)}


@pytest.mark.parametrize("form", [0, 1], ids=["function", "operator"])
@pytest.mark.parametrize("name", ELEMENTWISE)
def test_elementwise_shape_mismatch_raises_one_error_naming_the_op(name, form):
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones(4))
    with pytest.raises(ShapeError, match=rf"^{name}: shapes \(2, 3\) and \(4,\) do not broadcast$"):
        ELEMENTWISE[name][form](a, b)


def test_reductions_and_structure():
    rng = np.random.RandomState(2)
    t = rand(rng, 2, 3, 4)
    np.testing.assert_allclose(tsum(t).data, t.data.sum(), rtol=1e-12)
    np.testing.assert_allclose(tmean(t, axis=1).data, t.data.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(tsum(t, axis=(0, 2), keepdims=True).data,
                               t.data.sum(axis=(0, 2), keepdims=True), rtol=1e-12)
    np.testing.assert_allclose(reshape(t, (6, 4)).data, t.data.reshape(6, 4))
    np.testing.assert_allclose(transpose(t, (2, 0, 1)).data, t.data.transpose(2, 0, 1))
    np.testing.assert_allclose(t[1, :, 2].data, t.data[1, :, 2])
    c = concat([t, t], axis=2)
    assert c.shape == (2, 3, 8)


@pytest.mark.parametrize("index", [1, (slice(None), 2), (1, Ellipsis, None),
                                   np.int64(0), [0, 0, 1], (np.array([1, 1]), 2)],
                         ids=["int", "slice", "ellipsis-none", "np-int", "repeated-rows",
                              "repeated-pairs"])
def test_slice_backward_matches_a_scatter_add(index):
    # A basic index is assigned and an advanced one scattered with np.add.at;
    # either way the gradient is the scatter-add of the output gradient, so a
    # repeated row or element collects every copy's gradient.
    rng = np.random.RandomState(4)
    t = Tensor(rng.uniform(-1, 1, (3, 4)).astype(np.float32), requires_grad=True)
    out = t[index]
    g = rng.uniform(-1, 1, out.shape).astype(np.float32)
    tsum(out * Tensor(g)).backward()
    want = np.zeros_like(t.data)
    np.add.at(want, index, g)
    assert t.grad.dtype == want.dtype and t.grad.tobytes() == want.tobytes()


def test_slice_of_repeated_rows_accumulates():
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, dtype=np.float64)
    tsum(t[[0, 0, 1]]).backward()
    np.testing.assert_array_equal(t.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def test_elementwise_nonlinearities():
    rng = np.random.RandomState(3)
    t = rand(rng, 5, 5, lo=-4, hi=4)
    np.testing.assert_allclose(exp(t).data, np.exp(t.data), rtol=1e-12)
    np.testing.assert_allclose(sigmoid(t).data, 1 / (1 + np.exp(-t.data)), rtol=1e-12)
    np.testing.assert_allclose(leaky_relu(t, 0.0).data, np.maximum(t.data, 0), rtol=1e-12)
    np.testing.assert_allclose(leaky_relu(t).data,
                               np.where(t.data > 0, t.data, 0.2 * t.data), rtol=1e-12)
    pos = rand(rng, 4, 4, lo=0.01, hi=5.0)
    np.testing.assert_allclose(log(pos).data, np.log(pos.data), rtol=1e-12)


@pytest.mark.parametrize("slope", [-0.3, 0.0, 0.2, 1.0, 1.5])
def test_leaky_relu_is_bytewise_the_masked_select(slope):
    x = np.array([0.0, -0.0, 1.0, -1.0, 3.5, -2.25, 1e-30, -1e-30], np.float32)
    t = Tensor(x, requires_grad=True)
    y = leaky_relu(t, slope)
    assert y.data.tobytes() == np.where(x > 0, x, x * slope).tobytes()
    g = np.arange(1, x.size + 1, dtype=np.float32) / 3
    tsum(y * Tensor(g)).backward()
    expected = np.where(x > 0, g, g * np.float32(slope))
    assert t.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("slope", [0.2, 1.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_mask_from_the_output_is_bytewise_the_mask_from_the_input(dtype, slope):
    # For slope > 0 the backward reads the output: it is positive exactly where
    # the input is, signed zeros, infinities, NaN and subnormals included.
    tiny = np.finfo(dtype).tiny
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, tiny / 2,
                  -tiny / 2, tiny * 2.0 ** -20, -tiny * 2.0 ** -20, 1.0, -1.0], dtype)
    assert np.count_nonzero((x != 0) & (np.abs(x) < tiny)) == 4
    t = Tensor(x, requires_grad=True)
    y = leaky_relu(t, slope)
    assert ((y.data > 0) == (x > 0)).all()
    g = np.arange(1, x.size + 1, dtype=dtype) / 3
    with np.errstate(invalid="ignore"):    # the forward sums inf and -inf
        loss = tsum(y * Tensor(g))
    loss.backward()
    m = x > 0
    from_input = g * (m + ~m * dtype(slope))
    assert t.grad.dtype == dtype and t.grad.tobytes() == from_input.tobytes()


@pytest.mark.parametrize("slope,kept", [(0.2, False), (0.0, True)])
def test_leaky_relu_tape_keeps_its_input_only_at_slope_zero(slope, kept):
    # At slope 0 the output cannot tell +inf from NaN (+inf * 0), so the mask
    # reads the input; at slope 0.2 it reads the output and the input can go.
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True, dtype=np.float64)
    pre = x * 2.0
    pre_data = weakref.ref(pre.data)
    loss = tsum(leaky_relu(pre, slope))
    del pre
    assert (pre_data() is not None) == kept
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0 * slope, 2.0, 2.0])


def test_sigmoid_is_stable_at_extreme_logits():
    t = Tensor(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
    out = sigmoid(t).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bytewise_the_masked_form(dtype):
    rng = np.random.RandomState(11)
    x = np.concatenate([[0.0, -0.0, 1e4, -1e4, np.nan, -np.nan, np.inf, -np.inf, 88.0, -88.0,
                         1e-30, -1e-30],
                        rng.uniform(-30, 30, 200)]).astype(dtype)
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    got = sigmoid(Tensor(x)).data
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_softmax_rows_sum_to_one_and_survive_huge_logits():
    rng = np.random.RandomState(4)
    t = Tensor(rng.uniform(-5, 5, (6, 7)), dtype=np.float64)
    s = softmax(t, axis=1).data
    np.testing.assert_allclose(s.sum(axis=1), np.ones(6), atol=1e-12)
    huge = softmax(Tensor(np.array([[1e30, 0.0, -1e30]])), axis=1).data
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge, [[1.0, 0.0, 0.0]], atol=1e-30)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_in_one_buffer_is_bytewise_the_three_array_formula(dtype):
    x = np.random.RandomState(15).uniform(-40, 40, (6, 9)).astype(dtype)
    x[0, 2], x[1, 3], x[4, 5] = np.inf, -np.inf, np.nan
    x[2, :4] = -1e30
    x[3] = -1e30
    x[5, 1], x[5, 6] = np.inf, -np.inf
    for axis in (0, 1):
        with np.errstate(invalid="ignore"):
            shifted = x - x.max(axis=axis, keepdims=True)
            e = np.exp(shifted)
            want = e / e.sum(axis=axis, keepdims=True)
            got = softmax(Tensor(x), axis=axis).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("slope", [0.0, 0.2, 1.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_in_one_buffer_is_bytewise_the_two_array_formula(dtype, slope):
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30, 2.5, -2.5], dtype)
    with np.errstate(invalid="ignore"):            # inf * 0
        want = (np.maximum if slope <= 1 else np.minimum)(x, x * slope)
        got = leaky_relu(Tensor(x), slope).data
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_log_and_div_clamp_keep_values_finite():
    z = Tensor(np.array([0.0, 1e-15, 1.0]), requires_grad=True)
    out = log(z)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[:2], np.log(CLAMP_MIN))
    tsum(out).backward()
    # clamped coordinates sit on a flat spot; only the live one gets gradient
    np.testing.assert_allclose(z.grad, [0.0, 0.0, 1.0])

    num = Tensor(np.ones(3), requires_grad=True)
    den = Tensor(np.array([0.0, 1e-15, 2.0]), requires_grad=True)
    q = num / den
    assert np.all(np.isfinite(q.data))
    assert q.data[2] == 0.5
    tsum(q).backward()
    np.testing.assert_allclose(den.grad[:2], [0.0, 0.0])
    np.testing.assert_allclose(den.grad[2], -0.25)


def test_forward_is_deterministic():
    rng = np.random.RandomState(5)
    x = rng.uniform(-1, 1, (8, 8))
    w = rng.uniform(-1, 1, (8, 8))
    one = sigmoid(matmul(Tensor(x), Tensor(w))).data
    two = sigmoid(matmul(Tensor(x.copy()), Tensor(w.copy()))).data
    assert np.array_equal(one, two)


def test_default_dtype_is_float32_and_float64_sticks():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert Tensor([1.0], dtype=np.float64).dtype == np.float64
    t = Tensor([1.0, 2.0])              # an operator's number or array takes t's dtype
    for out in (t + 1.0, 2.0 * t, t - np.ones(2), 1.0 - t, t / 2.0, 1.0 / t,
                np.ones(2) - t, np.float64(2.0) * t, Tensor([[1.0, 2.0]]) @ np.ones((2, 1))):
        assert isinstance(out, Tensor) and out.dtype == np.float32


def test_item_and_detach():
    t = Tensor(np.array([[3.5]]), requires_grad=True)
    assert t.item() == 3.5
    with pytest.raises(ShapeError):
        Tensor(np.zeros(2)).item()
    d = t.detach()
    assert not d.requires_grad
    d.data[0, 0] = 9.0
    assert t.data[0, 0] == 3.5


# ---- backward mechanics -----------------------------------------------------


def test_grad_accumulates_when_tensor_used_twice():
    x = Tensor(np.array([1.5, -0.5]), requires_grad=True, dtype=np.float64)
    y = tsum(x * x + x)          # dy/dx = 2x + 1
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)


def test_broadcasting_gradients_reduce_correctly():
    rng = np.random.RandomState(6)
    col = rand(rng, 3, 1)
    row = rand(rng, 1, 4)
    col.requires_grad = row.requires_grad = True
    tsum((col + row) * row).backward()
    # d/dcol sum((col+row)*row) = sum_j row_j for every i
    np.testing.assert_allclose(col.grad, np.full((3, 1), row.data.sum()), atol=1e-12)
    np.testing.assert_allclose(row.grad, (col.data.sum() + 2 * 3 * row.data), atol=1e-12)

    scalar_bias = Tensor(np.array(0.7), requires_grad=True, dtype=np.float64)
    m = rand(rng, 2, 5)
    tsum(m + scalar_bias).backward()
    np.testing.assert_allclose(scalar_bias.grad, 10.0)


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (t * 2.0).backward()


def test_second_backward_raises_tape_error():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = tsum(x * x)
    y.backward()
    with pytest.raises(TapeError):
        y.backward()


def test_fresh_forward_after_backward_is_fine():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    tsum(x * x).backward()
    first = x.grad.copy()
    x.grad = None
    tsum(x * x).backward()
    np.testing.assert_allclose(x.grad, first)


def test_backward_keeps_gradients_on_leaves_only():
    x = Tensor(np.array([1.5, -0.5, 2.0]), requires_grad=True, dtype=np.float64)
    w = Tensor(np.array([0.5, 3.0, -1.0]), requires_grad=True, dtype=np.float64)
    frozen = Tensor(np.array([2.0, 2.0, 2.0]), dtype=np.float64)
    y = x * w
    z = sigmoid(y) * frozen
    loss = tsum(z + y)
    loss.backward()
    assert y.grad is None and z.grad is None and loss.grad is None
    assert frozen.grad is None
    dy = 2.0 * sigmoid(Tensor(y.data)).data * (1.0 - sigmoid(Tensor(y.data)).data) + 1.0
    assert x.grad.tobytes() == (dy * w.data).tobytes()
    assert w.grad.tobytes() == (dy * x.data).tobytes()


def test_backward_reduces_routes_and_skips_per_parent():
    # A closure returns one entry per parent: a broadcast gradient is summed to
    # the parent's shape, None skips a parent, and one without requires_grad
    # gets nothing even when a gradient is returned for it.
    first = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True, dtype=np.float64)
    second = Tensor(np.array([4.0]), requires_grad=True, dtype=np.float64)
    third = Tensor(np.array([5.0, 6.0]), dtype=np.float64)
    wide = np.arange(12.0).reshape(4, 3)

    def backward(g):
        return g * wide, None, g * np.ones(2)

    out = record_op(np.zeros(()), (first, second, third), backward)
    out.backward()
    assert first.grad.shape == (1, 3)
    assert first.grad.tobytes() == wide.sum(axis=0, keepdims=True).tobytes()
    assert second.grad is None and third.grad is None


def test_backward_frees_each_node_as_the_walk_passes_it():
    # By the time the walk reaches the node next to the leaf, nothing may hold
    # the output array of an intermediate the walk has already left behind.
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    alive = []

    def probe(t):
        def backward(g):
            alive.append(downstream() is not None)
            return (g,)
        return record_op(t.data.copy(), (t,), backward)

    mid = probe(x) * 2.0
    downstream = weakref.ref(mid.data)
    loss = tsum(mid)
    del mid
    loss.backward()
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_tape_holds_no_intermediate_tensor():
    # A node holds its parents' nodes, not the Tensors, so an intermediate
    # array that no closure saved dies with the caller's reference while the
    # loss's tape lives on.
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
    mid = x * 2.0 + 1.0
    intermediate = weakref.ref(mid.data)
    loss = tsum(reshape(mid, (2, 1)))
    del mid
    assert intermediate() is None
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_a_wrapped_backward_fn_is_what_backward_calls():
    # An outside tracer reads a recorded op's closure and assigns a wrapper.
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    y = x * 3.0
    closure = y._backward_fn
    seen = []

    def wrapper(g):
        seen.append(g.copy())
        return closure(g)

    y._backward_fn = wrapper
    assert y._backward_fn is wrapper and Tensor(np.ones(2))._backward_fn is None
    tsum(y).backward()
    assert len(seen) == 1 and seen[0].tolist() == [1.0, 1.0]
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert y._backward_fn is None          # released by the walk


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tsum(x * 2.0)
    assert y._backward_fn is None and not y.requires_grad
    y.backward()              # a leaf; nothing to propagate
    assert x.grad is None


def test_backward_is_linear_in_the_loss():
    rng = np.random.RandomState(7)
    x = rand(rng, 4, 4)
    w = rand(rng, 4, 4)
    x.requires_grad = w.requires_grad = True

    def run(f):
        x.grad = w.grad = None
        f().backward()
        return x.grad.copy(), w.grad.copy()

    loss_a = lambda: tsum(sigmoid(matmul(x, w)))
    loss_b = lambda: tmean(matmul(x, w) * matmul(x, w))
    ga_x, ga_w = run(loss_a)
    gb_x, gb_w = run(loss_b)
    gsum_x, gsum_w = run(lambda: loss_a() + loss_b())
    np.testing.assert_allclose(gsum_x, ga_x + gb_x, atol=1e-10)
    np.testing.assert_allclose(gsum_w, ga_w + gb_w, atol=1e-10)


# ---- finite-difference verification -----------------------------------------


def test_grad_check_linear_map_is_nearly_exact():
    rng = np.random.RandomState(8)
    w = rng.uniform(-1, 1, (3, 5))
    x = rand(rng, 5, 1)
    err = grad_check(lambda t: tsum(matmul(Tensor(w), t)), [x])
    assert err < 1e-9


def test_grad_check_sigmoid_matmul_chain():
    rng = np.random.RandomState(9)
    x = rand(rng, 4, 6)
    w = rand(rng, 6, 2)
    err = grad_check(lambda a, b: tmean(sigmoid(matmul(a, b))), [x, w])
    assert err < 1e-5


def test_grad_check_random_five_primitive_composites():
    rng = np.random.RandomState(10)
    for _ in range(10):
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 4)
        c = rand(rng, 3, 4, lo=0.2, hi=2.0)

        def composite(a, b, c):
            h = matmul(a, b)                 # 1 matmul
            h = leaky_relu(h)                # 2 nonlinearity
            h = h * c + exp(-c)              # 3,4 elementwise
            return tmean(softmax(h, axis=1) * h)   # 5 softmax + reduce
        assert grad_check(composite, [a, b, c]) < 1e-5


def test_grad_check_each_primitive():
    rng = np.random.RandomState(11)
    pos = lambda: rand(rng, 3, 3, lo=0.3, hi=2.0)
    anyv = lambda: rand(rng, 3, 3)
    cases = [
        (lambda t: tsum(t * t), anyv()),
        (lambda t: tsum(t / (t * t + 1.0)), anyv()),
        (lambda t: tsum(log(t)), pos()),
        (lambda t: tsum(exp(t)), anyv()),
        (lambda t: tsum(leaky_relu(t, 0.0) * leaky_relu(t, 0.0)), anyv()),
        (lambda t: tsum(leaky_relu(t, 0.1)), anyv()),
        (lambda t: tsum(sigmoid(t) * sigmoid(-t)), anyv()),
        (lambda t: tsum(softmax(t, axis=0)[0]), anyv()),
        (lambda t: tsum(transpose(t) @ t), anyv()),
        (lambda t: tmean(reshape(t, (9, 1)) * 3.0), anyv()),
        (lambda t: tsum(concat([t, t * 2.0], axis=1)[:, 2:5]), anyv()),
        (lambda t: tmean(tsum(t, axis=0, keepdims=True) * t), anyv()),
    ]
    for fn, t in cases:
        assert grad_check(fn, [t]) < 1e-5


def test_grad_check_catches_a_negated_backward_rule():
    def bad_square(t):
        return record_op(t.data * t.data, (t,), lambda g: (-(g * 2 * t.data),))

    x = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
    err = grad_check(lambda t: tsum(bad_square(t)), [x])
    assert err > 0.1
    with pytest.raises(GradCheckFailure):
        grad_check(lambda t: tsum(bad_square(t)), [x], tolerance=1e-5)


def test_grad_check_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        grad_check(lambda t: t * 2.0, [Tensor(np.zeros(3), dtype=np.float64)])
    with pytest.raises(ValueError):
        grad_check(lambda t: tsum(t), [Tensor(np.zeros(3), dtype=np.float32)])


def test_manual_numeric_gradient_agrees_with_backward():
    rng = np.random.RandomState(12)
    x = rand(rng, 3, 3)
    x.requires_grad = True
    fn = lambda: tmean(sigmoid(x) * x)
    fn().backward()
    np.testing.assert_allclose(x.grad, numeric_grad(fn, x), atol=1e-8)

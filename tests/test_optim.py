"""Adam updates against a scalar reference loop, over the parameters it is given."""

import numpy as np
import pytest

from floodseg.optim import Adam
from floodseg.tensor import Tensor


def adam_oracle(x0, grads, lr, beta1, beta2, eps):
    """Textbook bias-corrected Adam on a single scalar."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def test_updates_match_scalar_oracle():
    rng = np.random.RandomState(0)
    grads = rng.uniform(-2, 2, 20)
    p = Tensor(np.array([1.5]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    want = adam_oracle(1.5, grads, 0.01, 0.9, 0.999, 1e-8)
    assert abs(p.data[0] - want) < 1e-12


def test_first_step_moves_by_learning_rate_times_sign():
    p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([2.0, -0.003])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9, -0.9], atol=1e-6)


def test_elementwise_independence():
    rng = np.random.RandomState(1)
    p = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    start = p.data.copy()
    grads = [rng.uniform(-1, 1, (3, 4)) for _ in range(5)]
    opt = Adam({"p": p}, lr=0.02)
    for g in grads:
        p.grad = g
        opt.step()
    for idx in np.ndindex(3, 4):
        want = adam_oracle(start[idx], [g[idx] for g in grads], 0.02, 0.9, 0.999, 1e-8)
        assert abs(p.data[idx] - want) < 1e-12


def test_updates_only_the_parameters_it_is_given():
    a = Tensor(np.array([1.0]), requires_grad=False)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"head.w": b}, lr=0.1)
    a.grad = np.array([5.0])
    b.grad = np.array([5.0])
    opt.step()
    opt.zero_grad()
    assert a.data[0] == 1.0 and a.grad[0] == 5.0     # never seen by the optimizer
    assert b.data[0] != 1.0 and b.grad is None


@pytest.mark.parametrize("name,value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")), ("beta2", 1.0),
    ("eps", 0.0), ("eps", -1e-8), ("eps", float("inf"))])
def test_out_of_range_hyperparameters_are_refused(name, value):
    params = {"p": Tensor(np.array([1.0]))}
    with pytest.raises(ValueError, match=f"{name} {value!r} is out of range"):
        Adam(params, **{name: value})


def test_zero_beta_is_accepted():
    Adam({"p": Tensor(np.array([1.0]))}, beta1=0.0, beta2=0.0)


def test_zero_grad_clears_everything_and_none_grads_are_skipped():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt.zero_grad()
    assert a.grad is None and b.grad is None
    a.grad = np.array([1.0])
    opt.step()                       # b has no grad this step
    assert a.data[0] != 1.0
    assert b.data[0] == 2.0


def test_identical_runs_are_deterministic():
    results = []
    for _ in range(2):
        p = Tensor(np.full((4,), 0.25), requires_grad=True)
        opt = Adam({"p": p}, lr=0.03)
        rng = np.random.RandomState(2)
        for _ in range(10):
            p.grad = rng.uniform(-1, 1, 4)
            opt.step()
        results.append(p.data.copy())
    np.testing.assert_array_equal(results[0], results[1])

"""Finite-difference verification of every differentiable layer and loss.

Each check builds a small float64 problem, reduces the layer output to a
scalar through a fixed random weighting, and compares the recorded
gradients against central differences. Layer checks must stay under 1e-5
relative error; the end-to-end network check (every parameter plus the
input image) is allowed 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convnn import bce_loss, conv2d, dice_loss, maxpool2, upsample2
from .graphnn import (ChebParams, GatParams, Graph, build_grid_graph, cheb_conv,
                      center_of_mass, gat_conv, neighbour_sum, normalized_laplacian)
from .model import ModelSpec, build_model, init_params, input_transform, output_map
from .tensor import Tensor, grad_check, no_grad, tmean

LAYER_TOLERANCE = 1e-5
END_TO_END_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_error < self.tolerance


def _t(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), dtype=np.float64)


def _probed(op, *shapes):
    """Builder for ``op`` on inputs of ``shapes``: draws the inputs, then a probe
    of the output's shape, and reduces the output to its probe-weighted mean."""
    def build(rng):
        inputs = [_t(rng, *shape) for shape in shapes]
        with no_grad():
            probe = _t(rng, *op(*inputs).shape)
        return lambda *_: tmean(op(*inputs) * probe), inputs
    return build


def _loss(loss_fn, shape):
    def build(rng):
        pred = _t(rng, *shape, lo=0.05, hi=0.95)
        target = Tensor((rng.uniform(0, 1, shape) > 0.5).astype(float), dtype=np.float64)
        return lambda *_: loss_fn(pred, target), [pred]
    return build


def _pool_ties(rng):
    # Each window holds copies of one coordinate of y, some lowered by a fixed
    # drop, so windows tie two, three or four ways. A perturbation of y moves
    # every tied maximum together: y's gradient is the probe once per window,
    # whichever tied cell the pool picks, and the pool is differentiable.
    y = _t(rng, 2, 2, 3, 3)
    drop = rng.randint(0, 2, (2, 2, 6, 6)) * 0.5
    drop[0, 0, :2, :2] = 0.0
    probe = _t(rng, 2, 2, 3, 3)
    return lambda *_: tmean(maxpool2(upsample2(y) - drop) * probe), [y]


def _center_of_mass(rng):
    x = _t(rng, 3, 4, 5)
    probe_c, probe_a = _t(rng, 3, 2), _t(rng, 5, 4, 5)

    def fn(*_):
        centroids, augmented = center_of_mass(x)
        return tmean(centroids * probe_c) + tmean(augmented * probe_a)
    return fn, [x]


def _builders():
    """(name, builder) per layer check; a builder maps an rng to (fn, inputs)."""
    grid = build_grid_graph(2, 3)
    lap = normalized_laplacian(build_grid_graph(2, 2))
    # degrees 3, 1, 1, 1 and 0: every row but node 0's has spare slots
    star = Graph(5, [(0, 1), (0, 2), (0, 3)])
    isolated = normalized_laplacian(star)
    return [("conv2d", _probed(conv2d, (2, 6, 6), (3, 2, 3, 3), (3,))),
            ("conv2d_narrowing", _probed(conv2d, (3, 6, 6), (2, 3, 3, 3), (2,))),
            ("conv2d_batch", _probed(conv2d, (2, 2, 6, 6), (3, 2, 3, 3), (3,))),
            ("conv2d_pointwise_batch", _probed(conv2d, (2, 2, 5, 5), (3, 2, 1, 1), (3,))),
            ("dilated_conv2d", _probed(lambda x, w, b: conv2d(x, w, b, dilation=2),
                                       (2, 8, 8), (2, 2, 3, 3), (2,))),
            ("dilated_conv2d_batch", _probed(lambda x, w, b: conv2d(x, w, b, dilation=2),
                                             (2, 2, 8, 8), (2, 2, 3, 3), (2,))),
            ("maxpool2", _probed(maxpool2, (2, 6, 6))),
            ("maxpool2_ties_batch", _pool_ties),
            ("upsample2", _probed(upsample2, (2, 3, 3))),
            ("neighbour_sum", _probed(lambda w, x: neighbour_sum(w, x, star),
                                      (5, 4), (5, 2))),
            ("gat_conv", _probed(lambda x, w, a: gat_conv(x, grid, GatParams(w, a)),
                                 (6, 3), (4, 3), (8,))),
            ("cheb_conv", _probed(lambda x, *thetas: cheb_conv(x, lap, ChebParams(list(thetas))),
                                  (4, 2), *[(3, 2)] * 4)),
            ("cheb_conv_isolated",
             _probed(lambda x, *thetas: cheb_conv(x, isolated, ChebParams(list(thetas))),
                     (5, 2), *[(3, 2)] * 3)),
            ("center_of_mass", _center_of_mass),
            ("input_transform", _probed(input_transform, (3, 4, 4), (4, 4), (4, 4))),
            ("output_map", _probed(output_map, (5, 3, 3), (1, 5, 1, 1), (1,))),
            ("bce_loss", _loss(bce_loss, (4, 4))),
            ("dice_loss", _loss(dice_loss, (4, 4))),
            ("dice_loss_batch", _loss(dice_loss, (2, 1, 4, 4)))]


def end_to_end_check(seed: int = 0) -> CheckResult:
    """Dice loss through a tiny full network, differentiated in every parameter.

    Uses a wider finite-difference step than the per-layer checks: through a
    ~600-parameter composite the loss is O(1) while many gradient coordinates
    are O(1e-7), so at step 1e-6 float64 cancellation noise (~1e-10 absolute
    on the quotient) would swamp the comparison. Much wider steps fail the
    other way (a bias perturbation can push a pre-activation across its
    leaky-relu kink); 1e-5 clears both regimes.
    """
    rng = np.random.RandomState(seed)
    spec = ModelSpec(input_size=16, widths=(2, 3), gat_out=3, cheb_order=2, cheb_out=3,
                     seed=seed)
    net = init_params(build_model(spec, dtype=np.float64), seed)
    x = Tensor(rng.uniform(0, 1, (3, 16, 16)), dtype=np.float64)
    target = Tensor((rng.uniform(0, 1, (1, 16, 16)) > 0.5).astype(float), dtype=np.float64)
    fn = lambda *_: dice_loss(net.forward(x), target)
    err = grad_check(fn, list(net.params.values()) + [x], step=1e-5)
    return CheckResult("end_to_end_gac_unet", err, END_TO_END_TOLERANCE)


def run_gradient_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, builder in _builders():
        fn, inputs = builder(np.random.RandomState(seed))
        results.append(CheckResult(name, grad_check(fn, inputs), LAYER_TOLERANCE))
    results.append(end_to_end_check(seed))
    return results

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
from .graphnn import (ChebParams, GatParams, build_grid_graph, cheb_conv, center_of_mass,
                      gat_conv, normalized_laplacian)
from .model import ModelSpec, build_model, init_params
from .reprogram import input_transform, output_map
from .tensor import Tensor, grad_check, tmean

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


def _builders():
    def conv(rng, c_in=2, c_out=3, batch=()):
        x, w, b = _t(rng, *batch, c_in, 6, 6), _t(rng, c_out, c_in, 3, 3), _t(rng, c_out)
        probe = Tensor(rng.uniform(-1, 1, batch + (c_out, 6, 6)), dtype=np.float64)
        return lambda *_: tmean(conv2d(x, w, b) * probe), [x, w, b]

    def dilated(rng):
        x, w, b = _t(rng, 2, 8, 8), _t(rng, 2, 2, 3, 3), _t(rng, 2)
        probe = Tensor(rng.uniform(-1, 1, (2, 8, 8)), dtype=np.float64)
        return lambda *_: tmean(conv2d(x, w, b, dilation=2) * probe), [x, w, b]

    def pool(rng):
        x = _t(rng, 2, 6, 6)
        probe = Tensor(rng.uniform(-1, 1, (2, 3, 3)), dtype=np.float64)
        return lambda *_: tmean(maxpool2(x) * probe), [x]

    def pool_ties(rng):
        # Each window holds copies of one coordinate of y, some lowered by a fixed
        # drop, so windows tie two, three or four ways. A perturbation of y moves
        # every tied maximum together: y's gradient is the probe once per window,
        # whichever tied cell the pool picks, and the pool is differentiable.
        y = _t(rng, 2, 2, 3, 3)
        drop = rng.randint(0, 2, (2, 2, 6, 6)) * 0.5
        drop[0, 0, :2, :2] = 0.0
        probe = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)), dtype=np.float64)
        return lambda *_: tmean(maxpool2(upsample2(y) - drop) * probe), [y]

    def upsample(rng):
        x = _t(rng, 2, 3, 3)
        probe = Tensor(rng.uniform(-1, 1, (2, 6, 6)), dtype=np.float64)
        return lambda *_: tmean(upsample2(x) * probe), [x]

    def gat(rng):
        graph = build_grid_graph(2, 3)
        x, w, a = _t(rng, 6, 3), _t(rng, 4, 3), _t(rng, 8)
        probe = Tensor(rng.uniform(-1, 1, (6, 4)), dtype=np.float64)
        return (lambda *_: tmean(gat_conv(x, graph, GatParams(w, a)) * probe), [x, w, a])

    def cheb(rng):
        graph = build_grid_graph(2, 2)
        lap = normalized_laplacian(graph)
        x = _t(rng, 4, 2)
        thetas = [_t(rng, 3, 2) for _ in range(4)]
        probe = Tensor(rng.uniform(-1, 1, (4, 3)), dtype=np.float64)
        return (lambda *_: tmean(cheb_conv(x, lap, ChebParams(thetas)) * probe),
                [x] + thetas)

    def com(rng):
        x = _t(rng, 3, 4, 5)
        probe_c = Tensor(rng.uniform(-1, 1, (3, 2)), dtype=np.float64)
        probe_a = Tensor(rng.uniform(-1, 1, (5, 4, 5)), dtype=np.float64)

        def fn(*_):
            centroids, augmented = center_of_mass(x)
            return tmean(centroids * probe_c) + tmean(augmented * probe_a)
        return fn, [x]

    def in_transform(rng):
        x, w, b = _t(rng, 3, 4, 4), _t(rng, 4, 4), _t(rng, 4, 4)
        probe = Tensor(rng.uniform(-1, 1, (3, 4, 4)), dtype=np.float64)
        return lambda *_: tmean(input_transform(x, w, b) * probe), [x, w, b]

    def out_map(rng):
        y, k, b = _t(rng, 5, 3, 3), _t(rng, 1, 5, 1, 1), _t(rng, 1)
        probe = Tensor(rng.uniform(-1, 1, (1, 3, 3)), dtype=np.float64)
        return lambda *_: tmean(output_map(y, k, b) * probe), [y, k, b]

    def bce(rng):
        pred = _t(rng, 4, 4, lo=0.05, hi=0.95)
        target = Tensor((rng.uniform(0, 1, (4, 4)) > 0.5).astype(float), dtype=np.float64)
        return lambda *_: bce_loss(pred, target), [pred]

    def dice(rng, shape=(4, 4)):
        pred = _t(rng, *shape, lo=0.05, hi=0.95)
        target = Tensor((rng.uniform(0, 1, shape) > 0.5).astype(float), dtype=np.float64)
        return lambda *_: dice_loss(pred, target), [pred]

    return [("conv2d", LAYER_TOLERANCE, conv),
            ("conv2d_narrowing", LAYER_TOLERANCE, lambda rng: conv(rng, c_in=3, c_out=2)),
            ("conv2d_batch", LAYER_TOLERANCE, lambda rng: conv(rng, batch=(2,))),
            ("dilated_conv2d", LAYER_TOLERANCE, dilated),
            ("maxpool2", LAYER_TOLERANCE, pool),
            ("maxpool2_ties_batch", LAYER_TOLERANCE, pool_ties),
            ("upsample2", LAYER_TOLERANCE, upsample),
            ("gat_conv", LAYER_TOLERANCE, gat),
            ("cheb_conv", LAYER_TOLERANCE, cheb),
            ("center_of_mass", LAYER_TOLERANCE, com),
            ("input_transform", LAYER_TOLERANCE, in_transform),
            ("output_map", LAYER_TOLERANCE, out_map),
            ("bce_loss", LAYER_TOLERANCE, bce),
            ("dice_loss", LAYER_TOLERANCE, dice),
            ("dice_loss_batch", LAYER_TOLERANCE, lambda rng: dice(rng, (2, 1, 4, 4)))]


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
    for name, tolerance, builder in _builders():
        fn, inputs = builder(np.random.RandomState(seed))
        results.append(CheckResult(name, grad_check(fn, inputs), tolerance))
    results.append(end_to_end_check(seed))
    return results

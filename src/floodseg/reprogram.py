"""Repurpose a frozen segmentation model for a new binary task.

Reprogramming learns an elementwise input program (scale and shift applied
to every channel of the incoming image, or to each channel on its own) and a
1x1 output map from the frozen base's channels to the new task's channels;
the base itself never changes. ``ReprogramWrapper`` builds the programmed
model on the base's own parameter ``Tensor``s (``Model.with_program``).
Frozenness is enforced two ways: base parameters get ``requires_grad`` off,
so they receive no gradient and are not handed to Adam, and a checksum over
the serialized base is compared before and after training, failing hard on
drift (``FrozenBaseError``).

Training runs the shared fixed-step loop of ``train.py``, so a non-finite
loss raises ``NumericFailure`` as it does for a model; the loss name is
looked up with ``convnn.loss_named`` and Adam's settings go to ``Adam`` as
given. The programmed model is a model: ``model.save_model`` writes it and
``model.load_model`` reads it back, with no base file needed.
"""

from __future__ import annotations

import numpy as np

from .convnn import bce_loss, loss_named
from .dataio import model_arrays, model_input
# input_transform and output_map live in model; the package exports and floodbench's
# span targets name them in this module
from .model import (Model, ModelSpec, build_model, glorot_uniform, init_params,
                    input_transform, model_checksum, output_map)
from .optim import Adam
from .synthetic import generate_multiclass_set, one_hot
from .tensor import Tensor, no_grad
from .train import train_for_steps


class FrozenBaseError(RuntimeError):
    """The frozen base's parameters changed during wrapper training."""


class ReprogramWrapper:
    """A frozen base model and the programmed ``model`` built on it.

    ``params`` holds only the program's trainable tensors: the identity input
    program, and the output map to ``c_new`` channels, a Glorot draw from
    ``RandomState(seed)`` with zero bias. The frozen base layers pass
    gradients through to the input program but compute none of their own.
    """

    def __init__(self, base: Model, c_new: int = 1, per_channel: bool = False, seed: int = 0):
        self.model = base.with_program("per_channel" if per_channel else "shared", c_new)
        for p in base.params.values():
            p.requires_grad = False
        self.base = base
        self.base_checksum = model_checksum(base)
        self.params = {k: v for k, v in self.model.params.items() if k not in base.params}
        self.params["reprog.in.w"].data[...] = 1.0
        out_w = self.params["reprog.out.w"].data
        out_w[...] = glorot_uniform(np.random.RandomState(seed), out_w.shape, out_w.dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.model.forward(x)

    def verify_frozen(self):
        current = model_checksum(self.base)
        if current != self.base_checksum:
            raise FrozenBaseError("frozen base parameters changed: checksum "
                                  f"{self.base_checksum[:12]} -> {current[:12]}")


def _wrapper_data(wrapper: ReprogramWrapper, pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    return [model_arrays(p, wrapper.base.spec.input_size, wrapper.base.dtype) for p in pairs]


def dataset_loss(wrapper: ReprogramWrapper, pairs, loss: str = "dice") -> float:
    """Mean loss of the wrapper over all pairs, without touching gradients."""
    loss_fn = loss_named(loss)
    data = _wrapper_data(wrapper, pairs)
    if not data:
        raise ValueError("dataset_loss: no pairs")
    total = 0.0
    with no_grad():
        for image, target in data:
            total += loss_fn(wrapper.forward(Tensor(image)), Tensor(target)).item()
    return total / len(data)


def reprogram_train(wrapper: ReprogramWrapper, pairs, steps: int, *, loss: str = "dice",
                    batch_size: int = 4, seed: int = 0, **adam) -> list[float]:
    """Train only the wrapper parameters for ``steps`` minibatch updates.

    ``adam`` goes to ``Adam`` as its keyword settings. Returns the per-step
    loss trajectory. The base checksum is verified before and after; zero
    steps leaves every parameter untouched. A non-finite loss raises
    ``NumericFailure``.
    """
    loss_fn = loss_named(loss)
    wrapper.verify_frozen()
    try:
        optimizer = Adam(wrapper.params, **adam)
    except TypeError as exc:    # a misspelt keyword of this call, not of Adam's
        raise TypeError(f"reprogram_train: {exc}") from None
    data = _wrapper_data(wrapper, pairs)
    losses = train_for_steps(wrapper.forward, optimizer, loss_fn, data, steps,
                             batch_size, seed)
    wrapper.verify_frozen()
    return losses


def make_pretrained_base(c_old: int = 8, size: int = 32, widths=(4, 8), seed: int = 0,
                         steps: int = 40, lr: float = 1e-3) -> Model:
    """Small plain U-Net with a ``c_old``-channel head, pretrained briefly.

    The pretraining task is synthetic multi-region labeling: the head learns
    per-channel indicator probabilities under an elementwise cross-entropy,
    which is enough to make the base's channels task-structured.
    """
    spec = ModelSpec(input_size=size, widths=tuple(widths), variant="plain-unet",
                     out_channels=c_old, seed=seed)
    base = init_params(build_model(spec), seed)
    scenes = generate_multiclass_set(count=12, size=size, classes=c_old, seed=seed)
    data = [(model_input(img, size, base.dtype), one_hot(labels, c_old))
            for img, labels in scenes]
    train_for_steps(base.forward, Adam(base.params, lr=lr), bce_loss, data, steps,
                    batch_size=4, seed=seed)
    return base

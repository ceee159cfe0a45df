"""Repurpose a frozen segmentation model for a new binary task.

The wrapper learns an elementwise input program (scale and shift applied to
every channel of the incoming image) and a 1x1 output map from the frozen
base's channels to the new task's channels; the base itself never changes.
Frozenness is enforced two ways: base parameters get ``requires_grad`` off,
so they receive no gradient and are not handed to Adam, and a checksum over
the serialized base is compared before and after training, failing hard on
drift (``FrozenBaseError``).

Training runs the shared fixed-step loop of ``train.py``, so a non-finite
loss raises ``NumericFailure`` as it does for a model; the loss name is
looked up with ``convnn.loss_named`` and Adam's settings go to ``Adam`` as
given. Wrapper files are ``.gacm`` files of the wrapper kind, written and
read by ``model.encode_gacm`` and ``model.decode_gacm``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .convnn import bce_loss, conv2d, loss_named
from .dataio import model_arrays, model_input
from .model import (KIND_WRAPPER, Model, ModelFormatError, ModelSpec, build_model,
                    decode_gacm, encode_gacm, glorot_uniform, init_params, load_model,
                    model_checksum, predict_proba)
from .optim import Adam
from .synthetic import generate_multiclass_set, one_hot
from .tensor import ShapeError, Tensor, no_grad, sigmoid
from .train import train_for_steps


class FrozenBaseError(RuntimeError):
    """The frozen base's parameters changed during wrapper training."""


def input_transform(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Elementwise reprogramming of the input: weight * x + bias.

    ``weight`` and ``bias`` are (H, W), shared across the image channels, or
    (C, H, W) for a per-channel program; either way they must match the
    last axes of ``x``, a (C, H, W) sample or an (N, C, H, W) batch.
    """
    if weight.data.shape != bias.data.shape:
        raise ShapeError(f"input_transform: weight {weight.data.shape} and bias "
                         f"{bias.data.shape} must match")
    if weight.data.shape[-2:] != x.data.shape[-2:]:
        raise ShapeError(f"input_transform: program {weight.data.shape} does not cover "
                         f"input {x.data.shape}")
    if weight.data.ndim == 3 and weight.data.shape != x.data.shape[-3:]:
        raise ShapeError(f"input_transform: per-channel program {weight.data.shape} "
                         f"does not match input {x.data.shape}")
    return weight * x + bias


def output_map(features: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution across channels; sigmoid for a 1-channel output."""
    if kernel.data.ndim != 4 or kernel.data.shape[2:] != (1, 1):
        raise ShapeError(f"output_map: kernel must be (C_new, C_old, 1, 1), "
                         f"got {kernel.data.shape}")
    out = conv2d(features, kernel, bias)
    return sigmoid(out) if kernel.data.shape[0] == 1 else out


class ReprogramWrapper:
    """A frozen base model plus trainable input program and output map.

    The base keeps ``requires_grad`` off: its layers pass gradients through to
    the input program but compute none for their own weights.
    """

    def __init__(self, base: Model, c_new: int = 1, per_channel: bool = False, seed: int = 0):
        for p in base.params.values():
            p.requires_grad = False
        self.base = base
        self.c_new = int(c_new)
        self.per_channel = bool(per_channel)
        self.base_checksum = model_checksum(base)
        size = base.spec.input_size
        c_old = base.spec.out_channels
        dtype = base.dtype
        shape = (3, size, size) if per_channel else (size, size)
        rng = np.random.RandomState(seed)
        self.params = {
            "reprog.in.w": Tensor(np.ones(shape, dtype=dtype), requires_grad=True),
            "reprog.in.b": Tensor(np.zeros(shape, dtype=dtype), requires_grad=True),
            "reprog.out.w": Tensor(glorot_uniform(rng, (c_new, c_old, 1, 1), dtype),
                                   requires_grad=True),
            "reprog.out.b": Tensor(np.zeros(c_new, dtype=dtype), requires_grad=True),
        }

    def forward(self, x: Tensor) -> Tensor:
        programmed = input_transform(x, self.params["reprog.in.w"], self.params["reprog.in.b"])
        features = self.base.forward(programmed)
        return output_map(features, self.params["reprog.out.w"], self.params["reprog.out.b"])

    def predict_proba(self, image_hwc: np.ndarray) -> np.ndarray:
        """Probability map of an (H, W, 3) image at its own size, as ``Model.predict_proba``."""
        return predict_proba(self.forward, image_hwc, self.base.spec.input_size, self.base.dtype)

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


# ---- wrapper serialization --------------------------------------------------


def serialize_wrapper(wrapper: ReprogramWrapper) -> bytes:
    config = {"c_new": wrapper.c_new, "per_channel": wrapper.per_channel,
              "base_checksum": wrapper.base_checksum}
    return encode_gacm(KIND_WRAPPER, config, wrapper.params, wrapper.base.dtype.itemsize)


def save_wrapper(wrapper: ReprogramWrapper, path):
    Path(path).write_bytes(serialize_wrapper(wrapper))


def load_wrapper(path, base) -> ReprogramWrapper:
    """Rebuild a wrapper from ``path`` around ``base`` (a Model or a model path)."""
    if not isinstance(base, Model):
        base = load_model(base)

    def build(config: dict, dtype) -> ReprogramWrapper:
        c_new, per_channel, stored = (config.get(k)
                                      for k in ("c_new", "per_channel", "base_checksum"))
        if (type(c_new) is not int or c_new < 1 or not isinstance(per_channel, bool)
                or not isinstance(stored, str)):
            raise ModelFormatError(f"{path}: bad wrapper configuration block: need an integer "
                                   "c_new >= 1, a boolean per_channel and a base_checksum "
                                   "string")
        if model_checksum(base) != stored:
            raise ModelFormatError(f"{path}: wrapper was trained against a different base "
                                   f"(checksum {stored[:12]})")
        return ReprogramWrapper(base, c_new=c_new, per_channel=per_channel)

    return decode_gacm(path, KIND_WRAPPER, build)

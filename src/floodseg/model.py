"""Model assembly, initialization, and the .gacm serialization format.

The network is a U-Net over a batch of 3-channel inputs, (N, 3, S, S), or
one (3, S, S) sample. Each encoder stage is a 3x3 convolution, a dilation-2
3x3 convolution (both leaky-relu), and a 2x2 max pool; the pre-pool
features feed the matching decoder stage through a skip concatenation on
the channel axis. The ``gac-unet`` variant runs each sample's bottleneck
grid through attention mixing, a Chebyshev graph filter, and soft-centroid
augmentation; ``plain-unet`` passes the bottleneck through unchanged, so
the two variants share identical encoders given the same seed. The head is
a 1x1 convolution with a per-channel sigmoid. ``init_params`` zeroes the
``*.b`` biases and draws the rest Glorot-uniform, fans read from the shape.

A model's layers live only in its ``params`` table, declared in ``.gacm``
payload order: ``enc{i}.conv``, ``enc{i}.dil``, then ``gat`` and ``cheb`` for
gac-unet, ``dec{i}.conv`` from the deepest stage, and ``head``. ``forward``
reads each layer from the table by name.

Model files (.gacm) hold a small header (magic, version, kind, float width),
the length-prefixed configuration JSON, and the raw little-endian parameter
payload in declaration order; nothing else, so the file size is exactly
header + width * parameter_count bytes. ``encode_gacm`` and ``decode_gacm``
are the format's one writer and one reader, for models and for reprogramming
wrappers alike.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .convnn import conv2d, maxpool2, upsample2
from .dataio import model_input, resize_bilinear
from .graphnn import (ChebParams, GatParams, build_grid_graph, cheb_conv, center_of_mass,
                      gat_conv, is_int, normalized_laplacian)
from .tensor import ShapeError, Tensor, concat, leaky_relu, no_grad, reshape, sigmoid, transpose

VARIANTS = ("gac-unet", "plain-unet")

MAGIC = b"GACM"
FORMAT_VERSION = 1
KIND_MODEL = 0
KIND_WRAPPER = 1
_HEADER = "<HBBI"     # version, kind, float width, config length


class SpecError(ValueError):
    """Invalid model configuration; the message names the violated constraint."""


class ModelFormatError(Exception):
    """A .gacm file that cannot be read back."""


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to rebuild a model's architecture.

    ``gat_out`` and ``cheb_out`` accept 0 as "match the deepest encoder
    width". ``com`` toggles the soft-centroid bottleneck stage.
    """

    input_size: int = 256
    widths: tuple = (16, 32, 64)
    variant: str = "gac-unet"
    connectivity: int = 4
    gat_out: int = 0
    cheb_order: int = 2
    cheb_out: int = 0
    com: bool = True
    out_channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.widths, (tuple, list)) or not all(map(is_int, self.widths)):
            raise SpecError(f"widths: must be a list of integers, got {self.widths!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        for name in ("input_size", "connectivity", "gat_out", "cheb_order", "cheb_out",
                     "out_channels", "seed"):
            if not is_int(getattr(self, name)):
                raise SpecError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.com, bool):
            raise SpecError(f"com: must be a boolean, got {self.com!r}")
        if not self.widths:
            raise SpecError("widths: need at least one encoder stage")
        if any(w < 1 for w in self.widths):
            raise SpecError(f"widths: all stage widths must be positive, got {self.widths}")
        if self.variant not in VARIANTS:
            raise SpecError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        if self.connectivity not in (4, 8):
            raise SpecError(f"connectivity: must be 4 or 8, got {self.connectivity}")
        stages = len(self.widths)
        if self.input_size < 2 ** stages or self.input_size % (2 ** stages) != 0:
            raise SpecError(f"input_size: {self.input_size} is not divisible by "
                            f"2^{stages} (one halving per encoder stage)")
        if self.gat_out == 0:
            object.__setattr__(self, "gat_out", self.widths[-1])
        if self.cheb_out == 0:
            object.__setattr__(self, "cheb_out", self.widths[-1])
        if self.gat_out < 1 or self.cheb_out < 1:
            raise SpecError("gat_out/cheb_out: layer widths must be positive")
        if self.cheb_order < 0:
            raise SpecError(f"cheb_order: must be >= 0, got {self.cheb_order}")
        if self.out_channels < 1:
            raise SpecError(f"out_channels: must be >= 1, got {self.out_channels}")

    @property
    def stages(self) -> int:
        return len(self.widths)

    @property
    def grid_size(self) -> int:
        return self.input_size // (2 ** self.stages)

    @property
    def bottleneck_channels(self) -> int:
        if self.variant == "plain-unet":
            return self.widths[-1]
        return self.cheb_out + (2 if self.com else 0)

    @classmethod
    def from_config(cls, config: dict, source="model") -> "ModelSpec":
        """The spec in a decoded configuration object; errors name ``source``."""
        try:
            return cls(**config)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ModelFormatError(f"{source}: bad model configuration block: {exc}") from exc


class Model:
    """A built network: the ``params`` table, the gac-unet graph, and the forward computation."""

    def __init__(self, spec: ModelSpec, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise SpecError(f"dtype: must be float32 or float64, got {self.dtype}")
        self.params: dict[str, Tensor] = {}
        self.graph = None
        self.laplacian = None
        self._assemble()

    # ---- construction ----------------------------------------------------

    def _new_param(self, name: str, shape):
        self.params[name] = Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)

    def _conv(self, name: str, c_in: int, c_out: int, k: int):
        self._new_param(f"{name}.w", (c_out, c_in, k, k))
        self._new_param(f"{name}.b", (c_out,))

    def _assemble(self):
        """Declare every parameter, in ``.gacm`` order, and build the gac-unet graph."""
        spec = self.spec
        c_in = 3
        for i, width in enumerate(spec.widths, start=1):
            self._conv(f"enc{i}.conv", c_in, width, 3)
            self._conv(f"enc{i}.dil", width, width, 3)
            c_in = width
        if spec.variant == "gac-unet":
            g = spec.grid_size
            self.graph = build_grid_graph(g, g, spec.connectivity)
            self.laplacian = normalized_laplacian(self.graph)
            self._new_param("gat.weight", (spec.gat_out, spec.widths[-1]))
            self._new_param("gat.attn", (2 * spec.gat_out,))
            for k in range(spec.cheb_order + 1):
                self._new_param(f"cheb.theta{k}", (spec.cheb_out, spec.gat_out))
        below = spec.bottleneck_channels
        for i in range(spec.stages, 0, -1):
            skip = spec.widths[i - 1]
            self._conv(f"dec{i}.conv", below + skip, skip, 3)
            below = skip
        self._conv("head", below, spec.out_channels, 1)

    # ---- forward -----------------------------------------------------------

    def _conv_layer(self, x: Tensor, name: str, dilation: int = 1) -> Tensor:
        """The conv layer ``name``; floodbench's tracer reads the weight positionally."""
        return conv2d(x, self.params[name + ".w"], self.params[name + ".b"], dilation=dilation)

    def forward(self, x: Tensor) -> Tensor:
        """Output map of an input batch (N, 3, S, S), or of one (3, S, S) sample."""
        spec, p = self.spec, self.params
        size = spec.input_size
        if x.data.ndim not in (3, 4) or x.data.shape[-3:] != (3, size, size):
            raise ShapeError(f"forward: expected input shape (3, {size}, {size}) or "
                             f"(N, 3, {size}, {size}), got {x.data.shape}")
        skips = []
        h = reshape(x, (-1, 3, size, size))
        for i in range(1, spec.stages + 1):
            h = leaky_relu(self._conv_layer(h, f"enc{i}.conv"))
            h = leaky_relu(self._conv_layer(h, f"enc{i}.dil", dilation=2))
            skips.append(h)
            h = maxpool2(h)
        if self.graph is not None:
            gat = GatParams(p["gat.weight"], p["gat.attn"])
            cheb = ChebParams([p[f"cheb.theta{k}"] for k in range(spec.cheb_order + 1)])
            n, _, gh, gw = h.data.shape
            h = reshape(concat([self._graph_stage(h[i], gat, cheb) for i in range(n)], axis=0),
                        (n, -1, gh, gw))
        for i in range(spec.stages, 0, -1):
            h = upsample2(h)
            h = concat([h, skips[i - 1]], axis=1)
            h = leaky_relu(self._conv_layer(h, f"dec{i}.conv"))
        out = sigmoid(self._conv_layer(h, "head"))
        return reshape(out, x.data.shape[:-3] + out.data.shape[1:])

    def _graph_stage(self, h: Tensor, gat: GatParams, cheb: ChebParams) -> Tensor:
        """The gac-unet bottleneck of one sample's (C, g, g) grid; the graph layers take
        one sample's nodes at a time."""
        c, gh, gw = h.data.shape
        nodes = transpose(reshape(h, (c, gh * gw)))
        nodes = gat_conv(nodes, self.graph, gat)
        nodes = cheb_conv(nodes, self.laplacian, cheb)
        h = reshape(transpose(nodes), (self.spec.cheb_out, gh, gw))
        if self.spec.com:
            _, h = center_of_mass(h)
        return h

    def predict_proba(self, image_hwc: np.ndarray) -> np.ndarray:
        """Probability map of an (H, W, 3) image in [0, 1] at its own size.

        Returns (H, W) for single-channel heads, else (C, H, W); see the
        module-level ``predict_proba``.
        """
        return predict_proba(self.forward, image_hwc, self.spec.input_size, self.dtype)

    # ---- bookkeeping ---------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())


def predict_proba(forward, image_hwc: np.ndarray, size: int, dtype) -> np.ndarray:
    """Run ``forward`` on an (H, W, 3) image of any size; the map comes back at (H, W).

    The image becomes the ``dataio.model_input`` of ``size`` and ``dtype``;
    the output is computed without recording and each channel is resized
    back. Returns float32 (H, W) for a single-channel output, else (C, H, W).
    """
    image = np.asarray(image_hwc)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"predict_proba: expected an (H, W, 3) image, got {image.shape}")
    h, w = image.shape[:2]
    with no_grad():
        out = forward(Tensor(model_input(image, size, dtype))).data
    if out.shape[0] == 1:
        return resize_bilinear(out[0], h, w)
    return resize_bilinear(out.transpose(1, 2, 0), h, w).transpose(2, 0, 1)


def build_model(spec: ModelSpec, dtype=np.float32) -> Model:
    """Assemble a zero-initialized model for the given configuration."""
    return Model(spec, dtype)


def glorot_uniform(rng, shape, dtype) -> np.ndarray:
    """One Glorot-uniform draw of a (C_out, C_in, *kernel) ``shape``, cast to ``dtype``; its
    fans are C_in and C_out times the kernel size, or 1 and n for a vector (n,)."""
    c_out, c_in = (*shape, 1)[:2]
    bound = math.sqrt(6.0 / ((c_in + c_out) * math.prod(shape[2:])))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(model: Model, seed: int) -> Model:
    """Zero the ``*.b`` biases and fill every other parameter with a ``glorot_uniform`` draw.

    Draws happen in declaration order from one seeded stream, so a seed
    pins every parameter and the encoder draws are shared across variants.
    """
    rng = np.random.RandomState(seed)
    for name, p in model.params.items():
        if name.endswith(".b"):
            p.data[...] = 0.0
        else:
            p.data[...] = glorot_uniform(rng, p.data.shape, p.data.dtype)
    return model


# ---- serialization -----------------------------------------------------------


def encode_gacm(kind: int, config: dict, params: dict, width: int) -> bytes:
    """A .gacm file: the header, ``config`` as compact sorted JSON, and ``params`` as
    little-endian floats of ``width`` bytes in dict order."""
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack(_HEADER, FORMAT_VERSION, kind, width, len(block)) + block
    return header + b"".join(p.data.astype(f"<f{width}", copy=False).tobytes()
                             for p in params.values())


def decode_gacm(path, kind: int, build):
    """The object in the .gacm file of ``kind`` at ``path``.

    ``build(config, dtype)`` makes it from the decoded configuration object
    and the file's float type, and the payload fills its ``params`` in dict
    order. Any file that cannot be read back is a ``ModelFormatError``.
    """
    what = "model" if kind == KIND_MODEL else "wrapper"
    source, path = path, Path(path)
    if not path.is_file():
        raise ModelFormatError(f"{what} file not found: {path}")
    blob = path.read_bytes()
    start = len(MAGIC) + struct.calcsize(_HEADER)
    if blob[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic bytes)")
    if len(blob) < start:
        raise ModelFormatError(f"{path}: truncated header")
    version, file_kind, width, config_len = struct.unpack_from(_HEADER, blob, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: format version {version} is not supported "
                               f"(this build reads version {FORMAT_VERSION})")
    if file_kind != kind:
        raise ModelFormatError(f"{path}: not a {what} file (payload kind {file_kind})")
    if width not in (4, 8):
        raise ModelFormatError(f"{path}: bad float width {width}")
    block = blob[start:start + config_len]
    if len(block) != config_len:
        raise ModelFormatError(f"{path}: truncated configuration block")
    built = build(decode_config(block, source), np.float32 if width == 4 else np.float64)
    payload = blob[start + config_len:]
    expected = sum(p.data.size for p in built.params.values()) * width
    if len(payload) != expected:
        raise ModelFormatError(f"{source}: parameter payload is {len(payload)} bytes, "
                               f"expected {expected}")
    values = np.frombuffer(payload, dtype=f"<f{width}")
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{source}: parameter payload holds non-finite values")
    offset = 0
    for p in built.params.values():
        p.data[...] = values[offset:offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size
    return built


def decode_config(block: bytes, source) -> dict:
    """The JSON object in a configuration block of UTF-8 bytes."""
    try:
        config = json.loads(block.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{source}: bad configuration block: {exc}") from exc
    if not isinstance(config, dict):
        raise ModelFormatError(f"{source}: configuration block is not a JSON object")
    return config


def serialize_model(model: Model) -> bytes:
    return encode_gacm(KIND_MODEL, asdict(model.spec), model.params, model.dtype.itemsize)


def save_model(model: Model, path):
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> Model:
    """The model in a .gacm file; any unreadable or unbuildable file is a ``ModelFormatError``."""
    def build(config: dict, dtype) -> Model:
        spec = ModelSpec.from_config(config, path)
        try:
            return build_model(spec, dtype)
        except (ValueError, MemoryError) as exc:
            raise ModelFormatError(f"{path}: cannot build the configured model: {exc}") from exc

    return decode_gacm(path, KIND_MODEL, build)


def model_checksum(model: Model) -> str:
    """Hex digest over the full serialized model, parameters included."""
    return hashlib.sha256(serialize_model(model)).hexdigest()

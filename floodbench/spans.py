"""In-memory span recorder that wraps floodseg's public functions from outside.

A ``Tracer`` rebinds each target function in every ``floodseg`` module that
holds it (``from .x import f`` copies the binding, so patching the defining
module alone would miss most callers) and restores every binding on exit.
Each wrapped call records a span: name, start, end and parent index.

Backward time is attributed per layer by hooking ``tensor.record_op``: a
tape node created while a layer's span is innermost gets its backward
closure wrapped in a ``<layer>.bwd`` span. Those spans nest under the
``tensor.backward`` span, whose self time is then the walk itself.

Counters (calls, tape nodes, computed buffer bytes) are integers taken from
array shapes, so two runs over the same shapes give identical counts.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (owner, attribute, span name). Owners are "module" or "module:Class".
TARGETS = (
    ("floodseg.convnn", "conv2d", "convnn.conv2d"),
    ("floodseg.convnn", "maxpool2", "convnn.pool_up"),
    ("floodseg.convnn", "upsample2", "convnn.pool_up"),
    ("floodseg.convnn", "dice_loss", "convnn.loss"),
    ("floodseg.convnn", "bce_loss", "convnn.loss"),
    ("floodseg.graphnn", "gat_conv", "graphnn.gat_conv"),
    ("floodseg.graphnn", "cheb_conv", "graphnn.cheb_conv"),
    ("floodseg.graphnn", "center_of_mass", "graphnn.center_of_mass"),
    ("floodseg.graphnn", "build_grid_graph", "graphnn.build"),
    ("floodseg.graphnn", "normalized_laplacian", "graphnn.build"),
    ("floodseg.tensor:Tensor", "backward", "tensor.backward"),
    ("floodseg.optim:Adam", "step", "optim.step"),
    ("floodseg.train:PairDataset", "get", "train.data_wait"),
    ("floodseg.model:Model", "forward", "model.forward"),
    ("floodseg.model", "load_model", "model.load"),
    ("floodseg.model", "serialize_model", "model.serialize"),
    ("floodseg.dataio", "load_image", "dataio.read"),
    ("floodseg.dataio", "load_mask", "dataio.read"),
    ("floodseg.dataio", "resize_bilinear", "dataio.resize"),
    ("floodseg.dataio", "save_image", "dataio.write"),
    ("floodseg.dataio", "save_mask", "dataio.write"),
    ("floodseg.dataio", "prepare_dataset", "dataio.prepare"),
    ("floodseg.metrics", "iou", "metrics.score"),
    ("floodseg.metrics", "dice_score", "metrics.score"),
    ("floodseg.reprogram", "input_transform", "reprogram.program"),
    ("floodseg.reprogram", "output_map", "reprogram.program"),
    ("floodseg.reprogram:ReprogramWrapper", "verify_frozen", "reprogram.verify_frozen"),
)

GRAPH_LAYERS = ("graphnn.gat_conv", "graphnn.cheb_conv")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    their summed duration is the part of the parent they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans and counters; ``install`` patches, ``restore`` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []    # (namespace dict or class, key, original)
        self._square_side = None           # node count inside a graph layer call

    # ---- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _timed(self, name: str, fn, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- patching -----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every floodseg module global bound to ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "floodseg" or modname.startswith("floodseg.")):
                continue
            namespace = vars(module)
            registries = [v for v in namespace.values() if isinstance(v, dict)]  # e.g. LOSSES
            for mapping in [namespace] + registries:
                for key, value in list(mapping.items()):
                    if value is original:
                        self._patches.append((mapping, key, original))
                        mapping[key] = replacement

    def install(self):
        """Wrap every target that exists in the loaded floodseg modules."""
        import floodseg.tensor  # noqa: F401  (record_op's home must be loaded)

        for owner, attr, name in TARGETS:
            modname, _, clsname = owner.partition(":")
            module = sys.modules.get(modname)
            if module is None:
                continue
            if clsname:
                cls = getattr(module, clsname, None)
                if cls is None or attr not in vars(cls):
                    continue
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._timed(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if name in GRAPH_LAYERS:
                wrapped = self._graph_layer(name, original)
            else:
                count = self._count_conv if name == "convnn.conv2d" else None
                wrapped = self._timed(name, original, count)
            self._rebind(original, wrapped)
        record_op = floodseg.tensor.record_op
        self._rebind(record_op, self._record_op(record_op))
        return self

    def restore(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # ---- hooks ----------------------------------------------------------------

    def _graph_layer(self, name: str, fn):
        tracer = self

        def wrapper(features, *args, **kwargs):
            outer = tracer._square_side
            tracer._square_side = features.data.shape[0]
            index = tracer.begin(name)
            try:
                return fn(features, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer._square_side = outer

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_conv(self, args, out):
        x, weight = args[0], args[1]
        c_in, k = weight.data.shape[1], weight.data.shape[2]
        ho, wo = out.data.shape[-2:]
        batch = out.data.size // (out.data.shape[-3] * ho * wo)
        cols = batch * c_in * k * k * ho * wo * out.data.dtype.itemsize
        # The backward pass materialises a gradient buffer of the same shape.
        copies = 2 if out._backward_fn is not None and x.requires_grad else 1
        self.counts["convnn.conv2d.calls"] += 1
        self.counts["convnn.im2col_bytes"] += copies * cols

    def _record_op(self, fn):
        tracer = self

        def record_op(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            layer = tracer.current()
            side = tracer._square_side
            if (side is not None and layer in GRAPH_LAYERS and out.data.ndim == 2
                    and out.data.shape == (side, side)):
                tracer.counts["graphnn.dense_bytes"] += out.data.nbytes
            if out._backward_fn is not None:
                tracer.counts["tensor.tape_nodes"] += 1
                out._backward_fn = tracer._timed(f"{layer or 'bench'}.bwd", out._backward_fn)
            return out

        record_op.__wrapped__ = fn
        return record_op


def held_square_bytes(*objects) -> int:
    """Bytes of square 2-D arrays held as attributes of ``objects`` (computed).

    Used for the dense n x n matrices a graph and its Laplacian keep alive;
    an object without such arrays (or without a ``__dict__``) counts 0.
    """
    total = 0
    for obj in objects:
        if obj is None:
            continue
        values = list(getattr(obj, "__dict__", {}).values())
        nodes = getattr(obj, "node_count", None)
        for value in values:
            if isinstance(value, dict):
                values.extend(value.values())
                continue
            array = value if hasattr(value, "nbytes") else getattr(value, "data", None)
            shape = getattr(array, "shape", None)
            if shape is not None and len(shape) == 2 and shape[0] == shape[1] == nodes:
                total += array.nbytes
    return total

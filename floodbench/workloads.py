"""The benchmark's three workloads, each driven through floodseg's public API.

Every workload splits into inputs (made from the seed, not timed), a set-up
(timed as ``setup_s``: what a user waits for before the first unit) and
rounds. A round's timed phase is one closed-loop call into the program; the
per-unit latencies inside it come from the end of each optimizer step or
request. Each round also checks its own outputs.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Wrapped functions are called through their modules, so that a tracer's
# rebinding of the module attribute is seen here too.
from floodseg import dataio
from floodseg import model as net
from floodseg.optim import Adam
from floodseg.reprogram import ReprogramWrapper, make_pretrained_base, reprogram_train
from floodseg.synthetic import write_flood_set
from floodseg.train import train_model
from spans import held_square_bytes


@dataclass
class Round:
    start: float = 0.0                            # perf_counter at the timed phase's start
    seconds: float = 0.0                          # timed phase
    latencies: list = field(default_factory=list)  # seconds per unit
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    final_loss: float | None = None
    fingerprint: str | None = None               # must repeat for the same seed
    validate_seconds: float = 0.0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # exact counters, traced rounds only
    held_graph_bytes: int = 0                    # dense n x n matrices the model keeps


@contextmanager
def step_marks():
    """Record ``perf_counter()`` at the end of every ``Adam.step`` call."""
    marks = []
    original = Adam.__dict__["step"]

    def step(self):
        original(self)
        marks.append(time.perf_counter())

    Adam.step = step
    try:
        yield marks
    finally:
        Adam.step = original


def unit_latencies(start, ends, breaks=()) -> list[float]:
    """Time from the later of the previous unit's end and the last break to each end."""
    out = []
    previous = start
    for end in ends:
        resume = max([previous] + [b for b in breaks if b < end])
        out.append(end - resume)
        previous = end
    return out


def params_digest(params) -> str:
    """SHA-256 over parameter bytes, computed here rather than by the program."""
    digest = hashlib.sha256()
    for name, p in params.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def mask_problem(path: Path, shape) -> str | None:
    """Parse a written P5 mask independently; it must be ``shape`` and only 0/255."""
    raw = path.read_bytes()
    fields = raw.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or fields[3] != b"255":
        return f"{path.name}: not a P5 graymap with maxval 255"
    width, height = int(fields[1]), int(fields[2])
    if (height, width) != tuple(shape):
        return f"{path.name}: mask is {height}x{width}, scene is {shape[0]}x{shape[1]}"
    pixels = np.frombuffer(raw[-width * height:], dtype=np.uint8)
    if not np.isin(pixels, (0, 255)).all():
        return f"{path.name}: mask holds values other than 0 and 255"
    return None


class Train256:
    """``train_model`` on gac-unet 256 px (16,32,64), batch 4, dice loss, 2 epochs."""

    name = "train-256"
    unit = "optimizer step"
    spec_kwargs = dict(input_size=256, widths=(16, 32, 64), variant="gac-unet")
    crops = 8          # two batches per epoch
    epochs = 2         # epoch 1 reads cold, epoch 2 hits the PairDataset cache
    batch_size = 4

    def make_inputs(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        write_flood_set(workdir / "raw", count=2, size=320, seed=seed)

    def new_model(self):
        spec = net.ModelSpec(seed=self.seed, **self.spec_kwargs)
        return net.init_params(net.build_model(spec), self.seed)

    def setup(self):
        result = dataio.prepare_dataset(self.workdir / "raw", self.workdir / "prepared",
                                        self.seed, resize=288, crop=256)
        entries = dataio.read_manifest(result.manifest_path)
        train = [e for e in entries if e.split == "train"][:self.crops]
        val = [e for e in entries if e.split == "test"]
        self.new_model()        # timed as set-up; each round trains its own copy
        return train, val

    def run_round(self, state, timed) -> Round:
        train, val = state
        model = self.new_model()    # same initial weights every round, built untimed
        epochs = []
        rnd = Round(attempted=self.epochs * math.ceil(len(train) / self.batch_size))
        with step_marks() as ends:
            with timed(rnd):
                result = train_model(model, train, val, loss="dice", epochs=self.epochs,
                                     batch_size=self.batch_size, lr=1e-3, seed=self.seed,
                                     on_epoch=lambda row: epochs.append(time.perf_counter()))
        rnd.latencies = unit_latencies(rnd.start, ends, epochs)
        rnd.samples = self.epochs * len(train)
        rnd.validate_seconds = sum(mark - max(e for e in ends if e < mark)
                                   for mark in epochs)
        losses = [row.loss for row in result.rows]
        if not all(math.isfinite(v) for v in losses):
            rnd.failed = rnd.attempted
            rnd.problems.append(f"non-finite epoch loss {losses}")
        rnd.final_loss = losses[-1]
        rnd.fingerprint = f"{losses[-1]!r}:{hashlib.sha256(result.model_bytes).hexdigest()}"
        rnd.held_graph_bytes = held_square_bytes(model.graph, model.laplacian)
        return rnd


class Predict512:
    """The ``floodseg predict`` path per request on gac-unet 512 px (16,32,64)."""

    name = "predict-512"
    unit = "request"
    scenes = 3
    native = 400       # differs from 512, so both resizes do real work

    def make_inputs(self, seed: int, workdir: Path):
        self.workdir = workdir
        spec = net.ModelSpec(input_size=512, widths=(16, 32, 64), variant="gac-unet", seed=seed)
        model = net.init_params(net.build_model(spec), seed)
        self.model_path = workdir / "model.gacm"
        net.save_model(model, self.model_path)
        written = write_flood_set(workdir / "scenes", count=self.scenes, size=self.native,
                                  seed=seed)
        self.images = [Path(image) for image, _ in written]
        self.requests = 0

    def setup(self):
        return net.load_model(self.model_path)

    def run_round(self, model, timed) -> Round:
        image_path = self.images[self.requests % len(self.images)]
        out_path = self.workdir / f"pred_{self.requests % len(self.images)}.pgm"
        self.requests += 1
        rnd = Round(attempted=1, samples=1)
        with timed(rnd):
            image = dataio.load_image(image_path)
            size = model.spec.input_size
            prob = model.predict_proba(dataio.resize_bilinear(image, size, size))
            prob = dataio.resize_bilinear(prob, image.shape[0], image.shape[1])
            dataio.save_mask(out_path, (prob > 0.5).astype(np.float32))
        rnd.latencies = [rnd.seconds]
        problem = mask_problem(out_path, (self.native, self.native))
        if problem:
            rnd.failed = 1
            rnd.problems.append(problem)
        rnd.held_graph_bytes = held_square_bytes(model.graph, model.laplacian)
        return rnd


class Reprogram32:
    """``reprogram_train`` around the pretrained plain-unet base, 32 px (4,8), batch 4."""

    name = "reprogram-32"
    unit = "optimizer step"
    steps = 50
    batch_size = 4

    def make_inputs(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        write_flood_set(workdir / "raw", count=10, size=48, seed=seed)

    def setup(self):
        result = dataio.prepare_dataset(self.workdir / "raw", self.workdir / "prepared",
                                        self.seed, resize=48, crop=32)
        pairs = [dataio.ImagePair(dataio.load_image(e.image_path),
                                  dataio.binarize_mask(dataio.load_mask(e.mask_path)),
                                  Path(e.image_path).stem)
                 for e in dataio.read_manifest(result.manifest_path) if e.split == "train"]
        base = make_pretrained_base(c_old=8, size=32, widths=(4, 8), seed=self.seed)
        return pairs, base, params_digest(base.params)

    def run_round(self, state, timed) -> Round:
        pairs, base, digest = state
        wrapper = ReprogramWrapper(base, seed=self.seed)
        rnd = Round(attempted=self.steps, samples=self.steps * self.batch_size)
        with step_marks() as ends:
            with timed(rnd):
                losses = reprogram_train(wrapper, pairs, self.steps, loss="dice",
                                         batch_size=self.batch_size, seed=self.seed)
        rnd.latencies = unit_latencies(rnd.start, ends)
        bad = sum(not math.isfinite(v) for v in losses)
        if bad:
            rnd.failed = bad
            rnd.problems.append(f"{bad} non-finite step losses")
        if params_digest(base.params) != digest:
            rnd.failed = rnd.attempted
            rnd.problems.append("frozen base parameters changed")
        rnd.final_loss = sum(losses[-10:]) / len(losses[-10:])
        rnd.fingerprint = repr(rnd.final_loss)
        return rnd


WORKLOADS = {w.name: w for w in (Train256, Predict512, Reprogram32)}

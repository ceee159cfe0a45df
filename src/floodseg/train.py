"""Training: one minibatch step under two schedules.

``train_step`` is the only place a loss meets the optimizer; its finiteness
check, not numpy's overflow warnings, judges a diverging forward pass.
``train_model`` runs it over epochs: the entries are shuffled each epoch from
one seeded stream, and a batch's pairs are read through ``dataio.load_pair``
into ``model_arrays`` samples when it is drawn, so nothing read is kept
across steps. Validation, and the early-stop score, are ``metrics.evaluate``
over ``Model.predict_proba`` at each image's own size (the metric
``floodseg eval`` reports) over pairs read one at a time, and the
best-validation-dice snapshot is kept when validation entries are given.
``train_for_steps`` runs it a fixed number of times over a seeded refill
queue of in-memory samples, for reprogramming and base pretraining. The
schedules draw from the seeded stream differently and stay separate; in
both, a (config, seed) pair pins the whole trajectory. Callers name a loss
through ``convnn.loss_named`` and hand Adam's settings to ``Adam`` as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convnn import loss_named
from .dataio import load_pair, load_pairs, model_arrays
from .metrics import evaluate
from .model import Model, serialize_model
from .optim import Adam
from .tensor import Tensor


class NumericFailure(RuntimeError):
    """A non-finite loss; ``batch_id`` is ``epoch:batch`` or the step index."""

    def __init__(self, message: str, batch_id: str):
        super().__init__(message)
        self.batch_id = batch_id


def train_step(forward, optimizer: Adam, loss_fn, samples, batch_id: str) -> float:
    """One Adam update on the loss of (input, target) ``samples`` stacked into one batch.

    The forward pass and its tape cover the whole batch. Returns the loss; a
    non-finite one raises before any backward pass. numpy's floating-point
    warnings are off in the forward pass and the loss; that check judges them.
    """
    optimizer.zero_grad()
    inputs, targets = zip(*samples)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss = loss_fn(forward(Tensor(np.stack(inputs))), Tensor(np.stack(targets)))
    value = loss.item()
    if not np.isfinite(value):
        raise NumericFailure(f"non-finite loss {value} in batch {batch_id}", batch_id)
    loss.backward()
    optimizer.step()
    return value


def check_schedule(count: int, steps: int, batch_size: int):
    """``train_for_steps``'s check: a ``ValueError`` names the first bad setting."""
    if not count:
        raise ValueError("train_for_steps: no samples")
    if batch_size < 1:
        raise ValueError(f"train_for_steps: batch_size must be >= 1, got {batch_size}")
    if steps < 0:
        raise ValueError(f"train_for_steps: steps must be >= 0, got {steps}")


def train_for_steps(forward, optimizer: Adam, loss_fn, data, steps: int,
                    batch_size: int, seed: int) -> list[float]:
    """``steps`` updates over ``data``; returns the per-step losses.

    Batches come off a queue topped up with seeded permutations of ``data``
    while it is shorter than ``batch_size``, so any data size fills a batch.
    """
    check_schedule(len(data), steps, batch_size)
    rng = np.random.RandomState(seed)
    order = []
    losses = []
    for step in range(steps):
        while len(order) < batch_size:
            order.extend(rng.permutation(len(data)))
        batch = [data[order.pop(0)] for _ in range(batch_size)]
        losses.append(train_step(forward, optimizer, loss_fn, batch, str(step)))
    return losses


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_iou: float | None
    val_dice: float | None

    def format(self) -> str:
        vi = "-" if self.val_iou is None else f"{self.val_iou:.6f}"
        vd = "-" if self.val_dice is None else f"{self.val_dice:.6f}"
        return f"{self.epoch}\t{self.loss:.6f}\t{vi}\t{vd}"


class PairDataset:
    """Manifest entries as ``model_arrays`` samples at the input size, read anew by each ``get``."""

    def __init__(self, entries, size: int, dtype=np.float32):
        self.entries = list(entries)
        self.size = size
        self.dtype = np.dtype(dtype)

    def __len__(self):
        return len(self.entries)

    def get(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self.entries[index]
        return model_arrays(load_pair(entry.image_path, entry.mask_path), self.size, self.dtype)


@dataclass
class TrainResult:
    rows: list
    model_bytes: bytes          # best-validation snapshot, or the final state
    best_epoch: int | None


def train_model(model: Model, train_entries, val_entries=(), *, loss: str = "dice",
                epochs: int = 1, batch_size: int = 4, seed: int = 0, freeze=(),
                early_stop_train_dice: float = 0.0, on_epoch=None, **adam) -> TrainResult:
    """Train ``model`` in place; ``freeze`` holds parameter-name prefixes.

    Matching parameters get ``requires_grad`` off, the rest on, and keep it on
    return: Adam sees only the trainable ones and a frozen layer records no
    tape. A prefix that matches no parameter, a ``freeze`` that leaves none
    to train, or a bare ``str`` (which would freeze by its single
    characters), is a ``ValueError``. ``adam`` goes to ``Adam`` as its
    keyword settings. Every setting, Adam's included, is checked before any
    pair is read.
    """
    loss_fn = loss_named(loss)
    if batch_size < 1:
        raise ValueError(f"train_model: batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"train_model: epochs must be >= 0, got {epochs}")
    if not 0.0 <= early_stop_train_dice <= 1.0:
        raise ValueError(f"train_model: early_stop_train_dice must lie in [0, 1] (0 is off), "
                         f"got {early_stop_train_dice}")
    if isinstance(freeze, str):
        raise ValueError(f"train_model: freeze must be a sequence of name prefixes, "
                         f"not the string {freeze!r}; pass ({freeze!r},)")
    for prefix in freeze:
        if not any(name.startswith(prefix) for name in model.params):
            raise ValueError(f"train_model: freeze prefix {prefix!r} matches no parameter")
    trainable = {name: p for name, p in model.params.items()
                 if not name.startswith(tuple(freeze))}
    if not trainable:
        raise ValueError(f"train_model: freeze {','.join(freeze)} leaves no parameter to train")
    train_ds = PairDataset(train_entries, model.spec.input_size, model.dtype)
    val_entries = list(val_entries)     # walked again each epoch, so not a generator
    if len(train_ds) == 0:
        raise ValueError("train_model: no training entries")
    try:
        optimizer = Adam(trainable, **adam)
    except TypeError as exc:    # a misspelt keyword of this call, not of Adam's
        raise TypeError(f"train_model: {exc}") from None
    for name, p in model.params.items():
        p.requires_grad = name in trainable
    rng = np.random.RandomState(seed)
    rows = []
    best_dice = -1.0
    best_bytes = None
    best_epoch = None

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_ds))
        total = 0.0
        batches = 0
        for start in range(0, len(order), batch_size):
            samples = map(train_ds.get, order[start:start + batch_size].tolist())
            total += train_step(model.forward, optimizer, loss_fn, samples,
                                f"{epoch}:{batches}")
            batches += 1

        val_iou = val_dice = None
        if val_entries:
            report = evaluate(model.predict_proba, load_pairs(val_entries))
            val_iou, val_dice = report.mean_iou, report.mean_dice
            if val_dice > best_dice:
                best_dice = val_dice
                best_bytes = serialize_model(model)
                best_epoch = epoch
        row = EpochLog(epoch, total / batches, val_iou, val_dice)
        rows.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if early_stop_train_dice and (evaluate(model.predict_proba, load_pairs(train_ds.entries))
                                      .mean_dice >= early_stop_train_dice):
            break

    if best_bytes is None:
        best_bytes = serialize_model(model)
    return TrainResult(rows, best_bytes, best_epoch)

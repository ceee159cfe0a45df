"""Segmentation metrics over binary masks and the evaluation report.

All inputs are binary maps (values 0 and 1). ``iou`` and ``dice_score``
count pixels in exact integer arithmetic before one final division; the
empty-vs-empty case scores 1.0 for both. ``mean_average_precision`` is the
mean, over an ascending threshold grid, of the fraction of images whose IoU
reaches each threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import binarize_mask

DEFAULT_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def _as_binary(mask, name: str, op: str) -> np.ndarray:
    arr = np.asarray(mask)
    values_ok = np.logical_or(arr == 0, arr == 1).all()
    if not values_ok:
        raise ValueError(f"{op}: {name} mask must be binary (0/1)")
    return arr != 0


def _counts(pred, true, op: str) -> tuple[int, int, int]:
    p = _as_binary(pred, "pred", op)
    t = _as_binary(true, "true", op)
    if p.shape != t.shape:
        raise ValueError(f"{op}: shape mismatch {p.shape} vs {t.shape}")
    intersection = int(np.logical_and(p, t).sum())
    return intersection, int(p.sum()), int(t.sum())


def iou(pred_mask, true_mask) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    intersection, np_, nt = _counts(pred_mask, true_mask, "iou")
    union = np_ + nt - intersection
    return 1.0 if union == 0 else intersection / union


def dice_score(pred_mask, true_mask) -> float:
    """2 * intersection / (|pred| + |true|); 1.0 when both masks are empty."""
    intersection, np_, nt = _counts(pred_mask, true_mask, "dice_score")
    total = np_ + nt
    return 1.0 if total == 0 else 2 * intersection / total


def precision_at(per_image_ious, threshold: float) -> float:
    """Fraction of images whose IoU meets the threshold."""
    ious = list(per_image_ious)
    if not ious:
        raise ValueError("precision_at: no per-image IoUs given")
    return sum(1 for v in ious if v >= threshold) / len(ious)


def mean_average_precision(per_image_ious, thresholds=DEFAULT_THRESHOLDS) -> float:
    """Mean per-threshold hit fraction over an ascending threshold grid."""
    ious = list(per_image_ious)
    thresholds = list(thresholds)
    if not ious:
        raise ValueError("mean_average_precision: no per-image IoUs given")
    if not thresholds or any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("mean_average_precision: thresholds must be ascending and non-empty")
    if not all(0 <= t <= 1 for t in thresholds):
        raise ValueError("mean_average_precision: thresholds must lie in [0, 1]")
    if not all(0 <= v <= 1 for v in ious):
        raise ValueError("mean_average_precision: IoUs must lie in [0, 1]")
    precisions = [precision_at(ious, t) for t in thresholds]
    return sum(precisions) / len(precisions)


@dataclass
class ImageScore:
    image_id: str
    iou: float
    dice: float


@dataclass
class MetricReport:
    """Per-image scores plus corpus aggregates, printable as TSV lines."""

    scores: list
    pred_threshold: float
    thresholds: tuple = DEFAULT_THRESHOLDS
    mean_iou: float = field(init=False)
    mean_dice: float = field(init=False)
    map_score: float = field(init=False)
    precision_table: dict = field(init=False)

    def __post_init__(self):
        if not self.scores:
            raise ValueError("MetricReport: no image scores")
        ious = [s.iou for s in self.scores]
        self.mean_iou = sum(ious) / len(ious)
        self.mean_dice = sum(s.dice for s in self.scores) / len(self.scores)
        self.precision_table = {t: precision_at(ious, t) for t in self.thresholds}
        self.map_score = mean_average_precision(ious, self.thresholds)

    def to_lines(self) -> list[str]:
        lines = [f"{s.image_id}\t{s.iou:.6f}\t{s.dice:.6f}" for s in self.scores]
        lines.append(f"# mean_iou\t{self.mean_iou:.6f}")
        lines.append(f"# mean_dice\t{self.mean_dice:.6f}")
        lines.append(f"# map\t{self.map_score:.6f}")
        for t in self.thresholds:
            lines.append(f"# precision@{t:.2f}\t{self.precision_table[t]:.6f}")
        lines.append(f"# pred_threshold\t{self.pred_threshold:.2f}")
        return lines

    def __str__(self):
        return "\n".join(self.to_lines())


def evaluate(predict, pairs, pred_threshold: float = 0.5) -> MetricReport:
    """Score a predictor over image pairs.

    ``predict`` maps an (H, W, 3) image to an (H, W) probability map, which
    is binarized by ``dataio.binarize_mask`` at ``pred_threshold``, which
    must lie in [0, 1], before scoring against the pair's binarized mask.
    """
    if not 0 <= pred_threshold <= 1:
        raise ValueError(f"evaluate: pred_threshold {pred_threshold} must lie in [0, 1]")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("evaluate: no pairs to score")
    scores = []
    for pair in pairs:
        prob = np.asarray(predict(pair.image))
        if prob.shape != pair.mask.shape:
            raise ValueError(f"evaluate: prediction shape {prob.shape} != mask "
                             f"{pair.mask.shape} for {pair.source_id}")
        pred, true = binarize_mask(prob, pred_threshold), binarize_mask(pair.mask)
        scores.append(ImageScore(pair.source_id, iou(pred, true), dice_score(pred, true)))
    return MetricReport(scores, pred_threshold)

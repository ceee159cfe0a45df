"""Segmentation metrics over binary masks and the evaluation report.

All inputs are binary maps (values 0 and 1). ``_overlap`` validates a mask
pair and counts it once, in exact integers, for both IoU and dice (1.0 each
when both masks are empty); ``iou``, ``dice_score`` and each image of
``evaluate`` read that one count. ``mean_average_precision`` is the
mean, over the fixed IoU grid ``IOU_THRESHOLDS`` (0.50:0.05:0.95, as in
COCO), of the fraction of images whose IoU reaches each threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import binarize_mask

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def _as_binary(mask, name: str, op: str) -> np.ndarray:
    arr = np.asarray(mask)
    if not np.logical_or(arr == 0, arr == 1).all():
        raise ValueError(f"{op}: {name} mask must be binary (0/1)")
    return arr != 0


def _overlap(pred, true, op: str) -> tuple[float, float]:
    """IoU and dice of two binary masks of one shape, from one count of the pair."""
    p, t = _as_binary(pred, "pred", op), _as_binary(true, "true", op)
    if p.shape != t.shape:
        raise ValueError(f"{op}: shape mismatch {p.shape} vs {t.shape}")
    intersection = int(np.count_nonzero(p & t))
    total = int(np.count_nonzero(p)) + int(np.count_nonzero(t))    # |pred| + |true|
    if total == 0:
        return 1.0, 1.0
    return intersection / (total - intersection), 2 * intersection / total


def iou(pred_mask, true_mask) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    return _overlap(pred_mask, true_mask, "iou")[0]


def dice_score(pred_mask, true_mask) -> float:
    """2 * intersection / (|pred| + |true|); 1.0 when both masks are empty."""
    return _overlap(pred_mask, true_mask, "dice_score")[1]


def precision_at(per_image_ious, threshold: float) -> float:
    """Fraction of images whose IoU meets the threshold."""
    ious = list(per_image_ious)
    if not ious:
        raise ValueError("precision_at: no per-image IoUs given")
    return sum(1 for v in ious if v >= threshold) / len(ious)


def _precision_table(ious: list) -> dict:
    """``precision_at`` each threshold of ``IOU_THRESHOLDS``, in order."""
    if not all(0 <= v <= 1 for v in ious):
        raise ValueError("mean_average_precision: IoUs must lie in [0, 1]")
    return {t: precision_at(ious, t) for t in IOU_THRESHOLDS}


def mean_average_precision(per_image_ious) -> float:
    """Mean per-threshold hit fraction over ``IOU_THRESHOLDS``."""
    table = _precision_table(list(per_image_ious))
    return sum(table.values()) / len(table)


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
        self.precision_table = _precision_table(ious)
        self.map_score = sum(self.precision_table.values()) / len(self.precision_table)

    def to_lines(self) -> list[str]:
        lines = [f"{s.image_id}\t{s.iou:.6f}\t{s.dice:.6f}" for s in self.scores]
        lines.append(f"# mean_iou\t{self.mean_iou:.6f}")
        lines.append(f"# mean_dice\t{self.mean_dice:.6f}")
        lines.append(f"# map\t{self.map_score:.6f}")
        for t, precision in self.precision_table.items():
            lines.append(f"# precision@{t:.2f}\t{precision:.6f}")
        lines.append(f"# pred_threshold\t{self.pred_threshold:.2f}")
        return lines

    def __str__(self):
        return "\n".join(self.to_lines())


def evaluate(predict, pairs, pred_threshold: float = 0.5) -> MetricReport:
    """Score a predictor over image pairs.

    ``predict`` maps an (H, W, 3) image to an (H, W) probability map, which
    is binarized by ``dataio.binarize_mask`` at ``pred_threshold``, which
    must lie in [0, 1], before scoring against the pair's binarized mask.
    ``pairs`` is walked once, so a generator holds one pair at a time.
    """
    if not 0 <= pred_threshold <= 1:
        raise ValueError(f"evaluate: pred_threshold {pred_threshold} must lie in [0, 1]")
    scores = []
    for pair in pairs:
        prob = np.asarray(predict(pair.image))
        if prob.shape != pair.mask.shape:
            raise ValueError(f"evaluate: prediction shape {prob.shape} != mask "
                             f"{pair.mask.shape} for {pair.source_id}")
        pred, true = binarize_mask(prob, pred_threshold), binarize_mask(pair.mask)
        scores.append(ImageScore(pair.source_id, *_overlap(pred, true, "evaluate")))
    if not scores:
        raise ValueError("evaluate: no pairs to score")
    return MetricReport(scores, pred_threshold)

"""Mask metrics against pixel-count oracles and the report format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodseg import metrics
from floodseg.dataio import ImagePair, binarize_mask
from floodseg.metrics import (IOU_THRESHOLDS, MetricReport, ImageScore,
                              dice_score, evaluate, iou, mean_average_precision,
                              precision_at)


def counting_oracle(pred, true):
    """Scalar loop: count intersection/union/sizes one pixel at a time."""
    inter = union = np_ = nt = 0
    for p, t in zip(pred.ravel(), true.ravel()):
        p, t = bool(p), bool(t)
        inter += p and t
        union += p or t
        np_ += p
        nt += t
    oracle_iou = 1.0 if union == 0 else inter / union
    oracle_dice = 1.0 if np_ + nt == 0 else 2 * inter / (np_ + nt)
    return oracle_iou, oracle_dice


def test_iou_and_dice_match_counting_oracle_exactly():
    rng = np.random.RandomState(0)
    for _ in range(100):
        pred = (rng.uniform(0, 1, (16, 16)) > rng.uniform(0.2, 0.8)).astype(np.uint8)
        true = (rng.uniform(0, 1, (16, 16)) > rng.uniform(0.2, 0.8)).astype(np.uint8)
        want_iou, want_dice = counting_oracle(pred, true)
        assert iou(pred, true) == want_iou
        assert dice_score(pred, true) == want_dice


def test_edge_cases_for_empty_masks():
    empty = np.zeros((4, 4), dtype=np.uint8)
    ones = np.ones((4, 4), dtype=np.uint8)
    assert iou(empty, empty) == 1.0
    assert dice_score(empty, empty) == 1.0
    assert iou(empty, ones) == 0.0
    assert dice_score(ones, empty) == 0.0
    assert iou(ones, ones) == 1.0


def test_dice_is_determined_by_iou():
    rng = np.random.RandomState(1)
    for _ in range(50):
        pred = (rng.uniform(0, 1, (8, 8)) > 0.5).astype(np.uint8)
        true = (rng.uniform(0, 1, (8, 8)) > 0.5).astype(np.uint8)
        j = iou(pred, true)
        assert abs(dice_score(pred, true) - 2 * j / (1 + j)) < 1e-12


def test_inputs_must_be_binary_and_same_shape():
    with pytest.raises(ValueError):
        iou(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        dice_score(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        iou(np.zeros((2, 2)), np.zeros((2, 3)))
    # float 0.0/1.0 values are fine
    assert iou(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 1.0


def test_precision_at_counts_meets():
    ious = [0.4, 0.5, 0.6]
    assert precision_at(ious, 0.5) == 2 / 3
    assert precision_at(ious, 0.65) == 0.0
    assert precision_at(ious, 0.4) == 1.0
    with pytest.raises(ValueError):
        precision_at([], 0.5)


def test_map_on_uniform_point_seven_is_half():
    assert mean_average_precision([0.70] * 7) == 0.5


def test_map_matches_direct_enumeration():
    rng = np.random.RandomState(2)
    for _ in range(20):
        ious = rng.uniform(0, 1, rng.randint(1, 12)).tolist()
        want = sum(sum(1 for v in ious if v >= t) / len(ious)
                   for t in IOU_THRESHOLDS) / len(IOU_THRESHOLDS)
        assert abs(mean_average_precision(ious) - want) < 1e-15


def test_map_validates_inputs():
    with pytest.raises(ValueError):
        mean_average_precision([])
    assert mean_average_precision([1.0]) == 1.0
    assert mean_average_precision([0.0, 1.0]) == 0.5


@pytest.mark.parametrize("ious", [[float("nan"), 1.0], [0.5, -0.1], [1.5]],
                         ids=["nan-iou", "negative-iou", "iou-above-one"])
def test_map_refuses_non_finite_and_out_of_range_values(ious):
    with pytest.raises(ValueError, match="IoUs must lie in"):
        mean_average_precision(ious)
    with pytest.raises(ValueError, match="IoUs must lie in"):
        MetricReport([ImageScore(str(i), v, v) for i, v in enumerate(ious)], pred_threshold=0.5)


def test_default_threshold_grid():
    assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


# ---- report -------------------------------------------------------------------


def test_report_aggregates_and_line_format():
    scores = [ImageScore("a", 0.5, 2 / 3), ImageScore("b", 1.0, 1.0)]
    report = MetricReport(scores, pred_threshold=0.5)
    assert report.mean_iou == 0.75
    assert abs(report.mean_dice - (2 / 3 + 1.0) / 2) < 1e-12
    assert report.precision_table[0.5] == 1.0
    assert report.precision_table[0.55] == 0.5

    lines = report.to_lines()
    assert lines[0] == "a\t0.500000\t0.666667"
    assert lines[1] == "b\t1.000000\t1.000000"
    assert "# mean_iou\t0.750000" in lines
    assert "# map\t0.550000" in lines          # b passes all 10, a passes only 0.50
    assert "# precision@0.95\t0.500000" in lines
    assert lines[-1] == "# pred_threshold\t0.50"
    assert str(report) == "\n".join(lines)

    with pytest.raises(ValueError):
        MetricReport([], pred_threshold=0.5)


def test_evaluate_binarizes_predictions_strictly_above_threshold():
    image = np.zeros((4, 4, 3), dtype=np.float32)
    mask = np.zeros((4, 4), dtype=np.float32)
    mask[:2] = 1.0
    pair = ImagePair(image, mask, "sample")

    def predict(img):
        prob = np.zeros((4, 4), dtype=np.float32)
        prob[:2] = 0.8
        prob[2] = 0.5          # exactly at threshold: stays negative
        return prob

    report = evaluate(predict, [pair], pred_threshold=0.5)
    assert report.scores[0].image_id == "sample"
    assert report.scores[0].iou == 1.0
    assert report.map_score == 1.0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 1.5])
def test_evaluate_refuses_a_threshold_outside_the_unit_interval(threshold):
    pair = ImagePair(np.zeros((4, 4, 3), dtype=np.float32),
                     np.zeros((4, 4), dtype=np.float32), "sample")
    with pytest.raises(ValueError, match="pred_threshold"):
        evaluate(lambda img: np.zeros((4, 4)), [pair], pred_threshold=threshold)


def test_evaluate_rejects_shape_drift():
    pair = ImagePair(np.zeros((4, 4, 3), dtype=np.float32),
                     np.zeros((4, 4), dtype=np.float32), "bad")
    with pytest.raises(ValueError):
        evaluate(lambda img: np.zeros((2, 2)), [pair])
    with pytest.raises(ValueError):
        evaluate(lambda img: np.zeros((4, 4)), [])


def random_pairs(seed: int, count: int, size: int, gray: bool, threshold: float = 0.5):
    """Pairs whose masks are 0/1 or gray bytes, and probability maps that hit ``threshold``."""
    rng = np.random.RandomState(seed)
    pairs, probs = [], {}
    for i in range(count):
        mask = rng.randint(0, 256, (size, size)) / 255 if gray else rng.randint(0, 2, (size, size))
        prob = rng.uniform(0, 1, (size, size))
        prob[rng.uniform(0, 1, prob.shape) < 0.2] = threshold
        pairs.append(ImagePair(rng.uniform(0, 1, (size, size, 3)).astype(np.float32),
                               mask.astype(np.float32), f"p{i}"))
        probs[f"p{i}"] = prob.astype(np.float32)
    return pairs, probs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 5), size=st.integers(1, 9),
       gray=st.booleans(),
       threshold=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_evaluate_scores_as_the_public_metrics_do(seed, count, size, gray, threshold):
    pairs, probs = random_pairs(seed, count, size, gray, threshold)
    by_image = {id(p.image): probs[p.source_id] for p in pairs}
    report = evaluate(lambda image: by_image[id(image)], pairs, threshold)

    ious = []
    for score, pair in zip(report.scores, pairs):
        pred = binarize_mask(probs[pair.source_id], threshold)
        true = binarize_mask(pair.mask)
        assert score.image_id == pair.source_id
        assert score.iou == iou(pred, true)
        assert score.dice == dice_score(pred, true)
        ious.append(score.iou)
    assert report.precision_table == {t: precision_at(ious, t) for t in IOU_THRESHOLDS}
    assert report.map_score == mean_average_precision(ious)


def test_evaluate_checks_each_scored_mask_once(monkeypatch):
    """k pairs cost 2k binary checks: one count per image serves both IoU and dice."""
    checked = []
    check = metrics._as_binary

    def counting(mask, *args):
        checked.append(mask)
        return check(mask, *args)

    monkeypatch.setattr(metrics, "_as_binary", counting)
    pairs, probs = random_pairs(seed=0, count=3, size=6, gray=True)
    by_image = {id(p.image): probs[p.source_id] for p in pairs}
    evaluate(lambda image: by_image[id(image)], pairs, 0.5)
    assert len(checked) == 2 * len(pairs)

"""Deterministic synthetic scenes for tests, demos, and offline runs.

``generate_flood_set`` produces small scenes of smooth wobbled-ellipse water
regions (cool, blue-leaning colors) over textured land (warm greens and
browns) with matching binary masks. ``generate_multiclass_set`` quantizes a
smooth random field into labeled regions for multi-channel pretraining.
Everything is a pure function of the seed. ``write_flood_set`` writes a
flood set as .ppm/.pgm pairs; ``floodseg synthetic`` runs it:

    floodseg synthetic --out_dir data/raw --count 20 --size 64 --seed 1
"""

from __future__ import annotations

import os

import numpy as np

from .dataio import ImagePair, save_pair


def _smooth_field(rng: np.random.RandomState, size: int, waves: int = 4) -> np.ndarray:
    """Random low-frequency field normalized into [0, 1]."""
    ys, xs = np.mgrid[0:size, 0:size] / size
    field = np.zeros((size, size))
    for _ in range(waves):
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * (fy * ys + fx * xs) + phase)
    lo, hi = field.min(), field.max()
    return ((field - lo) / (hi - lo + 1e-9)).astype(np.float32)


def _blob_mask(rng: np.random.RandomState, size: int, blob_scale: float = 1.0) -> np.ndarray:
    """Union of one to three wobbled ellipses as a boolean mask.

    ``blob_scale`` multiplies the ellipse radii: values well below 1 give
    foreground-scarce scenes for class-imbalance studies.
    """
    ys, xs = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(rng.randint(1, 4)):
        cy, cx = rng.uniform(0.25, 0.75, size=2) * size
        ry, rx = rng.uniform(0.16, 0.34, size=2) * size * blob_scale
        theta = rng.uniform(0, np.pi)
        wobble_amp = rng.uniform(0.05, 0.22)
        wobble_freq = rng.randint(2, 6)
        wobble_phase = rng.uniform(0, 2 * np.pi)
        dy, dx = ys - cy, xs - cx
        ry_ = dy * np.cos(theta) - dx * np.sin(theta)
        rx_ = dy * np.sin(theta) + dx * np.cos(theta)
        radius2 = (rx_ / rx) ** 2 + (ry_ / ry) ** 2
        angle = np.arctan2(ry_, rx_)
        boundary = 1.0 + wobble_amp * np.sin(wobble_freq * angle + wobble_phase)
        mask |= radius2 < boundary ** 2
    return mask


def generate_flood_pair(rng: np.random.RandomState, size: int = 64,
                        source_id: str = "flood", blob_scale: float = 1.0) -> ImagePair:
    land_a = _smooth_field(rng, size)
    land_b = _smooth_field(rng, size)
    land = np.stack([0.30 + 0.25 * land_a,
                     0.38 + 0.25 * land_b,
                     0.12 + 0.14 * land_a], axis=-1)
    water_a = _smooth_field(rng, size)
    water = np.stack([0.08 + 0.10 * water_a,
                      0.25 + 0.15 * water_a,
                      0.55 + 0.30 * water_a], axis=-1)
    mask = _blob_mask(rng, size, blob_scale)
    image = np.where(mask[..., None], water, land)
    image = image + rng.normal(0.0, 0.02, image.shape)
    return ImagePair(np.clip(image, 0.0, 1.0).astype(np.float32),
                     mask.astype(np.float32), source_id)


def generate_flood_set(count: int = 20, size: int = 64, seed: int = 0,
                       blob_scale: float = 1.0) -> list[ImagePair]:
    if count < 1 or size < 1:
        raise ValueError(f"count and size must be at least 1, got {count} and {size}")
    if not 0 < blob_scale < np.inf:
        raise ValueError(f"blob_scale must be finite and above 0, got {blob_scale}")
    rng = np.random.RandomState(seed)
    return [generate_flood_pair(rng, size, f"flood_{i:03d}", blob_scale)
            for i in range(count)]


def generate_multiclass_set(count: int, size: int, classes: int,
                            seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """(image, labels) pairs where labels partition the scene into classes."""
    rng = np.random.RandomState(seed)
    palette = rng.uniform(0.1, 0.9, size=(classes, 3))
    out = []
    for _ in range(count):
        field = _smooth_field(rng, size)
        edges = np.quantile(field, np.linspace(0, 1, classes + 1)[1:-1])
        labels = np.digitize(field, edges).astype(np.int64)
        image = palette[labels] + rng.normal(0.0, 0.03, (size, size, 3))
        out.append((np.clip(image, 0.0, 1.0).astype(np.float32), labels))
    return out


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """(C, H, W) float32 indicator channels for integer labels."""
    planes = np.zeros((classes,) + labels.shape, dtype=np.float32)
    for c in range(classes):
        planes[c] = labels == c
    return planes


def write_flood_set(out_dir, count: int = 20, size: int = 64, seed: int = 0,
                    blob_scale: float = 1.0) -> list[tuple[str, str]]:
    """Write ``generate_flood_set``'s pairs with ``dataio.save_pair``; returns their paths."""
    pairs = generate_flood_set(count, size, seed, blob_scale)
    os.makedirs(out_dir, exist_ok=True)
    return [tuple(map(str, save_pair(out_dir, pair))) for pair in pairs]

"""Netpbm image I/O and the dataset preparation pipeline.

Images are binary color pixmaps (P6 .ppm) and masks are binary graymaps
(P5 .pgm), both with max value 255. Loading scales bytes to floats in
[0, 1]; saving rounds back, so a save/load round trip is bit-exact.

Three data-path decisions have one owner each. ``binarize_mask`` is the
flood rule, strictly above a threshold: ``load_pair`` applies it to every
mask it reads, ``metrics.evaluate`` to truth and prediction, ``predict`` to
the mask it writes. ``model_input`` is the (3, S, S) model input behind
``model_arrays`` and ``predict_proba``; ``save_pair`` writes the pair
layout ``discover_pairs`` reads, ``<id>.ppm`` and ``<id>.pgm``.

Preparation binarizes each train pair's mask, resizes the pair with
half-pixel-center bilinear interpolation, and takes the four corner crops
and the center crop of the pair and of its horizontal and vertical mirror
views: 15 augmented pairs per train pair. Test pairs pass through untouched.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_FRACTION_NUM = 7    # train split is floor(0.7 * N), done in integers
TRAIN_FRACTION_DEN = 10

FLIPS = {"id": np.s_[:], "hf": np.s_[:, ::-1], "vf": np.s_[::-1]}   # name -> mirrored view
CROP_NAMES = ("tl", "tr", "bl", "br", "c")


class DataError(Exception):
    """A dataset-level problem: missing, unmatched, or malformed inputs."""


class PnmError(DataError):
    """Malformed netpbm payload; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# ---- netpbm parsing and writing -------------------------------------------


_PNM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*)*([^ \t\r\n#]*)")   # separators, then a token


def _parse_pnm(raw: bytes, want_magic: bytes, path) -> tuple[int, int, bytes]:
    fields = []
    pos = 0
    for what in ("magic number", "width", "height", "max value"):
        match = _PNM_TOKEN.match(raw, pos)
        token = match[1]
        if not token:
            raise PnmError(f"{path}: missing {what}", match.start(1))
        if fields:
            try:
                token = int(token)
            except ValueError:
                raise PnmError(f"{path}: invalid {what} {token!r}", pos) from None
            if token <= 0:
                raise PnmError(f"{path}: {what} must be positive, got {token}", pos)
        elif token != want_magic:
            raise PnmError(f"{path}: expected magic {want_magic.decode()}, got {token!r}", 0)
        fields.append(token)
        pos = match.end()
    _, width, height, maxval = fields
    if maxval != 255:
        raise PnmError(f"{path}: unsupported max value {maxval}, only 255 is handled", pos)
    if pos >= len(raw) or raw[pos:pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise PnmError(f"{path}: missing whitespace before pixel data", pos)
    pos += 1
    channels = 3 if want_magic == b"P6" else 1
    need = width * height * channels
    payload = raw[pos:]
    if len(payload) < need:
        raise PnmError(f"{path}: truncated pixel data, need {need} bytes, have {len(payload)}",
                       len(raw))
    if len(payload) > need:
        raise PnmError(f"{path}: {len(payload) - need} trailing bytes after pixel data",
                       pos + need)
    return width, height, payload


def _read_pnm(path, magic: bytes) -> np.ndarray:
    """A P6 file as float32 (H, W, 3) pixels in [0, 1], or a P5 file as (H, W)."""
    width, height, payload = _parse_pnm(Path(path).read_bytes(), magic, path)
    shape = (height, width, 3) if magic == b"P6" else (height, width)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape) / np.float32(255.0)


def _write_pnm(path, array, magic: bytes):
    """Write pixels in [0, 1] as a P6 (H, W, 3) or P5 (H, W) file, rounded to bytes."""
    array = np.asarray(array)
    tail = (3,) if magic == b"P6" else ()
    if array.ndim != 2 + len(tail) or array.shape[2:] != tail:
        raise DataError(f"{path}: expected a {'(H, W, 3)' if tail else '(H, W)'} array, "
                        f"got shape {array.shape}")
    h, w = array.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode())
        fh.write(np.round(np.clip(array, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes())


def load_image(path) -> np.ndarray:
    """Read a P6 color pixmap into a float32 (H, W, 3) array in [0, 1]."""
    return _read_pnm(path, b"P6")


def load_mask(path) -> np.ndarray:
    """Read a P5 graymap into a float32 (H, W) array in [0, 1]."""
    return _read_pnm(path, b"P5")


def save_image(path, image: np.ndarray):
    _write_pnm(path, image, b"P6")


def save_mask(path, mask: np.ndarray):
    _write_pnm(path, mask, b"P5")


def save_pair(out_dir, pair: ImagePair) -> tuple[Path, Path]:
    """Write a pair as ``<source_id>.ppm`` and ``<source_id>.pgm`` in ``out_dir``, the
    layout ``discover_pairs`` reads; returns the image and mask paths."""
    image_path, mask_path = (Path(out_dir) / f"{pair.source_id}{ext}" for ext in (".ppm", ".pgm"))
    save_image(image_path, pair.image)
    save_mask(mask_path, pair.mask)
    return image_path, mask_path


# ---- pairs and transforms ---------------------------------------------------


@dataclass
class ImagePair:
    """A color image, its binary mask, and an identifier used for filenames."""

    image: np.ndarray         # (H, W, 3) float32 in [0, 1]
    mask: np.ndarray          # (H, W) float32
    source_id: str

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise DataError(f"ImagePair {self.source_id}: image shape {self.image.shape} "
                            "is not (H, W, 3)")
        if self.mask.shape != self.image.shape[:2]:
            raise DataError(f"ImagePair {self.source_id}: mask shape {self.mask.shape} "
                            f"does not match image {self.image.shape[:2]}")


def binarize_mask(values, threshold: float = 0.5) -> np.ndarray:
    """The flood rule for masks and predictions: 1.0 strictly above ``threshold``, else 0.0."""
    return (np.asarray(values) > threshold).astype(np.float32)


def resize_bilinear(array: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers and edge clamping.

    Works on (H, W) and (H, W, C) arrays. Identical input and output extents
    return an exact copy.
    """
    arr = np.asarray(array, dtype=np.float32)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize_bilinear: target {(out_h, out_w)} is empty")
    in_h, in_w = arr.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return arr.copy()

    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0).astype(np.float32)[:, None]
    wx = (xs - x0).astype(np.float32)[None, :]
    if arr.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bottom = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return (top * (1 - wy) + bottom * wy).astype(np.float32)


def resize_pair(pair: ImagePair, size: int) -> ImagePair:
    """Resize both members to size x size; the mask is re-binarized."""
    return ImagePair(resize_bilinear(pair.image, size, size),
                     binarize_mask(resize_bilinear(pair.mask, size, size)),
                     pair.source_id)


def model_input(image: np.ndarray, size: int, dtype=np.float32) -> np.ndarray:
    """The model's input layout: an (H, W, 3) image resized to a contiguous (3, size, size)."""
    return np.ascontiguousarray(resize_bilinear(image, size, size).transpose(2, 0, 1), dtype=dtype)


def model_arrays(pair: ImagePair, size: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """One model sample: the ``model_input`` image and the re-binarized (1, size, size) target."""
    return (model_input(pair.image, size, dtype),
            binarize_mask(resize_bilinear(pair.mask, size, size))[None].astype(dtype))


def _check_crop(crop: int):
    """``five_crop``'s refusal of a crop below 1, which ``prepare_dataset`` also makes up front."""
    if crop < 1:
        raise ValueError(f"five_crop: crop must be >= 1, got {crop}")


def five_crop(pair: ImagePair, crop: int = 256) -> list[ImagePair]:
    """Four corner crops plus the centered crop, in tl/tr/bl/br/c order."""
    _check_crop(crop)
    h, w = pair.mask.shape
    if crop > h or crop > w:
        raise DataError(f"five_crop: crop {crop} exceeds input {(h, w)} for {pair.source_id}")
    cy, cx = (h - crop) // 2, (w - crop) // 2
    offsets = ((0, 0), (0, w - crop), (h - crop, 0), (h - crop, w - crop), (cy, cx))
    out = []
    for name, (r, c) in zip(CROP_NAMES, offsets):
        out.append(ImagePair(pair.image[r:r + crop, c:c + crop].copy(),
                             pair.mask[r:r + crop, c:c + crop].copy(),
                             f"{pair.source_id}_{name}"))
    return out


def augment_expand(pair: ImagePair, crop: int = 256) -> list[ImagePair]:
    """Expand one pair into 15: five crops of the pair and of its two mirrored views."""
    out = []
    for tag, flip in FLIPS.items():
        out.extend(five_crop(ImagePair(pair.image[flip], pair.mask[flip],
                                       f"{pair.source_id}_{tag}"), crop))
    return out


# ---- corpus discovery, splitting, manifests --------------------------------


def discover_pairs(dataset_dir) -> list[tuple[Path, Path]]:
    """Match *.ppm images to *.pgm masks by stem; any unmatched file is fatal."""
    root = Path(dataset_dir)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    images = {p.stem: p for p in sorted(root.glob("*.ppm"))}
    masks = {p.stem: p for p in sorted(root.glob("*.pgm"))}
    unmatched = sorted(set(images) ^ set(masks))
    if unmatched:
        raise DataError("unmatched image/mask stems: " + ", ".join(unmatched))
    if not images:
        raise DataError(f"no .ppm/.pgm pairs found in {root}")
    return [(images[stem], masks[stem]) for stem in sorted(images)]


def split_dataset(pairs, seed: int) -> tuple[list, list]:
    """Deterministic 70/30 split: sort by image path, shuffle with the seed.

    The train side takes the first floor(0.7 * N) entries of the shuffled
    order; computed in integer arithmetic so e.g. N=290 gives exactly 203.
    """
    pairs = sorted(pairs, key=lambda pair: str(pair[0]))
    n = len(pairs)
    if n < 2:
        raise DataError(f"split_dataset: need at least 2 pairs, got {n}")
    order = np.random.RandomState(seed).permutation(n)
    train_n = (TRAIN_FRACTION_NUM * n) // TRAIN_FRACTION_DEN
    train = [pairs[i] for i in order[:train_n]]
    test = [pairs[i] for i in order[train_n:]]
    return train, test


@dataclass
class ManifestEntry:
    image_path: str
    mask_path: str
    split: str                # "train" or "test"


def _check_manifest_paths(caller: str, paths):
    """Refuse a path with a tab or a line break, which ``read_manifest`` splits on."""
    for path in map(str, paths):
        if "\t" in path or path.splitlines() != [path]:
            raise DataError(f"{caller}: a manifest line cannot hold the path {path!r}: "
                            "it has a tab or a line break")


def write_manifest(path, entries):
    _check_manifest_paths("write_manifest",
                          [p for e in entries for p in (e.image_path, e.mask_path)])
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.image_path}\t{e.mask_path}\t{e.split}\n")


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in ("train", "test"):
            raise DataError(f"{path}:{lineno}: malformed manifest line {line!r}")
        entries.append(ManifestEntry(*fields))
    if not entries:
        raise DataError(f"manifest is empty: {path}")
    return entries


def read_split(path, split: str) -> list[ManifestEntry]:
    """The manifest's entries of one split, or every entry for ``"all"``; none is an error."""
    if split not in ("train", "test", "all"):
        raise ValueError(f"split must be 'train', 'test' or 'all', got {split!r}")
    entries = [e for e in read_manifest(path) if split in ("all", e.split)]
    if not entries:
        raise DataError(f"{path}: manifest has no {split!r} entries")
    return entries


def load_pair(image_path, mask_path) -> ImagePair:
    """An image and its mask binarized at load, at native size, named by the image's stem;
    an ``OSError`` from reading either file is a ``DataError`` naming both."""
    try:
        image, mask = load_image(image_path), binarize_mask(load_mask(mask_path))
    except OSError as exc:
        raise DataError(f"cannot read pair {image_path}, {mask_path}: {exc}") from exc
    if mask.shape != image.shape[:2]:
        raise DataError(f"{image_path}: mask {mask_path} is {mask.shape}, not {image.shape[:2]}")
    return ImagePair(image, mask, Path(image_path).stem)


def load_pairs(entries):
    """Manifest entries as ``load_pair`` pairs, each read as the generator is walked."""
    return (load_pair(e.image_path, e.mask_path) for e in entries)


@dataclass
class PrepareResult:
    train_count: int
    test_count: int
    augmented_count: int
    positive_fraction: float
    manifest_path: str


def prepare_dataset(dataset_dir, out_dir, seed: int = 0, *,
                    resize: int = 512, crop: int = 256) -> PrepareResult:
    """Split a raw corpus, augment the train side 15x, and write a manifest.

    Train pairs are binarized, resized to ``resize``, and expanded with
    ``augment_expand``; ``save_pair`` writes each augmented pair to ``out_dir``
    as ``<stem>_<variant>_<crop>``. Test pairs are referenced at their
    original paths. The positive-pixel fraction is ``dataset_stats``'s, over
    every source mask at native resolution; that pass reads every pair, so a
    bad pair is refused before anything is written, and so is a path that a
    manifest line cannot hold. A ``crop`` outside 1..``resize`` is refused
    before anything is read.
    """
    _check_crop(crop)
    if crop > resize:
        raise ValueError(f"prepare: crop {crop} exceeds resize {resize}")
    fraction = dataset_stats(dataset_dir)[1]     # before writing: out_dir may be dataset_dir
    train, test = split_dataset(discover_pairs(dataset_dir), seed)
    out_root = Path(out_dir)
    _check_manifest_paths("prepare", [out_root, *(p for pair in train + test for p in pair)])
    os.makedirs(out_root, exist_ok=True)

    entries = [ManifestEntry(str(image_path), str(mask_path), "test")
               for image_path, mask_path in test]
    for image_path, mask_path in train:
        for aug in augment_expand(resize_pair(load_pair(image_path, mask_path), resize), crop):
            entries.append(ManifestEntry(*map(str, save_pair(out_root, aug)), "train"))

    entries.sort(key=lambda e: (e.split, e.image_path))
    manifest_path = out_root / "manifest.tsv"
    write_manifest(manifest_path, entries)
    return PrepareResult(len(train), len(test), len(entries) - len(test),
                         fraction, str(manifest_path))


def dataset_stats(dataset_dir) -> tuple[int, float]:
    """Pair count and binarized positive-pixel fraction of a raw corpus; every
    pair is read through ``load_pair``, so a bad pair is its ``DataError``."""
    pairs = discover_pairs(dataset_dir)
    positive = 0
    total = 0
    for image_path, mask_path in pairs:
        mask = load_pair(image_path, mask_path).mask
        positive += int(mask.sum())
        total += mask.size
    return len(pairs), positive / total

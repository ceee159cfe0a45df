"""Image I/O, resizing, augmentation, splitting, and manifests."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodseg.dataio import (DataError, ImagePair, PnmError, augment_expand,
                             binarize_mask, discover_pairs, five_crop, load_image,
                             load_mask, load_pair, load_pairs, model_arrays,
                             prepare_dataset, read_manifest,
                             resize_bilinear, resize_pair, save_image, save_mask,
                             split_dataset, write_manifest, ManifestEntry)
from floodseg.dataio import _parse_pnm
from floodseg.cli import main
from floodseg import synthetic
from floodseg.synthetic import write_flood_set


def make_pair(rng, h=16, w=16, ident="pair"):
    image = rng.uniform(0, 1, (h, w, 3)).astype(np.float32)
    mask = (rng.uniform(0, 1, (h, w)) > 0.5).astype(np.float32)
    return ImagePair(image, mask, ident)


# ---- netpbm I/O --------------------------------------------------------------


def test_image_round_trip_is_bit_exact(tmp_path):
    rng = np.random.RandomState(0)
    image = (rng.randint(0, 256, (7, 9, 3)) / 255.0).astype(np.float32)
    path = tmp_path / "img.ppm"
    save_image(path, image)
    loaded = load_image(path)
    np.testing.assert_array_equal(loaded, image)
    save_image(tmp_path / "again.ppm", loaded)
    assert path.read_bytes() == (tmp_path / "again.ppm").read_bytes()


def test_mask_round_trip_is_bit_exact(tmp_path):
    rng = np.random.RandomState(1)
    mask = (rng.randint(0, 256, (5, 4)) / 255.0).astype(np.float32)
    path = tmp_path / "mask.pgm"
    save_mask(path, mask)
    np.testing.assert_array_equal(load_mask(path), mask)


def test_header_comments_and_whitespace_are_tolerated(tmp_path):
    payload = bytes(range(12))
    raw = b"P5 # magic\n# a comment line\n  4\t3 # dims\n255\n" + payload
    path = tmp_path / "commented.pgm"
    path.write_bytes(raw)
    mask = load_mask(path)
    assert mask.shape == (3, 4)
    np.testing.assert_array_equal((mask * 255).round(), np.arange(12).reshape(3, 4))


def test_parse_errors_carry_byte_offsets(tmp_path):
    path = tmp_path / "bad.pgm"

    path.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(PnmError) as err:
        load_mask(path)
    assert err.value.offset == 0 and "magic" in str(err.value)

    header = b"P5\n2 2\n255\n"
    path.write_bytes(header + bytes(3))                  # one byte short
    with pytest.raises(PnmError) as err:
        load_mask(path)
    assert "truncated" in str(err.value)

    path.write_bytes(header + bytes(6))                  # two bytes long
    with pytest.raises(PnmError) as err:
        load_mask(path)
    assert "trailing" in str(err.value)
    assert err.value.offset == len(header) + 4

    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PnmError) as err:
        load_mask(path)
    assert "max value" in str(err.value)

    # a bad number's offset is where the separators before it start
    for raw, message, offset in [
            (b"P5\n-2 2\n255\n" + bytes(4), "width must be positive, got -2", 2),
            (b"P5\nab 2\n255\n" + bytes(4), "invalid width b'ab'", 2),
            (b"P5\n2 \n# c\n", "missing height", 10),
            (b"P5\n# c\n-2 2\n255\n", "width must be positive, got -2", 2),
            (b"P5\n2 2 # no\n\t\nx1 255\n", "invalid max value b'x1'", 6)]:
        path.write_bytes(raw)
        with pytest.raises(PnmError) as err:
            load_mask(path)
        assert message in str(err.value) and err.value.offset == offset


HEADER_TOKENS = st.sampled_from([b"P5", b"P6", b"1", b"2", b"255", b"0", b"-3", b"1_0",
                                 b"#x\n", b"#", b" ", b"\n", b"\t", b"\xff"])
PNM_LIKE = st.builds(lambda head, tail: b"".join(head) + tail,
                     st.lists(HEADER_TOKENS, max_size=12), st.binary(max_size=16))


@settings(derandomize=True, database=None, deadline=None)
@given(raw=st.one_of(st.binary(max_size=64), PNM_LIKE), magic=st.sampled_from([b"P5", b"P6"]))
@example(raw=b"P5 1 1 255 \x00", magic=b"P5")
@example(raw=b"P6\n1 1\n255\n\x00\x00\x00", magic=b"P6")
def test_parse_pnm_raises_only_pnm_error(raw, magic):
    try:
        width, height, payload = _parse_pnm(raw, magic, "fuzz")
    except PnmError:
        return
    assert len(payload) == width * height * (3 if magic == b"P6" else 1)


def test_save_rejects_wrong_shapes(tmp_path):
    with pytest.raises(DataError):
        save_image(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(DataError):
        save_mask(tmp_path / "x.pgm", np.zeros((4, 4, 3)))


def test_binarize_threshold_is_strictly_above_half():
    values = np.array([0, 127, 128, 200, 255]) / 255.0
    np.testing.assert_array_equal(binarize_mask(values), [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(binarize_mask(values, 200 / 255.0), [0, 0, 0, 0, 1])


# ---- bilinear resize -----------------------------------------------------------


def resize_oracle(arr, oh, ow):
    ih, iw = arr.shape
    out = np.zeros((oh, ow))
    for i in range(oh):
        for j in range(ow):
            y = min(max((i + 0.5) * ih / oh - 0.5, 0.0), ih - 1.0)
            x = min(max((j + 0.5) * iw / ow - 0.5, 0.0), iw - 1.0)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, ih - 1), min(x0 + 1, iw - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (arr[y0, x0] * (1 - fy) * (1 - fx)
                         + arr[y0, x1] * (1 - fy) * fx
                         + arr[y1, x0] * fy * (1 - fx)
                         + arr[y1, x1] * fy * fx)
    return out


def test_resize_matches_scalar_oracle_on_checker():
    arr = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = resize_bilinear(arr, 4, 4)
    np.testing.assert_allclose(got, resize_oracle(arr, 4, 4), atol=1e-6)
    # corners clamp onto the source corners
    assert got[0, 0] == 0.0 and got[0, 3] == 1.0
    assert got[3, 0] == 1.0 and got[3, 3] == 0.0


def test_resize_matches_oracle_on_random_shapes():
    rng = np.random.RandomState(2)
    for ih, iw, oh, ow in [(3, 5, 7, 2), (8, 8, 3, 9), (2, 2, 5, 5), (6, 4, 4, 6)]:
        arr = rng.uniform(0, 1, (ih, iw))
        np.testing.assert_allclose(resize_bilinear(arr, oh, ow),
                                   resize_oracle(arr, oh, ow), atol=1e-6)


def test_resize_identity_and_constants():
    rng = np.random.RandomState(3)
    arr = rng.uniform(0, 1, (5, 6)).astype(np.float32)
    out = resize_bilinear(arr, 5, 6)
    np.testing.assert_array_equal(out, arr)
    out[0, 0] = 9.0
    assert arr[0, 0] != 9.0                       # a copy, not a view

    const = np.full((4, 4), 0.3, dtype=np.float32)
    np.testing.assert_allclose(resize_bilinear(const, 11, 3), 0.3, atol=1e-6)
    with pytest.raises(ValueError):
        resize_bilinear(arr, 0, 5)


def test_resize_applies_per_channel():
    rng = np.random.RandomState(4)
    arr = rng.uniform(0, 1, (6, 5, 3)).astype(np.float32)
    out = resize_bilinear(arr, 9, 7)
    assert out.shape == (9, 7, 3)
    for ch in range(3):
        np.testing.assert_allclose(out[:, :, ch],
                                   resize_bilinear(arr[:, :, ch], 9, 7), atol=1e-6)


# ---- flips and crops -------------------------------------------------------------


def test_flips_mirror_image_and_mask_together():
    rng = np.random.RandomState(5)
    pair = make_pair(rng)
    by_id = {p.source_id: p for p in augment_expand(pair, crop=16)}   # center crop = whole image
    hf, vf = by_id["pair_hf_c"], by_id["pair_vf_c"]
    np.testing.assert_array_equal(hf.image, pair.image[:, ::-1])
    np.testing.assert_array_equal(hf.mask, pair.mask[:, ::-1])
    np.testing.assert_array_equal(vf.image, pair.image[::-1])
    np.testing.assert_array_equal(vf.mask, pair.mask[::-1])
    assert hf.image.flags.c_contiguous and vf.mask.flags.c_contiguous


def test_five_crop_offsets_on_512():
    rng = np.random.RandomState(6)
    pair = make_pair(rng, 512, 512, "big")
    crops = five_crop(pair, 256)
    assert [c.source_id for c in crops] == ["big_tl", "big_tr", "big_bl", "big_br", "big_c"]
    offsets = [(0, 0), (0, 256), (256, 0), (256, 256), (128, 128)]
    for cropped, (r, c) in zip(crops, offsets):
        assert cropped.image.shape == (256, 256, 3)
        np.testing.assert_array_equal(cropped.image,
                                      pair.image[r:r + 256, c:c + 256])
        np.testing.assert_array_equal(cropped.mask,
                                      pair.mask[r:r + 256, c:c + 256])


def test_five_crop_rejects_oversized_crop():
    pair = make_pair(np.random.RandomState(7), 8, 8)
    with pytest.raises(DataError):
        five_crop(pair, 9)


def test_augment_expand_yields_fifteen_named_variants():
    rng = np.random.RandomState(8)
    pair = make_pair(rng, 12, 12, "src")
    out = augment_expand(pair, crop=6)
    assert len(out) == 15
    ids = [p.source_id for p in out]
    assert len(set(ids)) == 15
    for tag in ("id", "hf", "vf"):
        for crop_name in ("tl", "tr", "bl", "br", "c"):
            assert f"src_{tag}_{crop_name}" in ids
    by_id = {p.source_id: p for p in out}
    np.testing.assert_array_equal(by_id["src_id_tl"].image, pair.image[:6, :6])
    np.testing.assert_array_equal(by_id["src_hf_tl"].image, pair.image[:, ::-1][:6, :6])
    np.testing.assert_array_equal(by_id["src_vf_br"].mask, pair.mask[::-1][6:, 6:])


# ---- splitting ---------------------------------------------------------------------


def fake_pairs(n):
    return [(f"img_{i:04d}.ppm", f"img_{i:04d}.pgm") for i in range(n)]


def test_split_uses_integer_seventy_percent():
    train, test = split_dataset(fake_pairs(290), seed=0)
    assert (len(train), len(test)) == (203, 87)
    for n, want in [(2, 1), (10, 7), (20, 14), (3, 2), (99, 69)]:
        train, test = split_dataset(fake_pairs(n), seed=1)
        assert len(train) == want and len(test) == n - want


def test_split_is_deterministic_and_partitions():
    pairs = fake_pairs(37)
    a_train, a_test = split_dataset(pairs, seed=5)
    b_train, b_test = split_dataset(list(reversed(pairs)), seed=5)
    assert a_train == b_train and a_test == b_test    # order-insensitive input
    assert sorted(a_train + a_test) == sorted(pairs)
    c_train, _ = split_dataset(pairs, seed=6)
    assert c_train != a_train


def test_split_needs_two_pairs():
    with pytest.raises(DataError):
        split_dataset(fake_pairs(1), seed=0)


# ---- manifests and preparation -------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    entries = [ManifestEntry("a.ppm", "a.pgm", "train"),
               ManifestEntry("b.ppm", "b.pgm", "test")]
    path = tmp_path / "manifest.tsv"
    write_manifest(path, entries)
    assert read_manifest(path) == entries


@pytest.mark.parametrize("image, mask", [("a\tb.ppm", "a.pgm"), ("a.ppm", "a\u2028b.pgm")],
                         ids=["tab_in_image", "line_separator_in_mask"])
def test_write_manifest_refuses_a_path_a_line_cannot_hold_before_opening_the_file(
        tmp_path, image, mask):
    path = tmp_path / "manifest.tsv"
    entries = [ManifestEntry("ok.ppm", "ok.pgm", "train"), ManifestEntry(image, mask, "test")]
    with pytest.raises(DataError) as err:
        write_manifest(path, entries)
    bad = image if "\t" in image else mask
    assert str(err.value) == (f"write_manifest: a manifest line cannot hold the path "
                              f"{bad!r}: it has a tab or a line break")
    assert not path.exists()


def test_load_pairs_reads_each_pair_when_it_is_drawn(tmp_path, monkeypatch):
    written = write_flood_set(tmp_path, count=3, size=8, seed=2)
    reads = []

    def counting(image_path, mask_path):
        reads.append(image_path)
        return load_pair(image_path, mask_path)

    monkeypatch.setattr("floodseg.dataio.load_pair", counting)
    pairs = load_pairs(ManifestEntry(img, mask, "test") for img, mask in written)
    assert reads == []
    first = next(pairs)
    assert reads == [written[0][0]]
    np.testing.assert_array_equal(first.image, load_pair(*written[0]).image)
    assert [p.source_id for p in pairs] == [Path(img).stem for img, _ in written[1:]]
    assert reads == [img for img, _ in written]


def test_manifest_validation(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("a.ppm\ta.pgm\tvalidation\n")
    with pytest.raises(DataError):
        read_manifest(path)
    path.write_text("a.ppm\ta.pgm\n")
    with pytest.raises(DataError):
        read_manifest(path)
    path.write_text("\n\n")
    with pytest.raises(DataError):
        read_manifest(path)
    with pytest.raises(DataError):
        read_manifest(tmp_path / "missing.tsv")


def test_a_manifest_that_is_not_utf8_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_bytes(b"a.ppm\ta.pgm\ttrain\n\xff.ppm\ta.pgm\ttest\n")
    with pytest.raises(DataError) as info:
        read_manifest(path)
    assert str(info.value).startswith(f"{path}: manifest is not UTF-8 text: ")


def test_discover_pairs_requires_fully_matched_stems(tmp_path):
    write_flood_set(tmp_path, count=3, size=8, seed=0)
    assert len(discover_pairs(tmp_path)) == 3
    (tmp_path / "flood_000.pgm").unlink()
    with pytest.raises(DataError) as err:
        discover_pairs(tmp_path)
    assert "flood_000" in str(err.value)


def test_synthetic_main_writes_pairs_the_reader_reads_back(tmp_path, capsys):
    out = tmp_path / "raw"
    assert main(["synthetic", "--out_dir", str(out), "--count", "2", "--size", "8",
                 "--seed", "1"]) == 0
    assert capsys.readouterr().out == f"wrote 2 image/mask pairs to {out}\n"
    pairs = discover_pairs(out)
    assert len(pairs) == 2
    for image_path, mask_path in pairs:
        pair = load_pair(image_path, mask_path)
        assert pair.image.shape == (8, 8, 3) and pair.mask.shape == (8, 8)


@pytest.mark.parametrize("out,flags,code,message", [
    ("raw", ["--size", "0"], 1, "error: count and size must be at least 1, got 20 and 0\n"),
    ("raw", ["--count", "-3"], 1, "error: count and size must be at least 1, got -3 and 64\n"),
    ("a_file", [], 2, "error: cannot make out_dir {out}: {out} is not a directory\n"),
    *(("raw", ["--blob_scale", scale], 1,
       f"error: blob_scale must be finite and above 0, got {float(scale)}\n")
      for scale in ("-1", "0", "nan", "inf")),
], ids=["size 0", "count -3", "out_dir a file", "blob_scale -1", "blob_scale 0", "blob_scale nan",
        "blob_scale inf"])
def test_synthetic_main_refuses_bad_input_with_one_error_line(tmp_path, capsys, out, flags,
                                                              code, message):
    (tmp_path / "a_file").write_bytes(b"")
    out = tmp_path / out
    assert main(["synthetic", "--out_dir", str(out)] + flags) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message.format(out=out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]
    assert (tmp_path / "a_file").read_bytes() == b""


def test_synthetic_refuses_a_pair_too_large_for_memory_with_one_error_line(tmp_path, capsys,
                                                                          monkeypatch):
    # The draw fails as numpy's allocation would; nothing is allocated for real.
    def too_large(rng, size, source_id, blob_scale):
        raise MemoryError(f"Unable to allocate 596. GiB for an array with shape ({size}, "
                          f"{size}) and data type float64")

    monkeypatch.setattr(synthetic, "generate_flood_pair", too_large)
    out = tmp_path / "raw"
    assert main(["synthetic", "--out_dir", str(out), "--size", "200000", "--count", "1"]) == 1
    assert capsys.readouterr() == ("", "error: Unable to allocate 596. GiB for an array with "
                                       "shape (200000, 200000) and data type float64\n")
    assert list(tmp_path.iterdir()) == []


def test_write_flood_set_memory_does_not_grow_with_count(tmp_path):
    # Each pair is written as it is drawn: 32 pairs of 256 px (about 1 MiB
    # each as float32 image and mask) peak within 2 MiB of one pair.
    peaks = []
    for count in (1, 32):
        tracemalloc.start()
        try:
            written = write_flood_set(tmp_path / str(count), count=count, size=256, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(written) == count
    assert peaks[1] - peaks[0] < 2 << 20, peaks


def test_prepare_dataset_writes_augmented_train_and_references_test(tmp_path):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=6, size=32, seed=0)
    out = tmp_path / "prep"
    result = prepare_dataset(raw, out, seed=0, resize=16, crop=8)
    assert (result.train_count, result.test_count) == (4, 2)
    assert result.augmented_count == 60

    entries = read_manifest(result.manifest_path)
    train = [e for e in entries if e.split == "train"]
    test = [e for e in entries if e.split == "test"]
    assert len(train) == 60 and len(test) == 2
    for e in train:
        img = load_image(e.image_path)
        mask = load_mask(e.mask_path)
        assert img.shape == (8, 8, 3) and mask.shape == (8, 8)
        assert set(np.unique(mask)) <= {0.0, 1.0}
    for e in test:
        assert str(raw) in e.image_path            # originals, untouched
    assert 0.0 < result.positive_fraction < 1.0

    # identical seeds reproduce the manifest bytes
    again = prepare_dataset(raw, tmp_path / "prep2", seed=0, resize=16, crop=8)
    a = (out / "manifest.tsv").read_text().replace(str(out), "X")
    b = (tmp_path / "prep2" / "manifest.tsv").read_text().replace(str(tmp_path / "prep2"), "X")
    assert a == b


def test_prepare_dataset_writes_the_pinned_bytes(tmp_path):
    """Every crop, by name, and the manifest of a seeded synthetic corpus, byte for byte."""
    write_flood_set(tmp_path / "raw", count=3, size=20, seed=4)
    result = prepare_dataset(tmp_path / "raw", tmp_path, seed=0, resize=16, crop=8)
    crops = sorted(p for p in tmp_path.iterdir() if p.suffix in (".ppm", ".pgm"))
    table = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in crops)
    manifest = (tmp_path / "manifest.tsv").read_text().replace(str(tmp_path), "")
    assert len(crops) == 2 * result.augmented_count == 60
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "ee5eca6aea1a1a2f98582dccf7aa85a492cdd438c990e9ea4dc5909bfd226b82")
    assert hashlib.sha256(manifest.encode()).hexdigest() == (
        "7eadd1bf0969983e549a5cccae966412773d0e5044fa30a3a2af8a798d6dee4e")


def test_prepare_dataset_never_mutates_the_source(tmp_path):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=4, size=16, seed=1)
    before = {p.name: p.read_bytes() for p in raw.iterdir()}
    prepare_dataset(raw, tmp_path / "out", seed=0, resize=16, crop=8)
    after = {p.name: p.read_bytes() for p in raw.iterdir()}
    assert before == after


def test_model_arrays_are_channels_first_and_rebinarized():
    rng = np.random.RandomState(11)
    pair = make_pair(rng, h=12, w=20)
    image, mask = model_arrays(pair, 8, np.float64)
    assert image.shape == (3, 8, 8) and image.dtype == np.float64
    assert image.flags.c_contiguous
    resized = resize_pair(pair, 8)
    np.testing.assert_array_equal(image, resized.image.transpose(2, 0, 1))
    assert mask.shape == (1, 8, 8) and mask.dtype == np.float64
    np.testing.assert_array_equal(mask, resized.mask[None])

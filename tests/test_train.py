"""Training loop: epoch logs, model selection, freezing, failure modes."""

import tracemalloc

import numpy as np
import pytest

from floodseg.convnn import dice_loss
from floodseg.dataio import (DataError, ManifestEntry, load_pair, load_pairs, model_arrays,
                             save_image, save_mask)
from floodseg.metrics import evaluate
from floodseg.model import Model, ModelSpec, build_model, init_params, load_model, serialize_model
from floodseg.optim import Adam
from floodseg.synthetic import write_flood_set
from floodseg.tensor import Tensor, _toposort
from floodseg.train import (EpochLog, NumericFailure, PairDataset, train_for_steps,
                            train_model, train_step)


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainset")
    written = write_flood_set(root, count=4, size=16, seed=5)
    return [ManifestEntry(img, mask, "train") for img, mask in written]


def tiny_model(seed=1, variant="gac-unet"):
    spec = ModelSpec(input_size=16, widths=(2, 4), variant=variant, gat_out=4,
                     cheb_order=1, cheb_out=4, seed=seed)
    return init_params(build_model(spec), seed)


def test_epoch_log_formats_missing_validation_as_dash():
    assert EpochLog(3, 0.25, None, None).format() == "3\t0.250000\t-\t-"
    assert EpochLog(1, 0.5, 0.125, 0.25).format() == "1\t0.500000\t0.125000\t0.250000"


def test_pair_dataset_loads_resized_binary_pairs(entries, monkeypatch):
    ds = PairDataset(entries, size=8)
    assert len(ds) == 4
    image, mask = ds.get(0)
    assert image.shape == (3, 8, 8) and image.dtype == np.float32
    assert mask.shape == (1, 8, 8)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    reads = []

    def counting_load_pair(image_path, mask_path):
        reads.append(image_path)
        return load_pair(image_path, mask_path)

    monkeypatch.setattr("floodseg.train.load_pair", counting_load_pair)
    again = ds.get(0)                     # a second get reads the files again
    assert reads == [entries[0].image_path] and again[0] is not image
    np.testing.assert_array_equal(again[0], image)
    np.testing.assert_array_equal(again[1], mask)


def test_train_without_validation_logs_dashes(entries):
    result = train_model(tiny_model(), entries, epochs=2, batch_size=2, seed=0)
    assert len(result.rows) == 2
    assert result.rows[0].epoch == 1 and result.rows[1].epoch == 2
    assert all(np.isfinite(r.loss) for r in result.rows)
    assert result.rows[0].val_iou is None
    assert result.best_epoch is None
    assert result.rows[0].format().split("\t")[2:] == ["-", "-"]


def test_zero_epochs_returns_initial_state(entries):
    model = tiny_model()
    initial = serialize_model(model)
    result = train_model(model, entries, epochs=0)
    assert result.rows == []
    assert result.model_bytes == initial
    assert result.best_epoch is None


def test_best_validation_snapshot_is_kept(entries):
    model = tiny_model(seed=2)
    snapshots = []

    def on_epoch(row):
        snapshots.append(serialize_model(model))

    result = train_model(model, entries[:3], entries[3:], epochs=4, batch_size=3,
                         lr=0.01, seed=2, on_epoch=on_epoch)
    dices = [r.val_dice for r in result.rows]
    # first epoch achieving the maximum validation dice wins
    want_epoch = dices.index(max(dices)) + 1
    assert result.best_epoch == want_epoch
    assert result.model_bytes == snapshots[want_epoch - 1]


def test_validation_scores_the_kept_model_at_native_size(entries, tmp_path):
    written = write_flood_set(tmp_path, count=2, size=40, seed=9)
    val = [ManifestEntry(img, mask, "test") for img, mask in written]
    result = train_model(tiny_model(seed=2), entries, val, epochs=3, batch_size=2,
                         lr=0.01, seed=2)
    (tmp_path / "kept.gacm").write_bytes(result.model_bytes)
    report = evaluate(load_model(tmp_path / "kept.gacm").predict_proba, load_pairs(val))
    row = result.rows[result.best_epoch - 1]
    assert (row.val_iou, row.val_dice) == (report.mean_iou, report.mean_dice)


def test_generators_of_entries_validate_every_epoch(entries, tmp_path):
    written = write_flood_set(tmp_path, count=2, size=24, seed=4)
    val = [ManifestEntry(img, mask, "test") for img, mask in written]
    model = tiny_model(seed=2)
    scored = []

    def on_epoch(row):
        report = evaluate(model.predict_proba, load_pairs(val))
        scored.append((report.mean_iou, report.mean_dice))

    result = train_model(model, iter(entries), (e for e in val), epochs=2, batch_size=2,
                         lr=0.01, seed=2, on_epoch=on_epoch)
    assert [(r.val_iou, r.val_dice) for r in result.rows] == scored
    assert all(isinstance(v, float) for pair in scored for v in pair)
    (tmp_path / "kept.gacm").write_bytes(result.model_bytes)
    report = evaluate(load_model(tmp_path / "kept.gacm").predict_proba, load_pairs(val))
    assert scored[result.best_epoch - 1] == (report.mean_iou, report.mean_dice)
    listed = train_model(tiny_model(seed=2), entries, val, epochs=2, batch_size=2, lr=0.01,
                         seed=2)
    assert (listed.model_bytes, listed.rows) == (result.model_bytes, result.rows)


def test_identical_runs_are_bit_identical(entries):
    outputs = []
    for _ in range(2):
        result = train_model(tiny_model(seed=3), entries, epochs=2, batch_size=2,
                             lr=0.01, seed=3)
        outputs.append((result.model_bytes, [r.format() for r in result.rows]))
    assert outputs[0] == outputs[1]


def test_freeze_prefixes_pin_parameters(entries):
    model = tiny_model(seed=4)
    frozen_before = {k: p.data.copy() for k, p in model.params.items()
                     if k.startswith("enc1.")}
    head_before = model.params["head.w"].data.copy()
    train_model(model, entries, epochs=1, batch_size=2, seed=4, freeze=("enc1.",))
    for k, before in frozen_before.items():
        np.testing.assert_array_equal(model.params[k].data, before)
        assert model.params[k].grad is None and not model.params[k].requires_grad
    assert not np.array_equal(model.params["head.w"].data, head_before)
    assert all(p.requires_grad for k, p in model.params.items() if k not in frozen_before)


def test_freeze_prefix_matching_no_parameter_is_refused(entries):
    with pytest.raises(ValueError, match="freeze prefix 'enc9' matches no parameter"):
        train_model(tiny_model(), entries, freeze=("dec", "enc9"))


def test_freeze_as_a_bare_string_is_refused(entries):
    # Iterated, "dec" would be the prefixes "d", "e" and "c", freezing enc and cheb too.
    model = tiny_model()
    before = serialize_model(model)
    with pytest.raises(ValueError, match="sequence of name prefixes"):
        train_model(model, entries, epochs=1, batch_size=2, freeze="dec")
    assert serialize_model(model) == before


def test_frozen_layers_record_no_tape_and_keep_init_weights(entries):
    model = tiny_model(seed=8)
    before = {name: p.data.copy() for name, p in model.params.items()}
    tapes = []

    def forward(x):
        out = Model.forward(model, x)
        tapes.append([node.shape for node in _toposort(out._node)])
        return out

    model.forward = forward
    train_model(model, entries, epochs=1, batch_size=2, seed=8,
                freeze=("enc", "dec", "gat", "cheb"))
    # only the head's conv, its sigmoid and the output reshape are on the tape
    assert tapes == [[(2, 1, 16, 16)] * 3] * 2
    for name, p in model.params.items():
        assert np.array_equal(p.data, before[name]) != name.startswith("head."), name


def test_a_freeze_that_leaves_no_parameter_to_train_is_refused_before_any_pair_is_read(
        entries, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a pair was read before freeze was checked")

    monkeypatch.setattr("floodseg.train.load_pair", fail)
    model = tiny_model()
    before = serialize_model(model)
    with pytest.raises(ValueError, match="^train_model: freeze enc,dec,gat,cheb,head leaves "
                                         "no parameter to train$"):
        train_model(model, entries, entries, epochs=2, freeze=("enc", "dec", "gat", "cheb",
                                                                 "head"))
    assert serialize_model(model) == before


def test_freezing_by_requires_grad_matches_discarding_frozen_gradients(entries):
    data = [PairDataset(entries, 16).get(i) for i in range(4)]
    states = []
    for record_frozen in (False, True):
        model = tiny_model(seed=9)
        for name, p in model.params.items():
            p.requires_grad = record_frozen or not name.startswith("enc")
        optimizer = Adam({k: p for k, p in model.params.items() if not k.startswith("enc")},
                         lr=0.01)
        train_for_steps(model.forward, optimizer, dice_loss, data, 3, 2, seed=9)
        states.append(serialize_model(model))
    assert states[0] == states[1]


def test_early_stop_on_train_dice(entries):
    model = tiny_model(seed=5)
    # bias the head positive so predictions overlap the masks from the start,
    # making any tiny dice threshold reachable after the first epoch
    model.params["head.b"].data[...] = 5.0
    result = train_model(model, entries, epochs=5, batch_size=2,
                         seed=5, early_stop_train_dice=1e-9)
    assert len(result.rows) == 1


def test_early_stop_reads_each_train_pair_once_for_its_step_and_once_for_the_score(
        entries, monkeypatch):
    reads = []

    def counting_load_pair(image_path, mask_path):
        reads.append(image_path)
        return load_pair(image_path, mask_path)

    monkeypatch.setattr("floodseg.dataio.load_pair", counting_load_pair)
    monkeypatch.setattr("floodseg.train.load_pair", counting_load_pair)
    train_model(tiny_model(), entries, epochs=1, batch_size=2, seed=0,
                early_stop_train_dice=0.99)
    # the score walks the entries in manifest order after the epoch's steps
    assert sorted(reads[:4]) == sorted(e.image_path for e in entries)
    assert reads[4:] == [e.image_path for e in entries]


@pytest.fixture(scope="module")
def entries_128(tmp_path_factory):
    written = write_flood_set(tmp_path_factory.mktemp("set128"), count=32, size=128, seed=3)
    return [ManifestEntry(img, mask, "train") for img, mask in written]


@pytest.mark.parametrize("early_stop", [0.0, 0.99])
def test_train_model_memory_does_not_grow_with_the_corpus(entries_128, early_stop):
    peaks = []
    for count in (4, 32):
        spec = ModelSpec(input_size=128, widths=(2, 4), seed=0)
        model = init_params(build_model(spec), 0)
        tracemalloc.start()
        try:
            result = train_model(model, entries_128[:count], entries_128[:count], epochs=1,
                                 batch_size=4, seed=0, early_stop_train_dice=early_stop)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 1 and result.rows[0].val_dice is not None
    assert peaks[1] - peaks[0] < 2 << 20, peaks


def test_non_finite_loss_raises_numeric_failure(entries):
    model = tiny_model(seed=6)
    model.params["head.w"].data[...] = np.nan
    with pytest.raises(NumericFailure) as info:
        train_model(model, entries, epochs=1, batch_size=2, seed=6)
    assert info.value.batch_id == "1:0"


def test_argument_validation(entries):
    with pytest.raises(ValueError):
        train_model(tiny_model(), entries, loss="huber")
    with pytest.raises(ValueError, match=r"^train_model: batch_size must be >= 1, got 0$"):
        train_model(tiny_model(), entries, batch_size=0)
    with pytest.raises(ValueError, match=r"^train_model: epochs must be >= 0, got -1$"):
        train_model(tiny_model(), entries, epochs=-1)
    with pytest.raises(ValueError):
        train_model(tiny_model(), [], epochs=1)


def test_optimizer_settings_are_refused_before_any_pair_is_read(entries, tmp_path):
    missing = tmp_path / "missing"
    val = [ManifestEntry(str(missing / "a.ppm"), str(missing / "a.pgm"), "test")]
    with pytest.raises(ValueError, match="Adam: lr 0.0 is out of range"):
        train_model(tiny_model(), entries, val, lr=0.0)


@pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5])
def test_an_early_stop_train_dice_outside_the_unit_interval_is_refused_before_any_pair_is_read(
        tmp_path, value):
    missing = tmp_path / "missing"
    train = [ManifestEntry(str(missing / "a.ppm"), str(missing / "a.pgm"), "train")]
    with pytest.raises(ValueError, match=r"^train_model: early_stop_train_dice must lie in "):
        train_model(tiny_model(), train, train, early_stop_train_dice=value)


def test_a_misspelt_keyword_names_train_model_before_any_pair_is_read(tmp_path):
    missing = tmp_path / "missing"
    train = [ManifestEntry(str(missing / "a.ppm"), str(missing / "a.pgm"), "train")]
    model = tiny_model()
    with pytest.raises(TypeError, match=r"^train_model: .*'epoch'$"):
        train_model(model, train, train, freeze=("enc",), epoch=3)
    assert all(p.requires_grad for p in model.params.values())     # nothing was frozen


def test_train_step_loss_is_the_mean_of_per_sample_losses():
    spec = ModelSpec(input_size=16, widths=(2, 4), gat_out=4, cheb_order=1, cheb_out=4)
    model = init_params(build_model(spec, np.float64), 3)
    rng = np.random.RandomState(3)
    samples = [(rng.uniform(0, 1, (3, 16, 16)), (rng.uniform(0, 1, (1, 16, 16)) > 0.5) * 1.0)
               for _ in range(3)]
    each = [dice_loss(model.forward(Tensor(x)), Tensor(y)).item() for x, y in samples]
    got = train_step(model.forward, Adam(model.params), dice_loss, iter(samples), "1:0")
    assert abs(got - sum(each) / 3) <= 1e-12


def test_train_step_refuses_a_non_finite_loss_before_updating():
    model = tiny_model(seed=7)
    model.params["head.b"].data[...] = np.nan
    before = {k: p.data.copy() for k, p in model.params.items()}
    optimizer = Adam(model.params)
    sample = (np.full((3, 16, 16), 0.5, dtype=np.float32), np.ones((1, 16, 16), np.float32))
    with pytest.raises(NumericFailure) as info:
        train_step(model.forward, optimizer, dice_loss, [sample, sample], "2:5")
    assert info.value.batch_id == "2:5"
    assert optimizer._t == 0
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_pair_dataset_thresholds_a_gray_mask_as_eval_does(tmp_path):
    # 0.6 at three of four pixels: 1 after thresholding at load, 0 if resized first (0.45)
    save_image(tmp_path / "g.ppm", np.zeros((2, 2, 3), dtype=np.float32))
    save_mask(tmp_path / "g.pgm", np.array([[0.6, 0.6], [0.6, 0.0]], dtype=np.float32))
    ds = PairDataset([ManifestEntry(str(tmp_path / "g.ppm"), str(tmp_path / "g.pgm"), "train")],
                     size=1)
    _, expected = model_arrays(load_pair(tmp_path / "g.ppm", tmp_path / "g.pgm"), 1)
    np.testing.assert_array_equal(ds.get(0)[1], expected)
    np.testing.assert_array_equal(expected, [[[1.0]]])


def test_pair_dataset_rejects_a_mask_of_another_size(tmp_path):
    save_image(tmp_path / "a.ppm", np.zeros((8, 8, 3), dtype=np.float32))
    save_mask(tmp_path / "a.pgm", np.zeros((6, 8), dtype=np.float32))
    ds = PairDataset([ManifestEntry(str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm"), "train")],
                     size=4)
    with pytest.raises(DataError, match="a.ppm"):
        ds.get(0)

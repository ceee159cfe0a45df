"""Command-line driver: config resolution, all commands, exit codes."""

import ast
import dataclasses
import inspect
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import floodseg
from floodseg.checks import CheckResult
from floodseg.cli import _SPEC, COMMANDS, KEYS, UsageError, _resolve_config, main
from floodseg.dataio import (DataError, binarize_mask, discover_pairs, load_mask, load_pairs,
                             read_manifest, save_mask, split_dataset, write_manifest)
from floodseg.model import (FORMAT_VERSION, KIND_MODEL, MAGIC, ModelFormatError, ModelSpec,
                            SpecError, build_model, init_params, load_model, serialize_model)
from floodseg.reprogram import FrozenBaseError
from floodseg.synthetic import write_flood_set
from floodseg.tensor import ShapeError
from floodseg.train import NumericFailure
from test_reprogram import old_wrapper_file

TRAIN_FLAGS = ["--input_size", "8", "--widths", "2,4", "--gat_out", "4",
               "--cheb_order", "1", "--cheb_out", "4", "--epochs", "1",
               "--batch_size", "4", "--seed", "0"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A raw synthetic corpus and a prepared split of it."""
    root = tmp_path_factory.mktemp("cliws")
    raw = root / "raw"
    write_flood_set(raw, count=6, size=32, seed=0)
    data = root / "data"
    code = main(["prepare", "--dataset_dir", str(raw), "--out_dir", str(data),
                 "--resize", "16", "--crop", "8"])
    assert code == 0
    return {"root": root, "raw": raw, "data": data,
            "manifest": data / "manifest.tsv"}


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """A tiny model trained for one epoch through the CLI."""
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--manifest", str(workspace["manifest"]),
                 "--out_dir", str(out)] + TRAIN_FLAGS)
    assert code == 0
    return out


# ---- argument handling ------------------------------------------------------


USAGE_TEXT = """\
usage: floodseg COMMAND [--config FILE] [--deterministic] [--KEY VALUE ...]

commands:
  synthetic      write a seeded synthetic corpus of image/mask pairs
  prepare        split a raw corpus 70/30 and write the augmented train set
  train          train a model on a prepared manifest
  eval           score a model on a manifest split
  predict        write a predicted mask for one image
  reprogram      train an input/output program around a frozen base model
  gradcheck      finite-difference check of every layer and loss
  dataset-stats  pair count and positive-pixel fraction of a raw corpus

run `floodseg COMMAND` with no further flags to see which keys it needs.
"""


def test_help_and_unknown_command(capsys):
    assert main([]) == 1
    assert capsys.readouterr() == (USAGE_TEXT, "")
    assert main(["--help"]) == 0
    assert capsys.readouterr() == (USAGE_TEXT, "")
    assert main(["florp"]) == 1
    assert capsys.readouterr() == ("", "unknown command 'florp'\n" + USAGE_TEXT)


NEEDS = {"synthetic": "--out_dir", "prepare": "--dataset_dir, --out_dir",
         "train": "--manifest, --out_dir", "eval": "--model, --manifest",
         "predict": "--model, --image, --output",
         "reprogram": "--base_model, --manifest, --out_dir", "dataset-stats": "--dataset_dir",
         "gradcheck": None}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_with_no_flags_names_the_keys_it_needs(command, monkeypatch, capsys):
    monkeypatch.setattr("floodseg.checks.run_gradient_suite",
                        lambda seed=0: [CheckResult("stub", 0.0, 1e-5)])
    if NEEDS[command] is None:
        assert main([command]) == 0
        assert capsys.readouterr().err == ""
    else:
        assert main([command]) == 1
        assert capsys.readouterr() == ("", f"error: {command} needs {NEEDS[command]}\n")


@pytest.mark.parametrize("exc,code", [
    (DataError("bad pair"), 2),
    (ModelFormatError("bad model file"), 2),
    (IsADirectoryError(21, "Is a directory", "adir"), 2),
    (ShapeError("bad shape"), 2),             # a ValueError, yet a data error
    (SpecError("bad spec"), 1),
    (UsageError("bad flag"), 1),
    (NumericFailure("non-finite loss nan in batch 1:0", "1:0"), 3),
    (FrozenBaseError("frozen base parameters changed"), 3),
    (MemoryError("Unable to allocate 596. GiB for an array with shape (200000, 200000)"), 1),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value))
def test_each_error_a_handler_raises_maps_to_its_exit_code(exc, code, monkeypatch, capsys):
    def handler(config):
        raise exc

    monkeypatch.setitem(COMMANDS, "gradcheck", (handler, (), "raises"))
    assert main(["gradcheck"]) == code
    assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_bad_flags_are_usage_errors(capsys):
    assert main(["train", "--bogus_key", "1"]) == 1
    assert "unknown configuration key" in capsys.readouterr().err
    assert main(["train", "--epochs"]) == 1
    assert "needs a value" in capsys.readouterr().err
    assert main(["train", "stray"]) == 1
    assert main(["train", "--epochs", "three"]) == 1
    assert main(["train", "--float_width", "16"]) == 1
    assert main(["train"]) == 1
    assert "needs --" in capsys.readouterr().err
    assert main(["train", "--com", "maybe"]) == 1
    assert "expected a boolean" in capsys.readouterr().err
    assert main(["train", "--widths", "8,x"]) == 1
    assert "expected comma-separated integers" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read config file {tmp_path / 'nope.cfg'}: [Errno 2] ")
    assert main(["train", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {tmp_path}: ")
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 3\n", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 1
    assert "expected key=value" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"epochs = 1\n# caf\xe9\n")
    assert main(["train", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec can't decode")


def test_a_hyphenated_key_in_a_config_file_resolves_like_the_flag(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(COMMANDS, "gradcheck", (lambda config: seen.append(config) or 0,
                                                ("batch_size", "early_stop_train_dice"), ""))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch-size = 2\nearly-stop-train-dice = 0.5\n", encoding="utf-8")
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert main(["gradcheck", "--batch-size", "2", "--early-stop-train-dice", "0.5"]) == 0
    assert seen[0] == seen[1]
    assert (seen[0]["batch_size"], seen[0]["early_stop_train_dice"]) == (2, 0.5)
    # a flag still beats the file, whichever way either spells the key
    assert main(["gradcheck", "--batch_size", "3", "--config", str(cfg)]) == 0
    assert seen[2]["batch_size"] == 3


def test_deterministic_takes_a_boolean_value_as_its_config_key_does(tmp_path, monkeypatch,
                                                                    capsys):
    seen = []
    monkeypatch.setitem(COMMANDS, "gradcheck",
                        (lambda config: seen.append(config["deterministic"]) or 0, ("seed",),
                         ""))
    monkeypatch.setattr(floodseg.cli, "_set_single_threaded", lambda: None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("deterministic = false\n", encoding="utf-8")
    for flags in (["--deterministic", "false"], ["--config", str(cfg)], ["--deterministic", "off"],
                  ["--deterministic"], ["--deterministic", "--seed", "1"],
                  ["--seed", "1", "--deterministic"], ["--deterministic", "yes"]):
        assert main(["gradcheck"] + flags) == 0
    assert seen == [False, False, False, True, True, True, True]
    assert main(["gradcheck", "--deterministic", "maybe"]) == 1
    assert capsys.readouterr().err == "error: expected a boolean, got 'maybe'\n"


def _as_flag_value(value) -> str:
    """A ``KEYS`` default spelt as a flag or config file would spell it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_key_a_command_does_not_read_is_refused_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    refused = 0
    for command, (_, keys, _) in COMMANDS.items():
        needed = [arg for key in keys if KEYS[key][1] is None
                  for arg in (f"--{key}", str(tmp_path / key))]
        for key, (_, default) in KEYS.items():
            if key in keys or key == "deterministic":
                continue
            cfg.write_text(f"{key} = {_as_flag_value(default)}\n", encoding="utf-8")
            for flags in ([f"--{key}", _as_flag_value(default)], ["--config", str(cfg)]):
                assert main([command] + needed + flags) == 1
                assert capsys.readouterr() == ("", f"error: {command} does not read {key!r}\n")
            refused += 1
    assert refused == 8 * 39 - 65
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]     # no out_dir made


class RecordingConfig(dict):
    """A configuration that notes every key read from it."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_each_handler_reads_exactly_the_keys_in_its_row(workspace, trained, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr("floodseg.checks.run_gradient_suite",
                        lambda seed=0: [CheckResult("stub", 0.0, 1e-5)])
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    raw = ["--dataset_dir", str(workspace["raw"])]
    manifest = ["--manifest", str(workspace["manifest"])]
    model = ["--model", str(trained / "model.gacm")]
    # reprogram pretrains a missing base: only that path reads input_size and base_channels
    flags = {"synthetic": ["--out_dir", str(tmp_path / "raw"), "--count", "2", "--size", "8",
                           "--blob_scale", "0.5"],
             "prepare": raw + ["--out_dir", str(tmp_path / "prep"), "--resize", "16",
                               "--crop", "8"],
             "train": manifest + ["--out_dir", str(tmp_path / "train")] + TRAIN_FLAGS,
             "eval": model + manifest + ["--report", str(tmp_path / "report.tsv")],
             "predict": model + ["--image", str(image), "--output", str(tmp_path / "pred.pgm")],
             "reprogram": manifest + ["--base_model", str(tmp_path / "base.gacm"),
                                      "--init_base", "true", "--out_dir", str(tmp_path / "rp"),
                                      "--base_channels", "2", "--input_size", "8",
                                      "--steps", "1"],
             "gradcheck": [],
             "dataset-stats": raw}
    assert sorted(flags) == sorted(COMMANDS)
    for command, (handler, keys, _) in COMMANDS.items():
        config = RecordingConfig(_resolve_config(command, flags[command]))
        assert handler(config) == 0, command
        assert config.read == set(keys), command


@pytest.mark.parametrize("command,seed", [("prepare", "-1"), ("train", "4294967296"),
                                          ("reprogram", "4294967296"), ("gradcheck", "-1")])
def test_a_seed_outside_the_32_bit_range_is_refused_before_any_work(
        workspace, tmp_path, monkeypatch, capsys, command, seed):
    def fail(*args, **kwargs):
        raise AssertionError("work was done before the seed was checked")

    for name in ("dataio.prepare_dataset", "dataio.read_split", "checks.run_gradient_suite"):
        monkeypatch.setattr(f"floodseg.{name}", fail)
    out = ["--out_dir", str(tmp_path / "out")]
    manifest = ["--manifest", str(workspace["manifest"])]
    flags = {"prepare": out + ["--dataset_dir", str(workspace["raw"])],
             "train": out + manifest,
             "reprogram": out + manifest + ["--base_model", str(tmp_path / "base.gacm"),
                                            "--init_base", "true"],
             "gradcheck": []}
    assert main([command, "--seed", seed] + flags[command]) == 1
    assert capsys.readouterr() == ("", f"error: bad value for 'seed': must lie in 0..2**32-1, "
                                       f"got {seed}\n")
    assert not list(tmp_path.iterdir())


def test_every_name_in_the_package_all_resolves_to_its_module_binding():
    for module, names in floodseg._EXPORTS.items():
        home = getattr(floodseg, module)
        assert home.__name__ == f"floodseg.{module}"
        for name in names:
            assert getattr(floodseg, name) is getattr(home, name)
    assert floodseg.__all__ == sorted(n for names in floodseg._EXPORTS.values() for n in names)


def library_default(owner, name):
    """The default of ``owner``'s parameter or, for a dataclass, field ``name``."""
    if dataclasses.is_dataclass(owner):
        return next(f.default for f in dataclasses.fields(owner) if f.name == name)
    return inspect.signature(owner).parameters[name].default


# (library callable or dataclass, its parameter, the CLI key that sets it)
LIBRARY_DEFAULTS = [
    *((floodseg.ModelSpec, key, key) for key in _SPEC + ("seed",)),
    *((floodseg.Adam, key, key) for key in ("lr", "beta1", "beta2", "eps")),
    *((floodseg.prepare_dataset, key, key) for key in ("seed", "resize", "crop")),
    *((floodseg.write_flood_set, key, key) for key in ("count", "size", "seed", "blob_scale")),
    (floodseg.evaluate, "pred_threshold", "pred_threshold"),
    (floodseg.binarize_mask, "threshold", "pred_threshold"),
    *((floodseg.train_model, key, key)
      for key in ("loss", "epochs", "batch_size", "seed", "freeze", "early_stop_train_dice")),
    *((floodseg.reprogram_train, key, key) for key in ("loss", "batch_size", "seed")),
    *((floodseg.ReprogramWrapper, key, key) for key in ("per_channel", "seed")),
    (floodseg.reprogram.make_pretrained_base, "c_old", "base_channels"),
    (floodseg.reprogram.make_pretrained_base, "size", "input_size"),
]
# The two that differ on purpose, (library, CLI): a library call trains one
# epoch, and a library-built pretrained base is small enough for a test.
DIFFERENT_DEFAULTS = {("train_model", "epochs"): (1, 10),
                      ("make_pretrained_base", "size"): (32, 256)}


def test_each_cli_default_is_the_library_default_it_stands_for():
    rows = [(owner.__name__, name, library_default(owner, name), KEYS[key][1])
            for owner, name, key in LIBRARY_DEFAULTS]
    differ = {(owner, name): (lib, cli) for owner, name, lib, cli in rows
              if (lib, type(lib)) != (cli, type(cli))}
    assert differ == DIFFERENT_DEFAULTS


def imported_modules(path: Path) -> set:
    """The absolute names of the modules that ``path``, a floodseg module, imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "floodseg" if node.level else ""
            module = ".".join(filter(None, [package, node.module]))
            names.add(module)     # ``from M import x`` may also import the submodule M.x
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_library_module_imports_the_cli():
    modules = sorted(Path(floodseg.__file__).parent.glob("*.py"))
    assert "cli.py" in [path.name for path in modules]
    for path in modules:
        names = imported_modules(path)
        assert not [n for n in names if n.split(".")[0] == "argparse"], path.name
        if path.name != "cli.py":
            assert not [n for n in names if n.split(".")[:2] == ["floodseg", "cli"]], path.name


def test_flags_override_config_file(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "epochs = 1\n"
                   "widths = 2,4   # small\n"
                   "input_size = 8\n"
                   "gat_out = 4\ncheb_order = 1\ncheb_out = 4\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code = main(["train", "--config", str(cfg), "--manifest", str(workspace["manifest"]),
                 "--out_dir", str(out), "--epochs", "2"])
    assert code == 0
    log = (out / "train.log").read_text(encoding="utf-8").splitlines()
    assert "# epochs=2" in log            # flag beat the file
    assert "# widths=2,4" in log          # file value survived
    rows = [line for line in log if not line.startswith("#")]
    assert len(rows) == 2


# ---- prepare / dataset-stats ------------------------------------------------


def test_prepare_reports_counts_and_writes_manifest(workspace, capsys):
    manifest = read_manifest(workspace["manifest"])
    assert sum(e.split == "train" for e in manifest) == 60   # 4 sources x 15
    assert sum(e.split == "test" for e in manifest) == 2


def test_prepare_rejects_unmatched_stems(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=2, size=16, seed=1)
    (raw / "flood_000.ppm").rename(raw / "orphan.ppm")
    assert main(["prepare", "--dataset_dir", str(raw),
                 "--out_dir", str(tmp_path / "out")]) == 2
    assert "unmatched" in capsys.readouterr().err


def test_prepare_refuses_a_zero_crop_before_writing(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=4, size=16, seed=1)
    out = tmp_path / "out"
    assert main(["prepare", "--dataset_dir", str(raw), "--out_dir", str(out),
                 "--resize", "16", "--crop", "0"]) == 1
    assert capsys.readouterr().err == "error: five_crop: crop must be >= 1, got 0\n"
    assert not list(out.glob("*"))


@pytest.mark.parametrize("flags,message", [
    (["--resize", "16", "--crop", "32"], "prepare: crop 32 exceeds resize 16"),
    (["--resize", "0"], "prepare: crop 256 exceeds resize 0"),
    (["--crop", "0"], "five_crop: crop must be >= 1, got 0"),
], ids=["crop above resize", "resize 0", "crop 0"])
def test_prepare_refuses_a_crop_outside_one_to_resize_before_making_out_dir(tmp_path, capsys,
                                                                            flags, message):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=4, size=16, seed=1)
    out = tmp_path / "out"
    assert main(["prepare", "--dataset_dir", str(raw), "--out_dir", str(out)] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_prepare_and_dataset_stats_refuse_a_test_mask_of_another_size(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_flood_set(raw, count=4, size=16, seed=1)
    image_path, mask_path = split_dataset(discover_pairs(raw), 0)[1][0]
    save_mask(mask_path, np.zeros((12, 12), dtype=np.float32))
    expected = f"error: {image_path}: mask {mask_path} is (12, 12), not (16, 16)\n"
    assert main(["dataset-stats", "--dataset_dir", str(raw)]) == 2
    assert capsys.readouterr().err == expected
    out = tmp_path / "out"
    assert main(["prepare", "--dataset_dir", str(raw), "--out_dir", str(out),
                 "--resize", "16", "--crop", "8"]) == 2
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_dataset_stats(workspace, capsys):
    assert main(["dataset-stats", "--dataset_dir", str(workspace["raw"])]) == 0
    out = capsys.readouterr().out
    assert "6 image/mask pairs" in out
    assert "positive pixel fraction" in out


# ---- train ------------------------------------------------------------------


def test_train_writes_model_and_log(workspace, trained):
    model_path = trained / "model.gacm"
    log = (trained / "train.log").read_text(encoding="utf-8").splitlines()
    echo = [line for line in log if line.startswith("#")]
    assert echo == sorted(echo)
    assert "# loss=dice" in echo and "# widths=2,4" in echo
    rows = [line for line in log if not line.startswith("#")]
    assert len(rows) == 1
    epoch, loss, val_iou, val_dice = rows[0].split("\t")
    assert epoch == "1" and float(loss) > 0
    float(val_iou), float(val_dice)       # validation columns are numeric

    net = load_model(model_path)
    assert net.spec.widths == (2, 4)
    assert net.spec.input_size == 8


def test_train_refuses_a_freeze_that_leaves_nothing_to_train(workspace, tmp_path, monkeypatch,
                                                             capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a pair was read before freeze was checked")

    monkeypatch.setattr("floodseg.train.load_pair", fail)
    out = tmp_path / "frozen"
    assert main(["train", "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 "--freeze", "enc,dec,gat,cheb,head"] + TRAIN_FLAGS + ["--epochs", "2"]) == 1
    assert capsys.readouterr() == ("", "error: train_model: freeze enc,dec,gat,cheb,head "
                                       "leaves no parameter to train\n")
    assert not out.exists()


def test_train_refuses_a_freeze_prefix_that_matches_nothing(workspace, tmp_path, capsys):
    out = tmp_path / "typo"
    assert main(["train", "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 "--freeze", "enc9"] + TRAIN_FLAGS) == 1
    assert capsys.readouterr().err == ("error: train_model: freeze prefix 'enc9' matches "
                                       "no parameter\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--lr", "-1"), ("--lr", "0"), ("--beta1", "1"),
                                        ("--eps", "0")])
def test_train_refuses_out_of_range_optimizer_settings(workspace, tmp_path, capsys, flag, value):
    out = tmp_path / "bad"
    assert main(["train", "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 flag, value] + TRAIN_FLAGS) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Adam: {flag[2:]} {float(value)!r} is out of range")
    assert not out.exists()


def test_train_with_a_non_finite_loss_exits_with_numeric_code(workspace, tmp_path, capsys):
    # the step overflows on purpose; the only thing on stderr is the error line
    out = tmp_path / "diverged"
    assert main(["train", "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 "--lr", "1e30"] + TRAIN_FLAGS + ["--epochs", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1, err
    assert not out.exists()


def test_train_refuses_a_validation_pair_of_another_size_at_its_first_validation(
        workspace, tmp_path, capsys):
    odd = tmp_path / "odd.pgm"
    save_mask(odd, np.zeros((5, 7), dtype=np.float32))
    entries = read_manifest(workspace["manifest"])
    bad = next(e for e in entries if e.split == "test")
    write_manifest(tmp_path / "manifest.tsv",
                   [replace(e, mask_path=str(odd)) if e is bad else e for e in entries])
    out = tmp_path / "badval"
    assert main(["train", "--manifest", str(tmp_path / "manifest.tsv"),
                 "--out_dir", str(out)] + TRAIN_FLAGS) == 2
    # the pair is read at epoch 1's validation, before the epoch's row is printed
    shape = load_mask(bad.mask_path).shape
    assert capsys.readouterr() == ("", f"error: {bad.image_path}: mask {odd} is (5, 7), "
                                       f"not {shape}\n")
    assert not (out / "train.log").exists() and not (out / "model.gacm").exists()


def test_train_rejects_malformed_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("one\tfield\tmissing\textra\n", encoding="utf-8")
    assert main(["train", "--manifest", str(manifest),
                 "--out_dir", str(tmp_path / "out")]) == 2


def test_train_refuses_more_than_one_output_channel(tmp_path, capsys):
    # the manifest does not exist: the key is refused before it would be read
    assert main(["train", "--manifest", str(tmp_path / "none.tsv"),
                 "--out_dir", str(tmp_path / "out"), "--out_channels", "4"]) == 1
    assert capsys.readouterr().err == "error: unknown configuration key 'out_channels'\n"
    assert not (tmp_path / "out").exists()


# ---- eval / predict ---------------------------------------------------------


@pytest.fixture
def four_channel_model(tmp_path):
    path = tmp_path / "base.gacm"
    path.write_bytes(serialize_model(init_params(build_model(ModelSpec(
        input_size=8, widths=(2,), variant="plain-unet", out_channels=4)), 0)))
    return path


def test_eval_refuses_a_multi_channel_model(workspace, four_channel_model, capsys):
    assert main(["eval", "--model", str(four_channel_model),
                 "--manifest", str(workspace["manifest"])]) == 2
    assert capsys.readouterr().err == (f"error: {four_channel_model}: model has 4 output "
                                       f"channels, not 1\n")


def test_predict_refuses_a_multi_channel_model(workspace, four_channel_model, tmp_path,
                                               capsys):
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    assert main(["predict", "--model", str(four_channel_model), "--image", str(image),
                 "--output", str(tmp_path / "pred.pgm")]) == 2
    assert capsys.readouterr().err == (f"error: {four_channel_model}: model has 4 output "
                                       f"channels, not 1\n")
    assert not (tmp_path / "pred.pgm").exists()


def test_eval_matches_direct_library_computation(workspace, trained, tmp_path, capsys):
    report_path = tmp_path / "report.tsv"
    code = main(["eval", "--model", str(trained / "model.gacm"),
                 "--manifest", str(workspace["manifest"]),
                 "--split", "test", "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == out.rstrip("\n") + "\n"
    lines = out.strip().splitlines()
    assert lines[-1] == "# pred_threshold\t0.50"
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) == 2                 # the two test-split sources

    from floodseg.dataio import resize_bilinear
    from floodseg.metrics import evaluate
    from floodseg.dataio import load_pairs
    net = load_model(trained / "model.gacm")
    pairs = load_pairs(e for e in read_manifest(workspace["manifest"]) if e.split == "test")

    def predict(image):
        prob = net.predict_proba(resize_bilinear(image, 8, 8))
        return resize_bilinear(prob, image.shape[0], image.shape[1])

    assert str(evaluate(predict, pairs, 0.5)) == out.rstrip("\n")


@pytest.mark.parametrize("split", ["bogus", "Train"])
def test_eval_refuses_an_unknown_split_as_a_usage_error(workspace, trained, capsys, split):
    assert main(["eval", "--model", str(trained / "model.gacm"),
                 "--manifest", str(workspace["manifest"]), "--split", split]) == 1
    assert capsys.readouterr() == ("", f"error: split must be 'train', 'test' or 'all', "
                                       f"got {split!r}\n")


def test_eval_missing_model_is_a_data_error(workspace, tmp_path):
    assert main(["eval", "--model", str(tmp_path / "none.gacm"),
                 "--manifest", str(workspace["manifest"])]) == 2


def test_predict_writes_binary_mask_at_source_size(workspace, trained, tmp_path, capsys):
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    out_path = tmp_path / "pred.pgm"
    code = main(["predict", "--model", str(trained / "model.gacm"),
                 "--image", str(image), "--output", str(out_path)])
    assert code == 0
    mask = load_mask(out_path)
    assert mask.shape == (32, 32)
    assert set(np.unique(mask)) <= {0.0, 1.0}


@pytest.mark.parametrize("value", ["nan", "-0.5", "1.5"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_pred_threshold_outside_the_unit_interval_is_refused_before_loading(
        workspace, tmp_path, capsys, command, value):
    # The model path does not exist: a refusal after loading would exit 2.
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    paths = {"eval": ["--manifest", str(workspace["manifest"])],
             "predict": ["--image", str(image), "--output", str(tmp_path / "pred.pgm")]}
    assert main([command, "--model", str(tmp_path / "none.gacm"), "--pred_threshold", value]
                + paths[command]) == 1
    assert capsys.readouterr().err.startswith("error: pred_threshold must lie in [0, 1]")
    assert not (tmp_path / "pred.pgm").exists()


def test_predict_missing_image_is_a_data_error(trained, tmp_path):
    assert main(["predict", "--model", str(trained / "model.gacm"),
                 "--image", str(tmp_path / "ghost.ppm"),
                 "--output", str(tmp_path / "out.pgm")]) == 2


def test_predict_refuses_an_unbuildable_model_as_a_format_error(workspace, tmp_path, capsys):
    # 2**40 px makes the grid graph's np.arange refuse at once, before any allocation.
    net = init_params(build_model(ModelSpec(input_size=16, widths=(2, 4), gat_out=4,
                                            cheb_order=1, cheb_out=4)), 0)
    config = json.dumps({**asdict(net.spec), "input_size": 2 ** 40}).encode()
    payload = serialize_model(net)[-4 * net.parameter_count():]
    path = tmp_path / "huge.gacm"
    path.write_bytes(MAGIC + struct.pack("<HBBI", FORMAT_VERSION, KIND_MODEL, 4, len(config))
                     + config + payload)
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    assert main(["predict", "--model", str(path), "--image", str(image),
                 "--output", str(tmp_path / "pred.pgm")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: cannot build the configured model: ")
    assert not (tmp_path / "pred.pgm").exists()


# ---- reprogram --------------------------------------------------------------


def test_reprogram_freezes_base_and_logs_losses(workspace, tmp_path, capsys):
    base_path = tmp_path / "base.gacm"
    out = tmp_path / "rp"
    code = main(["reprogram", "--base_model", str(base_path),
                 "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 "--init_base", "true", "--base_channels", "4",
                 "--input_size", "16", "--steps", "5", "--batch_size", "2"])
    assert code == 0
    out_text = capsys.readouterr().out
    checksums = [line.split(": ")[1] for line in out_text.splitlines()
                 if line.startswith("frozen base checksum:")]
    assert len(checksums) == 2 and checksums[0] == checksums[1]
    base = load_model(base_path)
    assert base.spec.out_channels == 4 and base.spec.program == "none"
    assert load_model(out / "wrapper.gacm").spec.output_channels == 1
    log = (out / "reprogram.log").read_text(encoding="utf-8").splitlines()
    steps = [line for line in log if not line.startswith("#")]
    assert len(steps) == 5

    # reuse the saved base without init_base: the written model holds the base's layers
    out2 = tmp_path / "rp2"
    assert main(["reprogram", "--base_model", str(base_path),
                 "--manifest", str(workspace["manifest"]), "--out_dir", str(out2),
                 "--steps", "1", "--batch_size", "2"]) == 0
    model = load_model(out2 / "wrapper.gacm")
    assert model.spec.program == "shared" and model.spec.output_channels == 1
    for name, p in base.params.items():
        assert model.params[name].data.tobytes() == p.data.tobytes()


def test_reprogram_refuses_negative_steps(workspace, tmp_path, capsys):
    out = tmp_path / "rp"
    assert main(["reprogram", "--base_model", str(tmp_path / "base.gacm"),
                 "--manifest", str(workspace["manifest"]), "--out_dir", str(out),
                 "--init_base", "true", "--base_channels", "4",
                 "--input_size", "16", "--steps", "-3", "--batch_size", "2"]) == 1
    assert "error: train_for_steps: " in capsys.readouterr().err
    assert not (out / "wrapper.gacm").exists()


def test_a_manifest_without_train_rows_is_the_same_data_error_for_train_and_reprogram(
        workspace, tmp_path, capsys):
    manifest = tmp_path / "test_only.tsv"
    write_manifest(manifest, [e for e in read_manifest(workspace["manifest"])
                              if e.split == "test"])
    expected = f"error: {manifest}: manifest has no 'train' entries\n"
    assert main(["train", "--manifest", str(manifest),
                 "--out_dir", str(tmp_path / "out")] + TRAIN_FLAGS) == 2
    assert capsys.readouterr().err == expected
    base = tmp_path / "base.gacm"
    assert main(["reprogram", "--base_model", str(base), "--manifest", str(manifest),
                 "--out_dir", str(tmp_path / "rp"), "--init_base", "true",
                 "--base_channels", "2", "--input_size", "8", "--steps", "1"]) == 2
    assert capsys.readouterr().err == expected
    assert not base.exists()


def test_reprogram_missing_base_is_a_data_error(workspace, tmp_path):
    assert main(["reprogram", "--base_model", str(tmp_path / "none.gacm"),
                 "--manifest", str(workspace["manifest"]),
                 "--out_dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("flags", [[], ["--loss", "nope"], ["--steps", "-1"]],
                         ids=["defaults", "unknown_loss", "negative_steps"])
def test_reprogram_refuses_a_missing_base_before_the_manifest_is_read(
        workspace, tmp_path, monkeypatch, capsys, flags):
    def fail(*args, **kwargs):
        raise AssertionError("the manifest was read before the base was checked")

    monkeypatch.setattr("floodseg.dataio.read_split", fail)
    base = tmp_path / "none.gacm"
    assert main(["reprogram", "--base_model", str(base), "--manifest",
                 str(workspace["manifest"]), "--out_dir", str(tmp_path / "out")] + flags) == 2
    assert capsys.readouterr() == ("", f"error: base model not found: {base}\n")
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def small_base(tmp_path_factory):
    """A saved 8 px reprogramming base with a two-channel head."""
    path = tmp_path_factory.mktemp("base") / "base.gacm"
    floodseg.save_model(floodseg.reprogram.make_pretrained_base(c_old=2, size=8, steps=1), path)
    return path


@pytest.mark.parametrize("flags,wrong", [
    (["--input_size", "99", "--base_channels", "99"], "input_size 99 differs from the base "
                                                      "model's 8"),
    (["--base_channels", "3"], "base_channels 3 differs from the base model's 2"),
    (["--init_base", "true", "--input_size", "16"], "input_size 16 differs from the base "
                                                    "model's 8"),
    (["--config", "FILE"], "base_channels 8 differs from the base model's 2")],
    ids=["both", "base_channels", "init_base_with_a_file", "config_file_default_value"])
def test_reprogram_refuses_a_set_key_that_differs_from_a_loaded_base_before_any_pair_is_read(
        workspace, small_base, tmp_path, monkeypatch, capsys, flags, wrong):
    # A base that is loaded, not pretrained, fixes input_size and base_channels. A
    # value set for either, even its default (8 channels, from the file), must match.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_channels = 8\n", encoding="utf-8")
    flags = [str(cfg) if flag == "FILE" else flag for flag in flags]

    def fail(*args, **kwargs):
        raise AssertionError("a pair was read before the base was checked")

    monkeypatch.setattr("floodseg.dataio.read_split", fail)
    out = tmp_path / "rp"
    assert main(["reprogram", "--base_model", str(small_base), "--manifest",
                 str(workspace["manifest"]), "--out_dir", str(out), "--steps", "1"] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {wrong} in {small_base}\n")
    assert not out.exists()


def test_reprogram_refuses_a_reprogrammed_base_before_any_pair_is_read(
        workspace, small_base, tmp_path, monkeypatch, capsys):
    programmed = tmp_path / "programmed.gacm"
    floodseg.save_model(floodseg.ReprogramWrapper(load_model(small_base)).model, programmed)

    def fail(*args, **kwargs):
        raise AssertionError("a pair was read before the base was checked")

    monkeypatch.setattr("floodseg.dataio.read_split", fail)
    out = tmp_path / "rp"
    assert main(["reprogram", "--base_model", str(programmed), "--manifest",
                 str(workspace["manifest"]), "--out_dir", str(out), "--steps", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {programmed}: model is already reprogrammed; "
                                       "reprogram its base model instead\n")
    assert not out.exists()


@pytest.mark.parametrize("per_channel", ["false", "true"])
def test_the_transfer_path_from_a_trained_model_to_a_scored_reprogrammed_one(
        workspace, tmp_path, capsys, per_channel):
    """train a 1-channel gac-unet, reprogram it, then eval and predict on what reprogram
    wrote; every model file that a command writes is a model that load_model reads."""
    manifest = str(workspace["manifest"])
    assert main(["train", "--manifest", manifest, "--out_dir", str(tmp_path / "run")]
                + TRAIN_FLAGS) == 0
    trained_model = load_model(tmp_path / "run" / "model.gacm")
    assert trained_model.spec.variant == "gac-unet" and trained_model.spec.output_channels == 1
    reprogrammed = tmp_path / "rp" / "wrapper.gacm"
    assert main(["reprogram", "--base_model", str(tmp_path / "run" / "model.gacm"),
                 "--manifest", manifest, "--out_dir", str(tmp_path / "rp"), "--steps", "3",
                 "--batch_size", "2", "--per_channel", per_channel]) == 0
    model = load_model(reprogrammed)
    assert model.spec.program == ("per_channel" if per_channel == "true" else "shared")
    assert model.spec.output_channels == 1
    capsys.readouterr()

    report = tmp_path / "report.tsv"
    assert main(["eval", "--model", str(reprogrammed), "--manifest", manifest,
                 "--report", str(report)]) == 0
    printed = capsys.readouterr().out
    pairs = load_pairs(floodseg.read_split(manifest, "test"))
    assert printed == str(floodseg.evaluate(model.predict_proba, pairs)) + "\n"
    assert report.read_text(encoding="utf-8") == printed
    image = sorted(workspace["raw"].glob("*.ppm"))[0]
    assert main(["predict", "--model", str(reprogrammed), "--image", str(image),
                 "--output", str(tmp_path / "pred.pgm")]) == 0
    assert capsys.readouterr().out == f"mask: {tmp_path / 'pred.pgm'}\n"
    want = binarize_mask(model.predict_proba(floodseg.load_image(image)))
    np.testing.assert_array_equal(binarize_mask(load_mask(tmp_path / "pred.pgm")), want)


def test_eval_and_predict_refuse_an_old_wrapper_file_and_a_bad_program(
        workspace, small_base, tmp_path, capsys):
    wrapper = floodseg.ReprogramWrapper(load_model(small_base))
    old = tmp_path / "old.gacm"
    old_wrapper_file(old, wrapper)
    bad = tmp_path / "bad.gacm"
    blob = serialize_model(wrapper.model)
    assert blob.count(b'"program":"shared"') == 1
    bad.write_bytes(blob.replace(b'"program":"shared"', b'"program":"sharex"'))
    image = sorted(workspace["raw"].glob("*.ppm"))[0]
    for path, error in [(old, f"{old}: not a model file (payload kind 1); rerun `floodseg "
                              "reprogram` to write it as a model"),
                        (bad, f"{bad}: bad model configuration block: program: must be one "
                              "of ('none', 'shared', 'per_channel'), got 'sharex'")]:
        assert main(["eval", "--model", str(path), "--manifest",
                     str(workspace["manifest"])]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert main(["predict", "--model", str(path), "--image", str(image),
                     "--output", str(tmp_path / "pred.pgm")]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not (tmp_path / "pred.pgm").exists()


@pytest.mark.parametrize("flags", [[], ["--input_size", "8", "--base_channels", "2"],
                                   ["--init_base", "true", "--base_channels", "2"]],
                         ids=["unset", "equal", "init_base_equal"])
def test_reprogram_takes_an_unset_or_equal_key_with_a_loaded_base(workspace, small_base,
                                                                  tmp_path, flags):
    assert main(["reprogram", "--base_model", str(small_base), "--manifest",
                 str(workspace["manifest"]), "--out_dir", str(tmp_path / "rp"),
                 "--steps", "1", "--batch_size", "2"] + flags) == 0
    assert (tmp_path / "rp" / "wrapper.gacm").is_file()


@pytest.mark.parametrize("command", ["synthetic", "prepare", "train", "reprogram"])
@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"], ids=["file", "below_a_file"])
def test_an_out_dir_that_is_a_file_is_refused_before_any_work(workspace, tmp_path, capsys,
                                                                command, out_dir):
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    base = tmp_path / "base.gacm"
    flags = {"synthetic": ["--count", "2", "--size", "8"],
             "prepare": ["--dataset_dir", str(workspace["raw"]), "--resize", "16",
                         "--crop", "8"],
             "train": ["--manifest", str(workspace["manifest"])] + TRAIN_FLAGS,
             "reprogram": ["--manifest", str(workspace["manifest"]), "--base_model", str(base),
                           "--init_base", "true", "--base_channels", "2",
                           "--input_size", "8", "--steps", "1"]}
    assert main([command, "--out_dir", str(tmp_path / out_dir)] + flags[command]) == 2
    assert capsys.readouterr() == ("", f"error: cannot make out_dir {tmp_path / out_dir}: "
                                       f"{tmp_path / 'afile'} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]     # no base either


@pytest.mark.parametrize("command", ["eval", "predict", "reprogram"])
@pytest.mark.parametrize("target", ["nodir/out", "afile/out", "adir"],
                         ids=["missing", "file", "directory"])
def test_an_output_whose_parent_is_not_a_directory_is_refused_before_loading(
        workspace, tmp_path, capsys, monkeypatch, command, target):
    """Also an output that is itself a directory, and the base ``reprogram`` would pretrain."""
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()

    def fail(*args, **kwargs):
        raise AssertionError("work was done before the output was checked")

    monkeypatch.setattr("floodseg.model.load_model", fail)
    monkeypatch.setattr("floodseg.reprogram.make_pretrained_base", fail)
    output = tmp_path / target
    image = next(iter(sorted(workspace["raw"].glob("*.ppm"))))
    model = ["--model", str(tmp_path / "model.gacm")]
    flags = {"eval": model + ["--manifest", str(workspace["manifest"]), "--report", str(output)],
             "predict": model + ["--image", str(image), "--output", str(output)],
             "reprogram": ["--manifest", str(workspace["manifest"]), "--base_model", str(output),
                           "--init_base", "true", "--out_dir", str(tmp_path / "out"),
                           "--base_channels", "2", "--input_size", "8", "--steps", "1"]}
    assert main([command] + flags[command]) == 2
    reason = ("it is a directory" if target == "adir"
              else f"{output.parent} is not a directory")
    assert capsys.readouterr() == ("", f"error: cannot write {output}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert not any((tmp_path / "adir").iterdir())


def test_a_manifest_that_is_not_utf8_exits_with_data_code(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(workspace["manifest"].read_bytes() + b"\xff\n")
    assert main(["train", "--manifest", str(manifest),
                 "--out_dir", str(tmp_path / "out")] + TRAIN_FLAGS) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {manifest}: manifest is not UTF-8 text: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_directory_given_as_an_image_exits_with_data_code(workspace, trained, tmp_path,
                                                            capsys, command):
    folder = tmp_path / "folder.ppm"
    folder.mkdir()
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, [replace(e, image_path=str(folder))
                              for e in read_manifest(workspace["manifest"])])
    flags = {"train": ["--manifest", str(manifest), "--out_dir", str(tmp_path / "out")]
             + TRAIN_FLAGS,
             "eval": ["--model", str(trained / "model.gacm"), "--manifest", str(manifest)],
             "predict": ["--model", str(trained / "model.gacm"), "--image", str(folder),
                         "--output", str(tmp_path / "pred.pgm")]}
    assert main([command] + flags[command]) == 2
    out, err = capsys.readouterr()
    # eval reads the manifest's first test row first, and train the first train row that
    # its seeded epoch-1 shuffle draws, both through load_pair
    rows = read_manifest(manifest)
    mask = next(e.mask_path for e in rows if e.split == "test")
    if command == "train":
        train = [e for e in rows if e.split == "train"]
        mask = train[np.random.RandomState(0).permutation(len(train))[0]].mask_path
    pair = "" if command == "predict" else f"cannot read pair {folder}, {mask}: "
    assert out == "" and err == f"error: {pair}[Errno 21] Is a directory: '{folder}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder.ppm", "manifest.tsv"]


# ---- gradcheck --------------------------------------------------------------


def test_gradcheck_passes_and_prints_a_table(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out
    table = [line for line in out.splitlines() if "tolerance" in line]
    assert [line.split()[0] for line in table] == [
        "conv2d", "conv2d_narrowing", "conv2d_batch", "conv2d_pointwise_batch", "dilated_conv2d",
        "dilated_conv2d_batch", "maxpool2",
        "maxpool2_ties_batch", "upsample2", "neighbour_sum", "gat_conv", "cheb_conv",
        "cheb_conv_isolated", "center_of_mass", "input_transform", "output_map", "bce_loss", "dice_loss", "dice_loss_batch",
        "end_to_end_gac_unet"]
    assert all(line.endswith("pass") for line in table)


def test_gradcheck_failure_exits_with_numeric_code(monkeypatch, capsys):
    def broken_suite(seed=0):
        return [CheckResult("sabotaged", 0.5, 1e-5)]

    monkeypatch.setattr("floodseg.checks.run_gradient_suite", broken_suite)
    assert main(["gradcheck"]) == 3
    assert "gradient check FAILED" in capsys.readouterr().out


# ---- robustness -------------------------------------------------------------


def test_reprogram_with_fewer_pairs_than_batch_size(workspace, tmp_path):
    train_pairs = [e for e in read_manifest(workspace["manifest"]) if e.split == "train"]
    assert len(train_pairs) < 64
    assert main(["reprogram", "--base_model", str(tmp_path / "base.gacm"),
                 "--manifest", str(workspace["manifest"]), "--out_dir", str(tmp_path / "rp"),
                 "--init_base", "true", "--base_channels", "2", "--input_size", "8",
                 "--steps", "2", "--batch_size", "64"]) == 0


def test_eval_rejects_non_finite_model_as_data_error(workspace, tmp_path, capsys):
    net = init_params(build_model(ModelSpec(input_size=8, widths=(2,),
                                            variant="plain-unet")), 0)
    net.params["head.w"].data[...] = np.nan
    path = tmp_path / "nan.gacm"
    path.write_bytes(serialize_model(net))
    assert main(["eval", "--model", str(path), "--manifest", str(workspace["manifest"])]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("config", [b"[]", b"null", b"\xff", b'{"widths":"16"}',
                                    b'{"com":"no"}'])
def test_eval_rejects_malformed_config_block_as_data_error(workspace, tmp_path, config,
                                                           capsys):
    path = tmp_path / "bad.gacm"
    path.write_bytes(MAGIC + struct.pack("<HBBI", FORMAT_VERSION, KIND_MODEL, 4, len(config))
                     + config)
    assert main(["eval", "--model", str(path), "--manifest", str(workspace["manifest"])]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("train", ["--batch_size", "0"]),
    ("train", ["--loss", "huber"]),
    ("reprogram", ["--batch_size", "0"]),
    ("reprogram", ["--loss", "huber"]),
    ("reprogram", ["--steps", "-1"]),
    ("reprogram", ["--lr", "0"]),
    ("train", ["--epochs", "-1"]),
])
def test_bad_library_arguments_end_in_an_error_line(workspace, tmp_path, command, flags):
    # each is refused before anything is written: no --out_dir, and no base
    paths = {"train": ["--out_dir", str(tmp_path / "out")] + TRAIN_FLAGS,
             "reprogram": ["--out_dir", str(tmp_path / "rp"), "--init_base", "true",
                           "--base_model", str(tmp_path / "base.gacm"),
                           "--base_channels", "2", "--input_size", "8", "--steps", "1"]}
    env = dict(os.environ, PYTHONPATH=str(Path(floodseg.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "floodseg.cli", command,
                             "--manifest", str(workspace["manifest"])] + paths[command] + flags,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == "" and not list(tmp_path.iterdir())
    if "huber" in flags:        # train and reprogram refuse a loss with the same line
        assert result.stderr == "error: unknown loss 'huber', expected one of ['bce', 'dice']\n"
    if command == "train" and flags[0] in ("--batch_size", "--epochs"):
        key, value = flags[0][2:], flags[1]
        bound = {"batch_size": ">= 1", "epochs": ">= 0"}[key]
        assert result.stderr == f"error: train_model: {key} must be {bound}, got {value}\n"


DETERMINISTIC_PROBE = """
import os, sys
import floodseg.cli
print("numpy loaded by import:", "numpy" in sys.modules)
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
code = floodseg.cli.main(sys.argv[1:] + ["--deterministic"])
print("exit:", code)
print("OPENBLAS_NUM_THREADS when numpy loaded:", seen[0])
"""


def test_deterministic_pins_threads_before_numpy_loads(workspace, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(floodseg.__file__).parents[1])
    commands = (["dataset-stats", "--dataset_dir", str(workspace["raw"])],
                ["synthetic", "--out_dir", str(tmp_path / "raw"), "--count", "1", "--size", "4"])
    for command in commands:
        for inherited in ({}, {"OPENBLAS_NUM_THREADS": "2"}):    # the flag overrides the caller
            result = subprocess.run([sys.executable, "-c", DETERMINISTIC_PROBE] + command,
                                    env=dict(env, **inherited), capture_output=True, text=True,
                                    timeout=120)
            lines = result.stdout.splitlines()
            assert "numpy loaded by import: False" in lines, result.stdout + result.stderr
            assert "exit: 0" in lines
            assert "OPENBLAS_NUM_THREADS when numpy loaded: 1" in lines

"""Command-line driver.

``COMMANDS`` is the one table of commands: each name's handler, the keys it
reads and its help line. Every setting is a flat key=value: read from
``--config FILE`` (one pair per line, ``#`` comments), overridden by
``--key value`` flags. A command takes only the keys it reads: any other key
is refused, from a flag or a file alike. ``--deterministic``, which every
command takes, pins the numeric libraries to one thread before they load;
given alone it means true, and it takes a boolean value as any other boolean
key does.

Exit codes: 0 success, 1 usage or configuration error (a setting too large
for memory included), 2 data error (an unreadable or unwritable path
included), 3 numeric failure (non-finite loss, a failed gradient check or a
drifted frozen base).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import floodseg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 1."""


class Config(dict):
    """A command's settings; ``given`` names those set by a flag or a ``--config`` file."""
    given = frozenset()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _parse_str_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2 ** 32:
        raise ValueError(f"must lie in 0..2**32-1, got {seed}")
    return seed


# key -> (parser, default). A command requires each key it reads whose default is None.
KEYS = {
    "dataset_dir": (str, None),
    "out_dir": (str, None),
    "manifest": (str, None),
    "model": (str, None),
    "base_model": (str, None),
    "image": (str, None),
    "output": (str, None),
    "report": (str, ""),
    "split": (str, "test"),
    "seed": (_parse_seed, 0),
    "count": (int, 20),
    "size": (int, 64),
    "blob_scale": (float, 1.0),
    "float_width": (int, 32),
    "input_size": (int, 256),
    "widths": (_parse_int_list, (16, 32, 64)),
    "variant": (str, "gac-unet"),
    "connectivity": (int, 4),
    "gat_out": (int, 0),
    "cheb_order": (int, 2),
    "cheb_out": (int, 0),
    "com": (_parse_bool, True),
    "loss": (str, "dice"),
    "lr": (float, 1e-3),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "eps": (float, 1e-8),
    "epochs": (int, 10),
    "batch_size": (int, 4),
    "freeze": (_parse_str_list, ()),
    "early_stop_train_dice": (float, 0.0),
    "resize": (int, 512),
    "crop": (int, 256),
    "steps": (int, 100),
    "per_channel": (_parse_bool, False),
    "init_base": (_parse_bool, False),
    "base_channels": (int, 8),
    "pred_threshold": (float, 0.5),
    "deterministic": (_parse_bool, False),
}
_ADAM = ("lr", "beta1", "beta2", "eps")
_SPEC = ("input_size", "widths", "variant", "connectivity", "gat_out", "cheb_order", "cheb_out",
         "com")


def _read_config_file(path: str) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        pairs.append(tuple(part.strip() for part in stripped.split("=", 1)))
    return pairs


def _resolve_config(command: str, args: list) -> dict:
    """The settings of ``command``: the keys it reads, plus ``deterministic``."""
    from_files: list = []
    from_flags: list = []
    tokens = list(reversed(args))      # popped from the end
    while tokens:
        token = tokens.pop()
        if not token.startswith("--"):
            raise UsageError(f"unexpected argument {token!r}")
        key = token[2:]
        if key == "deterministic" and (not tokens or tokens[-1].startswith("--")):
            tokens.append("true")      # a bare --deterministic means true
        if not tokens:
            raise UsageError(f"flag --{key} needs a value")
        value = tokens.pop()
        if key == "config":
            from_files += _read_config_file(value)
        else:
            from_flags.append((key, value))

    _, keys, _ = COMMANDS[command]
    config = Config((key, KEYS[key][1]) for key in keys + ("deterministic",))
    # a flag beats a file, a later value an earlier; "-" reads as "_" in either
    settings = {key.replace("-", "_"): text for key, text in from_files + from_flags}
    for key, text in settings.items():
        if key not in KEYS:
            raise UsageError(f"unknown configuration key {key!r}")
        if key not in config:
            raise UsageError(f"{command} does not read {key!r}")
        parser, _ = KEYS[key]
        try:
            config[key] = parser(text)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
    config.given = frozenset(settings)
    if config.get("float_width", 32) not in (32, 64):
        raise UsageError(f"float_width must be 32 or 64, got {config['float_width']}")
    if not 0 <= config.get("pred_threshold", 0) <= 1:
        raise UsageError(f"pred_threshold must lie in [0, 1], got {config['pred_threshold']}")
    missing = [key for key in keys if KEYS[key][1] is None and not config[key]]
    if missing:
        raise UsageError(f"{command} needs --" + ", --".join(missing))
    return config


def _write_log(config: dict, name: str, rows: list) -> Path:
    """Make ``out_dir`` and write its log ``name``: the configuration as sorted
    ``# key=value`` lines (a tuple comma-joined), then ``rows``. Returns the log's path."""
    path = Path(config["out_dir"]) / name
    os.makedirs(path.parent, exist_ok=True)
    echo = [f"# {key}={','.join(map(str, value)) if isinstance(value, tuple) else value}"
            for key, value in sorted(config.items())]
    path.write_text("\n".join(echo + rows) + "\n", encoding="utf-8")
    return path


def _check_output_file(path):
    """Refuse, before any work, a file to write that is a directory or whose parent is not one."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise NotADirectoryError(f"cannot write {path}: {Path(path).parent} is not a directory")


def _load_mask_model(path: str):
    """A saved model with the one output channel that a mask is cut from."""
    net = floodseg.load_model(path)
    if net.spec.out_channels != 1:
        raise floodseg.DataError(f"{path}: model has {net.spec.out_channels} output channels, "
                                 "not 1")
    return net


def _adam(config: dict) -> dict:
    """``Adam``'s keyword settings, as ``train_model`` and ``reprogram_train`` pass them on."""
    return {key: config[key] for key in _ADAM}


# ---- command handlers -------------------------------------------------------


def cmd_synthetic(config: dict) -> int:
    written = floodseg.write_flood_set(config["out_dir"], config["count"], config["size"],
                                       config["seed"], config["blob_scale"])
    print(f"wrote {len(written)} image/mask pairs to {config['out_dir']}")
    return EXIT_OK


def cmd_prepare(config: dict) -> int:
    result = floodseg.prepare_dataset(config["dataset_dir"], config["out_dir"], config["seed"],
                                      resize=config["resize"], crop=config["crop"])
    print(f"{result.train_count} train / {result.test_count} test, "
          f"{result.augmented_count} augmented train pairs")
    print(f"positive pixel fraction: {result.positive_fraction:.4f}")
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def cmd_dataset_stats(config: dict) -> int:
    count, fraction = floodseg.dataio.dataset_stats(config["dataset_dir"])
    print(f"{count} image/mask pairs")
    print(f"positive pixel fraction: {fraction:.4f}")
    return EXIT_OK


def cmd_train(config: dict) -> int:
    train_entries = floodseg.read_split(config["manifest"], "train")
    val_entries = [e for e in floodseg.read_manifest(config["manifest"]) if e.split == "test"]
    spec = floodseg.ModelSpec(seed=config["seed"], **{key: config[key] for key in _SPEC})
    net = floodseg.init_params(floodseg.build_model(spec, f"float{config['float_width']}"),
                               spec.seed)
    result = floodseg.train_model(net, train_entries, val_entries, loss=config["loss"],
                                  epochs=config["epochs"], batch_size=config["batch_size"],
                                  seed=spec.seed, freeze=config["freeze"],
                                  early_stop_train_dice=config["early_stop_train_dice"],
                                  on_epoch=lambda row: print(row.format()), **_adam(config))

    log_path = _write_log(config, "train.log", [row.format() for row in result.rows])
    model_path = log_path.parent / "model.gacm"
    model_path.write_bytes(result.model_bytes)
    kept = f"epoch {result.best_epoch}" if result.best_epoch else "final state"
    print(f"model: {model_path} ({kept})")
    print(f"log: {log_path}")
    return EXIT_OK


def cmd_eval(config: dict) -> int:
    if config["report"]:
        _check_output_file(config["report"])
    net = _load_mask_model(config["model"])
    pairs = floodseg.dataio.load_pairs(floodseg.read_split(config["manifest"], config["split"]))
    report = str(floodseg.evaluate(net.predict_proba, pairs, config["pred_threshold"]))
    print(report)
    if config["report"]:
        Path(config["report"]).write_text(report + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_predict(config: dict) -> int:
    _check_output_file(config["output"])
    net = _load_mask_model(config["model"])
    prob = net.predict_proba(floodseg.load_image(config["image"]))
    floodseg.save_mask(config["output"], floodseg.binarize_mask(prob, config["pred_threshold"]))
    print(f"mask: {config['output']}")
    return EXIT_OK


def cmd_reprogram(config: dict) -> int:
    base_path = Path(config["base_model"])
    if make_base := config["init_base"] and not base_path.is_file():
        _check_output_file(base_path)
    elif not base_path.is_file():
        raise floodseg.DataError(f"base model not found: {base_path}")
    else:
        base = floodseg.load_model(base_path)
        # a loaded base fixes the two keys a pretrained one is built from
        for key, value in (("input_size", base.spec.input_size),
                           ("base_channels", base.spec.out_channels)):
            if key in config.given and config[key] != value:
                raise UsageError(f"{key} {config[key]} differs from the base model's {value} "
                                 f"in {base_path}")
    pairs = floodseg.dataio.load_pairs(floodseg.read_split(config["manifest"], "train"))
    # The run's own checks of its settings, before a base is pretrained and written.
    floodseg.convnn.loss_named(config["loss"])
    floodseg.train.check_schedule(len(pairs), config["steps"], config["batch_size"])
    floodseg.Adam({}, **_adam(config))
    if make_base:
        base = floodseg.reprogram.make_pretrained_base(
            c_old=config["base_channels"], size=config["input_size"], seed=config["seed"])
        floodseg.save_model(base, base_path)
        print(f"pretrained base: {base_path}")
        base = floodseg.load_model(base_path)

    wrapper = floodseg.ReprogramWrapper(base, per_channel=config["per_channel"],
                                        seed=config["seed"])
    print(f"frozen base checksum: {wrapper.base_checksum}")
    initial_loss = floodseg.reprogram.dataset_loss(wrapper, pairs, config["loss"])
    losses = floodseg.reprogram_train(wrapper, pairs, config["steps"], loss=config["loss"],
                                      batch_size=config["batch_size"], seed=config["seed"],
                                      **_adam(config))
    final_loss = floodseg.reprogram.dataset_loss(wrapper, pairs, config["loss"])
    print(f"frozen base checksum: {floodseg.model_checksum(base)}")

    log_path = _write_log(config, "reprogram.log", [f"{i}\t{v:.6f}" for i, v in enumerate(losses)])
    wrapper_path = log_path.parent / "wrapper.gacm"
    floodseg.save_wrapper(wrapper, wrapper_path)
    print(f"loss: {initial_loss:.6f} -> {final_loss:.6f} over {len(losses)} steps")
    print(f"wrapper: {wrapper_path}")
    return EXIT_OK


def cmd_gradcheck(config: dict) -> int:
    results = floodseg.run_gradient_suite(seed=config["seed"])
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  {r.max_error:.3e}  (tolerance {r.tolerance:.0e})  {status}")
        failed = failed or not r.ok
    if failed:
        print("gradient check FAILED")
        return EXIT_NUMERIC
    print("all gradient checks passed")
    return EXIT_OK


# name -> (handler, keys it reads, help line); the usage text lists them in this order.
COMMANDS = {
    "synthetic": (cmd_synthetic, ("out_dir", "count", "size", "seed", "blob_scale"),
                  "write a seeded synthetic corpus of image/mask pairs"),
    "prepare": (cmd_prepare, ("dataset_dir", "out_dir", "seed", "resize", "crop"),
                "split a raw corpus 70/30 and write the augmented train set"),
    "train": (cmd_train, ("manifest", "out_dir", "seed", "float_width") + _SPEC + ("loss",)
              + _ADAM + ("epochs", "batch_size", "freeze", "early_stop_train_dice"),
              "train a model on a prepared manifest"),
    "eval": (cmd_eval, ("model", "manifest", "split", "report", "pred_threshold"),
             "score a model on a manifest split"),
    "predict": (cmd_predict, ("model", "image", "output", "pred_threshold"),
                "write a predicted mask for one image"),
    "reprogram": (cmd_reprogram, ("base_model", "manifest", "out_dir", "seed", "loss") + _ADAM
                  + ("steps", "batch_size", "per_channel", "init_base", "base_channels",
                     "input_size"),
                  "train an input/output program around a frozen base model"),
    "gradcheck": (cmd_gradcheck, ("seed",), "finite-difference check of every layer and loss"),
    "dataset-stats": (cmd_dataset_stats, ("dataset_dir",),
                      "pair count and positive-pixel fraction of a raw corpus"),
}

USAGE = ("usage: floodseg COMMAND [--config FILE] [--deterministic] [--KEY VALUE ...]\n\n"
         "commands:\n"
         + "".join(f"  {name:<15}{help_line}\n" for name, (*_, help_line) in COMMANDS.items())
         + "\nrun `floodseg COMMAND` with no further flags to see which keys it needs.\n")


def _set_single_threaded():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _check_out_dir(path: str):
    """Refuse, before any work, an out_dir whose nearest existing path is not a directory."""
    nearest = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"cannot make out_dir {path}: {nearest} is not a directory")


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE, end="")
        return EXIT_OK if argv else EXIT_USAGE
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        print(f"unknown command {command!r}", file=sys.stderr)
        print(USAGE, end="", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = _resolve_config(command, rest)
    except UsageError as exc:
        return _error(exc, EXIT_USAGE)

    if config["deterministic"]:
        _set_single_threaded()
    try:
        if "out_dir" in config:
            _check_out_dir(config["out_dir"])
        return COMMANDS[command][0](config)
    except (floodseg.DataError, floodseg.ModelFormatError, floodseg.ShapeError,
            OSError) as exc:     # ShapeError is a ValueError
        return _error(exc, EXIT_DATA)
    except (UsageError, ValueError, MemoryError) as exc:
        # bad arguments, SpecError included, or a setting too large for memory
        return _error(exc, EXIT_USAGE)
    except (floodseg.NumericFailure, floodseg.FrozenBaseError) as exc:
        return _error(exc, EXIT_NUMERIC)


if __name__ == "__main__":
    raise SystemExit(main())

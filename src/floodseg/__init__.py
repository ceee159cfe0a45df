"""Self-contained flood-mapping segmentation engine.

A small U-Net whose bottleneck runs graph attention and a Chebyshev graph
convolution over the coarsest feature grid, trained with a from-scratch
reverse-mode autodiff core on netpbm imagery. Includes dataset preparation
(70/30 split plus flip/crop augmentation), IoU/Dice/mAP evaluation, and
model reprogramming around a frozen base network.

The exported names and submodules resolve on first use (PEP 562), so importing
the package loads no numpy. ``floodseg.cli`` reaches the library only through
them, so ``--deterministic`` pins the thread count before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "tensor": ("ShapeError", "TapeError", "Tensor", "grad_check", "no_grad"),
    "convnn": ("bce_loss", "conv2d", "dice_loss", "maxpool2", "upsample2"),
    "graphnn": ("ChebParams", "GatParams", "Graph", "NormalizedLaplacian",
                "build_grid_graph", "center_of_mass", "cheb_conv", "gat_conv"),
    "dataio": ("DataError", "ImagePair", "PnmError", "augment_expand", "binarize_mask",
               "discover_pairs", "five_crop", "load_image", "load_mask", "load_pair",
               "prepare_dataset", "read_manifest", "read_split", "resize_bilinear",
               "save_image", "save_mask", "split_dataset", "write_manifest"),
    "model": ("Model", "ModelFormatError", "ModelSpec", "SpecError", "build_model",
              "init_params", "load_model", "model_checksum", "save_model",
              "serialize_model"),
    "metrics": ("MetricReport", "dice_score", "evaluate", "iou", "mean_average_precision"),
    "optim": ("Adam",),
    "train": ("NumericFailure", "TrainResult", "train_model"),
    "reprogram": ("FrozenBaseError", "ReprogramWrapper", "input_transform", "output_map",
                  "reprogram_train"),
    "checks": ("run_gradient_suite",),
    "synthetic": ("write_flood_set",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package namespace: each access reads the submodule's
    # current binding, so rebinding a submodule global is seen here too.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

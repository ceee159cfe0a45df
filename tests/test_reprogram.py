"""Reprogramming wrapper: input program, output map, frozen-base guarantees."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodseg.convnn import bce_loss
from floodseg.dataio import resize_bilinear
from floodseg.model import (FORMAT_VERSION, KIND_WRAPPER, MAGIC, ModelFormatError,
                            ModelSpec, build_model, init_params, model_checksum,
                            save_model, serialize_model)
from floodseg.reprogram import (FrozenBaseError, ReprogramWrapper, input_transform,
                                load_wrapper, make_pretrained_base, output_map,
                                reprogram_train, save_wrapper)
from floodseg.synthetic import generate_flood_set
from floodseg.tensor import ShapeError, Tensor, grad_check
from floodseg.train import NumericFailure


def small_base(out_channels=2, size=8, widths=(2,), seed=0, dtype=np.float32):
    spec = ModelSpec(input_size=size, widths=widths, variant="plain-unet",
                     out_channels=out_channels, seed=seed)
    return init_params(build_model(spec, dtype), seed)


# ---- input program ----------------------------------------------------------


def test_input_transform_shared_program_matches_loop():
    rng = np.random.RandomState(0)
    x = rng.uniform(-1, 1, (3, 4, 5))
    w = rng.uniform(-1, 1, (4, 5))
    b = rng.uniform(-1, 1, (4, 5))
    out = input_transform(Tensor(x), Tensor(w), Tensor(b)).data
    want = np.empty_like(x)
    for c in range(3):
        for i in range(4):
            for j in range(5):
                want[c, i, j] = w[i, j] * x[c, i, j] + b[i, j]
    np.testing.assert_allclose(out, want, rtol=0, atol=0)


def test_input_transform_per_channel_program_matches_loop():
    rng = np.random.RandomState(1)
    x = rng.uniform(-1, 1, (3, 4, 5))
    w = rng.uniform(-1, 1, (3, 4, 5))
    b = rng.uniform(-1, 1, (3, 4, 5))
    out = input_transform(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_array_equal(out, w * x + b)


def test_input_transform_programs_each_sample_of_a_batch():
    rng = np.random.RandomState(4)
    batch = rng.uniform(-1, 1, (2, 3, 4, 5))
    for shape in [(4, 5), (3, 4, 5)]:
        w, b = Tensor(rng.uniform(-1, 1, shape)), Tensor(rng.uniform(-1, 1, shape))
        out = input_transform(Tensor(batch), w, b).data
        for sample, got in zip(batch, out):
            np.testing.assert_array_equal(got, input_transform(Tensor(sample), w, b).data)
    with pytest.raises(ShapeError):
        input_transform(Tensor(batch), Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((2, 4, 5))))


def test_input_transform_shape_validation():
    x = Tensor(np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        input_transform(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ShapeError):
        input_transform(x, Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        input_transform(x, Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((2, 4, 5))))


# ---- output map -------------------------------------------------------------


def test_output_map_is_per_pixel_dot_product_plus_sigmoid():
    rng = np.random.RandomState(2)
    features = rng.uniform(-2, 2, (4, 3, 3))
    kernel = rng.uniform(-1, 1, (1, 4, 1, 1))
    bias = rng.uniform(-1, 1, (1,))
    out = output_map(Tensor(features), Tensor(kernel), Tensor(bias)).data
    for i in range(3):
        for j in range(3):
            logit = bias[0] + sum(kernel[0, c, 0, 0] * features[c, i, j]
                                  for c in range(4))
            want = 1.0 / (1.0 + np.exp(-logit))
            assert abs(out[0, i, j] - want) < 1e-12


def test_output_map_sigmoid_only_for_single_channel_by_default():
    rng = np.random.RandomState(3)
    features = Tensor(rng.uniform(-2, 2, (4, 3, 3)))
    kernel = Tensor(rng.uniform(-1, 1, (2, 4, 1, 1)))
    bias = Tensor(np.zeros(2))
    linear = output_map(features, kernel, bias).data
    assert linear.min() < 0          # no squashing happened
    squashed = output_map(features, Tensor(kernel.data[:1]), Tensor(bias.data[:1])).data
    np.testing.assert_allclose(squashed, 1.0 / (1.0 + np.exp(-linear[:1])), atol=1e-12)


def test_output_map_requires_1x1_kernel():
    features = Tensor(np.zeros((4, 3, 3)))
    with pytest.raises(ShapeError):
        output_map(features, Tensor(np.zeros((1, 4, 2, 2))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError):
        output_map(features, Tensor(np.zeros((1, 4))), Tensor(np.zeros(1)))


# ---- wrapper ----------------------------------------------------------------


def test_wrapper_initializes_to_identity_program_and_freezes_base():
    base = small_base()
    x = np.random.RandomState(4).uniform(0, 1, (3, 8, 8)).astype(np.float32)
    plain_features = base.forward(Tensor(x)).data
    wrapper = ReprogramWrapper(base, c_new=1)
    assert all(not p.requires_grad for p in base.params.values())
    assert all(p.requires_grad for p in wrapper.params.values())
    np.testing.assert_array_equal(wrapper.params["reprog.in.w"].data, 1.0)
    np.testing.assert_array_equal(wrapper.params["reprog.in.b"].data, 0.0)
    assert wrapper.base_checksum == model_checksum(base)

    # identity input program: the wrapper output is exactly the output map of
    # the untouched base features
    want = output_map(Tensor(plain_features), wrapper.params["reprog.out.w"],
                      wrapper.params["reprog.out.b"]).data
    np.testing.assert_array_equal(wrapper.forward(Tensor(x)).data, want)


def test_wrapper_per_channel_program_shape():
    wrapper = ReprogramWrapper(small_base(), per_channel=True)
    assert wrapper.params["reprog.in.w"].data.shape == (3, 8, 8)


def test_predict_proba_shape_and_range():
    wrapper = ReprogramWrapper(small_base(), c_new=1)
    image = np.random.RandomState(5).uniform(0, 1, (8, 8, 3)).astype(np.float32)
    prob = wrapper.predict_proba(image)
    assert prob.shape == (8, 8)
    assert prob.min() > 0.0 and prob.max() < 1.0


def test_predict_proba_returns_the_map_at_the_image_size():
    wrapper = ReprogramWrapper(small_base(), c_new=1)
    image = np.random.RandomState(6).uniform(0, 1, (20, 12, 3)).astype(np.float32)
    prob = wrapper.predict_proba(image)
    assert prob.shape == (20, 12)
    at_input = wrapper.predict_proba(resize_bilinear(image, 8, 8))
    np.testing.assert_array_equal(prob, resize_bilinear(at_input, 20, 12))


def test_verify_frozen_detects_tampering():
    wrapper = ReprogramWrapper(small_base())
    wrapper.verify_frozen()
    next(iter(wrapper.base.params.values())).data += 1e-3
    with pytest.raises(FrozenBaseError):
        wrapper.verify_frozen()


# ---- training ---------------------------------------------------------------


def test_zero_steps_is_a_no_op():
    wrapper = ReprogramWrapper(small_base())
    before = {k: p.data.copy() for k, p in wrapper.params.items()}
    pairs = generate_flood_set(2, 8, seed=6)
    assert reprogram_train(wrapper, pairs, steps=0) == []
    for k, p in wrapper.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_training_reduces_loss_and_never_touches_base():
    base = small_base(out_channels=4, size=16, widths=(2, 4), seed=7)
    base_bytes = serialize_model(base)
    wrapper = ReprogramWrapper(base, c_new=1, seed=7)
    pairs = generate_flood_set(6, 16, seed=7)
    losses = reprogram_train(wrapper, pairs, steps=40, loss="dice", lr=0.05,
                             batch_size=3, seed=7)
    assert len(losses) == 40
    assert losses[-1] < losses[0]
    assert serialize_model(base) == base_bytes
    wrapper.verify_frozen()


def test_training_validates_inputs():
    wrapper = ReprogramWrapper(small_base())
    pairs = generate_flood_set(2, 8, seed=8)
    with pytest.raises(ValueError):
        reprogram_train(wrapper, pairs, steps=1, loss="hinge")
    with pytest.raises(ValueError):
        reprogram_train(wrapper, [], steps=1)
    with pytest.raises(ValueError, match="-1 steps"):
        reprogram_train(wrapper, pairs, steps=-1)
    next(iter(wrapper.base.params.values())).data += 1.0
    with pytest.raises(FrozenBaseError):
        reprogram_train(wrapper, pairs, steps=1)


def test_a_misspelt_keyword_names_reprogram_train_before_any_step():
    wrapper = ReprogramWrapper(small_base())
    before = {k: p.data.copy() for k, p in wrapper.params.items()}
    with pytest.raises(TypeError, match=r"^reprogram_train: .*'learning_rate'$"):
        reprogram_train(wrapper, generate_flood_set(2, 8, seed=8), steps=1, learning_rate=0.1)
    for k, p in wrapper.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_make_pretrained_base_smoke():
    base = make_pretrained_base(c_old=3, size=8, widths=(2,), seed=0, steps=2)
    assert base.spec.out_channels == 3
    out = base.forward(Tensor(np.full((3, 8, 8), 0.5, dtype=np.float32))).data
    assert out.shape == (3, 8, 8)
    assert out.min() > 0.0 and out.max() < 1.0


# ---- serialization ----------------------------------------------------------


def test_wrapper_round_trip(tmp_path):
    base = small_base(seed=9)
    wrapper = ReprogramWrapper(base, c_new=1, per_channel=True, seed=9)
    rng = np.random.RandomState(9)
    for p in wrapper.params.values():
        p.data[...] = rng.uniform(-1, 1, p.data.shape).astype(p.data.dtype)
    path = tmp_path / "wrapper.gacm"
    save_wrapper(wrapper, path)

    loaded = load_wrapper(path, base)
    assert loaded.c_new == 1 and loaded.per_channel is True
    for k in wrapper.params:
        np.testing.assert_array_equal(loaded.params[k].data, wrapper.params[k].data)

    # the base argument may also be a saved model path
    base_path = tmp_path / "base.gacm"
    save_model(base, base_path)
    from_path = load_wrapper(path, base_path)
    np.testing.assert_array_equal(from_path.params["reprog.in.w"].data,
                                  wrapper.params["reprog.in.w"].data)


def test_load_wrapper_rejects_wrong_base_and_wrong_kind(tmp_path):
    base = small_base(seed=10)
    wrapper = ReprogramWrapper(base)
    path = tmp_path / "wrapper.gacm"
    save_wrapper(wrapper, path)
    with pytest.raises(ModelFormatError):
        load_wrapper(path, small_base(seed=11))
    base_path = tmp_path / "base.gacm"
    save_model(base, base_path)
    with pytest.raises(ModelFormatError):
        load_wrapper(base_path, base)          # a model file is not a wrapper
    with pytest.raises(ModelFormatError):
        load_wrapper(tmp_path / "missing.gacm", base)
    blob = path.read_bytes()
    truncated = tmp_path / "short.gacm"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(ModelFormatError):
        load_wrapper(truncated, base)


# ---- gradients --------------------------------------------------------------


def test_wrapper_gradients_pass_numeric_check():
    base = small_base(out_channels=2, size=8, widths=(2,), seed=12, dtype=np.float64)
    wrapper = ReprogramWrapper(base, c_new=1, seed=12)
    rng = np.random.RandomState(12)
    x = Tensor(rng.uniform(0, 1, (3, 8, 8)), requires_grad=True)
    target = Tensor((rng.uniform(0, 1, (1, 8, 8)) > 0.5).astype(np.float64))

    def fn(in_w, in_b, out_w, out_b, image):
        programmed = input_transform(image, in_w, in_b)
        features = base.forward(programmed)
        return bce_loss(output_map(features, out_w, out_b), target)

    inputs = list(wrapper.params.values()) + [x]
    assert grad_check(fn, inputs, step=1e-6) < 1e-4


# ---- shared training step ---------------------------------------------------


def test_non_finite_loss_raises_numeric_failure():
    wrapper = ReprogramWrapper(small_base(), seed=13)
    wrapper.params["reprog.out.w"].data[...] = np.nan
    pairs = generate_flood_set(5, 8, seed=13)
    with pytest.raises(NumericFailure) as info:
        reprogram_train(wrapper, pairs, steps=2, seed=13)
    assert info.value.batch_id == "0"


def test_fewer_pairs_than_batch_size_still_fills_each_batch():
    wrapper = ReprogramWrapper(small_base(), seed=14)
    pairs = generate_flood_set(2, 8, seed=14)
    losses = reprogram_train(wrapper, pairs, steps=3, batch_size=4, seed=14)
    assert len(losses) == 3
    assert all(np.isfinite(losses))


# ---- malformed wrapper files --------------------------------------------------


def test_load_wrapper_rejects_non_finite_parameters(tmp_path):
    base = small_base(seed=15)
    for bad in (np.nan, np.inf):
        wrapper = ReprogramWrapper(base, seed=15)
        wrapper.params["reprog.in.b"].data[0, 0] = bad
        path = tmp_path / "wrapper.gacm"
        save_wrapper(wrapper, path)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_wrapper(path, base)


PROPERTY_BASE = small_base(seed=16)
GOOD_CONFIG = ('{"base_checksum":"%s","c_new":1,"per_channel":false}'
               % model_checksum(PROPERTY_BASE)).encode()


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.one_of(st.binary(max_size=64), st.just(GOOD_CONFIG)),
       payload=st.binary(max_size=64))
@example(config=b"[]", payload=b"")
@example(config=b"null", payload=b"")
@example(config=b"\xff", payload=b"")
@example(config=b'{"c_new": "1", "per_channel": false, "base_checksum": "x"}', payload=b"")
@example(config=b'{"c_new": 1, "per_channel": false, "base_checksum": 7}', payload=b"")
def test_load_wrapper_raises_only_model_format_error(tmp_path, config, payload):
    path = tmp_path / "fuzz.gacm"
    path.write_bytes(MAGIC + struct.pack("<HBBI", FORMAT_VERSION, KIND_WRAPPER, 4, len(config))
                     + config + payload)
    with pytest.raises(ModelFormatError):
        load_wrapper(path, PROPERTY_BASE)

"""Model assembly, initialization, forward pass, and the container format."""

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodseg.model import (FORMAT_VERSION, KIND_MODEL, MAGIC, Model,
                            ModelFormatError, ModelSpec, SpecError, build_model, decode_config,
                            encode_gacm, glorot_uniform, init_params, load_model,
                            model_checksum, save_model, serialize_model)
from floodseg.dataio import resize_bilinear
from floodseg.reprogram import ReprogramWrapper, serialize_wrapper
from floodseg.tensor import ShapeError, Tensor, no_grad, tsum


def count_oracle(spec: ModelSpec) -> int:
    """Independent parameter enumeration from the architecture arithmetic."""
    total = 0
    c = 3
    for w in spec.widths:
        total += w * c * 9 + w           # 3x3 conv + bias
        total += w * w * 9 + w           # 3x3 dilated conv + bias
        c = w
    if spec.variant == "gac-unet":
        total += spec.gat_out * spec.widths[-1]          # attention projection
        total += 2 * spec.gat_out                        # edge scorer
        total += (spec.cheb_order + 1) * spec.cheb_out * spec.gat_out
        below = spec.cheb_out + (2 if spec.com else 0)
    else:
        below = spec.widths[-1]
    for w in reversed(spec.widths):
        total += w * (below + w) * 9 + w                 # decoder conv + bias
        below = w
    total += spec.out_channels * below + spec.out_channels   # 1x1 head
    return total


def small_spec(**kw):
    base = dict(input_size=16, widths=(2, 3), gat_out=3, cheb_order=2, cheb_out=3)
    base.update(kw)
    return ModelSpec(**base)


# ---- parameter bookkeeping ---------------------------------------------------


def test_parameter_count_hand_case():
    spec = ModelSpec(input_size=64, widths=(8,), gat_out=8, cheb_order=2, cheb_out=8)
    model = build_model(spec)
    # enc: 8*3*9+8 + 8*8*9+8; gat: 64+16; cheb: 3*64; dec: 8*18*9+8; head: 8+1
    assert model.parameter_count() == 2393
    assert count_oracle(spec) == 2393


def test_parameter_count_matches_oracle_across_specs():
    rng = np.random.RandomState(0)
    for _ in range(12):
        stages = rng.randint(1, 4)
        widths = tuple(int(rng.randint(2, 7)) for _ in range(stages))
        spec = ModelSpec(input_size=8 * 2 ** stages, widths=widths,
                         variant=rng.choice(["gac-unet", "plain-unet"]),
                         gat_out=int(rng.randint(1, 5)),
                         cheb_order=int(rng.randint(0, 4)),
                         cheb_out=int(rng.randint(1, 5)),
                         com=bool(rng.randint(0, 2)),
                         out_channels=int(rng.randint(1, 4)))
        assert build_model(spec).parameter_count() == count_oracle(spec)


def test_parameters_are_declared_in_stage_order():
    model = build_model(small_spec())
    assert list(model.params) == [
        "enc1.conv.w", "enc1.conv.b", "enc1.dil.w", "enc1.dil.b",
        "enc2.conv.w", "enc2.conv.b", "enc2.dil.w", "enc2.dil.b",
        "gat.weight", "gat.attn",
        "cheb.theta0", "cheb.theta1", "cheb.theta2",
        "dec2.conv.w", "dec2.conv.b", "dec1.conv.w", "dec1.conv.b",
        "head.w", "head.b",
    ]
    plain = build_model(small_spec(variant="plain-unet"))
    assert [n for n in plain.params if n.startswith(("gat", "cheb"))] == []


# ---- spec validation -----------------------------------------------------------


def test_spec_zero_widths_resolve_to_deepest_encoder():
    spec = ModelSpec(input_size=32, widths=(4, 6))
    assert spec.gat_out == 6 and spec.cheb_out == 6
    assert spec.stages == 2 and spec.grid_size == 8
    assert spec.bottleneck_channels == 6 + 2


def test_spec_rejects_bad_configurations():
    with pytest.raises(SpecError):
        ModelSpec(widths=())
    with pytest.raises(SpecError):
        ModelSpec(widths=(4, 0))
    with pytest.raises(SpecError):
        ModelSpec(variant="resnet")
    with pytest.raises(SpecError):
        ModelSpec(input_size=100, widths=(4, 4, 4))     # not divisible by 8
    with pytest.raises(SpecError):
        ModelSpec(connectivity=6)
    with pytest.raises(SpecError):
        ModelSpec(cheb_order=-1)
    with pytest.raises(SpecError):
        ModelSpec(out_channels=0)
    with pytest.raises(SpecError):
        build_model(ModelSpec(input_size=32, widths=(4,)), dtype=np.int32)
    for widths in ("16", (16.9, 32.2), (True, 2), 16):
        with pytest.raises(SpecError, match="widths"):
            ModelSpec(widths=widths)
    for com in ("no", 1, None):
        with pytest.raises(SpecError, match="com"):
            ModelSpec(com=com)
    for name in ("input_size", "connectivity", "cheb_order", "seed"):
        with pytest.raises(SpecError, match=name):
            ModelSpec(**{name: True})


def test_spec_json_round_trip():
    def from_json(text: str) -> ModelSpec:
        return ModelSpec.from_config(decode_config(text.encode(), "model"), "model")

    spec = small_spec(com=False, out_channels=2, seed=9)
    good = asdict(spec)
    assert from_json(json.dumps(good)) == spec
    with pytest.raises(ModelFormatError):
        from_json("{broken")
    with pytest.raises(ModelFormatError):
        from_json('{"widths": [4], "variant": "nope", "input_size": 16}')
    for key, value in [("widths", "16"), ("widths", [16.9, 32.2]), ("widths", [True, 2]),
                       ("com", "no"), ("com", 0), ("seed", False), ("out_channels", True)]:
        with pytest.raises(ModelFormatError, match=key):
            from_json(json.dumps({**good, key: value}))


# ---- initialization --------------------------------------------------------------


def test_init_is_deterministic_and_bounded():
    a = init_params(build_model(small_spec()), seed=3)
    b = init_params(build_model(small_spec()), seed=3)
    c = init_params(build_model(small_spec()), seed=4)
    assert serialize_model(a) == serialize_model(b)
    assert serialize_model(a) != serialize_model(c)

    for name, p in a.params.items():
        if name.endswith(".b"):
            assert np.all(p.data == 0.0), name
        else:
            c_out, c_in = (*p.data.shape, 1)[:2]     # a vector (n,) has fans 1 and n
            receptive = int(np.prod(p.data.shape[2:]))
            bound = np.sqrt(6.0 / (c_in * receptive + c_out * receptive))
            assert np.abs(p.data).max() <= bound, name
            if p.data.size >= 20:
                assert p.data.min() < 0 < p.data.max(), name


@pytest.mark.parametrize("shape,fans", [((3, 5, 2, 2), (20, 12)), ((6, 4), (4, 6)),
                                        ((7,), (1, 7)), ((2, 9, 1, 1), (9, 2))])
def test_glorot_fans_are_read_from_the_shape(shape, fans):
    bound = np.sqrt(6.0 / sum(fans))
    want = np.random.RandomState(0).uniform(-bound, bound, size=shape)
    np.testing.assert_array_equal(glorot_uniform(np.random.RandomState(0), shape, np.float64),
                                  want)


def test_variants_share_encoder_draws_for_a_seed():
    gac = init_params(build_model(small_spec()), seed=5)
    plain = init_params(build_model(small_spec(variant="plain-unet")), seed=5)
    for name in gac.params:
        if name.startswith("enc"):
            np.testing.assert_array_equal(gac.params[name].data, plain.params[name].data)


# ---- forward pass ------------------------------------------------------------------


@pytest.mark.parametrize("variant,com", [("gac-unet", True), ("gac-unet", False),
                                         ("plain-unet", True)])
def test_forward_shape_and_range(variant, com):
    model = init_params(build_model(small_spec(variant=variant, com=com)), seed=0)
    rng = np.random.RandomState(1)
    x = Tensor(rng.uniform(0, 1, (3, 16, 16)).astype(np.float32))
    out = model.forward(x)
    assert out.shape == (1, 16, 16)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_forward_default_spec_produces_full_size_map():
    model = init_params(build_model(ModelSpec()), seed=0)
    rng = np.random.RandomState(2)
    prob = model.predict_proba(rng.uniform(0, 1, (256, 256, 3)).astype(np.float32))
    assert prob.shape == (256, 256)
    assert prob.min() >= 0.0 and prob.max() <= 1.0


def test_forward_multichannel_head():
    model = init_params(build_model(small_spec(out_channels=4)), seed=0)
    rng = np.random.RandomState(3)
    prob = model.predict_proba(rng.uniform(0, 1, (16, 16, 3)).astype(np.float32))
    assert prob.shape == (4, 16, 16)
    assert np.all((prob > 0) & (prob < 1))


@pytest.mark.parametrize("out_channels", [1, 4])
def test_predict_proba_returns_the_map_at_the_image_size(out_channels):
    model = init_params(build_model(small_spec(out_channels=out_channels)), seed=0)
    image = np.random.RandomState(4).uniform(0, 1, (24, 40, 3)).astype(np.float32)
    prob = model.predict_proba(image)
    assert prob.shape == ((24, 40) if out_channels == 1 else (out_channels, 24, 40))
    with no_grad():
        at_input = model.forward(Tensor(resize_bilinear(image, 16, 16).transpose(2, 0, 1)
                                        .copy())).data
    want = np.stack([resize_bilinear(c, 24, 40) for c in at_input])
    np.testing.assert_array_equal(prob, want[0] if out_channels == 1 else want)
    with pytest.raises(ShapeError):
        model.predict_proba(image[..., :2])


@pytest.mark.parametrize("variant,com", [("gac-unet", True), ("gac-unet", False),
                                         ("plain-unet", True)])
def test_forward_batch_matches_separate_samples(variant, com):
    model = init_params(build_model(small_spec(variant=variant, com=com), np.float64), seed=3)
    rng = np.random.RandomState(5)
    batch = rng.uniform(0, 1, (3, 3, 16, 16))
    probe = rng.uniform(-1, 1, (1, 16, 16))

    def run(x):
        for p in model.params.values():
            p.grad = None
        x = Tensor(x, requires_grad=True, dtype=np.float64)
        out = model.forward(x)
        tsum(out * Tensor(np.broadcast_to(probe, out.shape).copy(), dtype=np.float64)).backward()
        return out.data, x.grad, {k: p.grad for k, p in model.params.items()}

    out, dx, grads = run(batch)
    assert out.shape == (3, 1, 16, 16)
    each = [run(sample) for sample in batch]
    for got, want in [(out, np.stack([e[0] for e in each])), (dx, np.stack([e[1] for e in each]))]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    for name, grad in grads.items():
        want = sum(e[2][name] for e in each)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                   err_msg=name)


def test_forward_shape_validation():
    model = build_model(small_spec())
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((3, 8, 8), dtype=np.float32)))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 16, 16), dtype=np.float32)))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32)))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 2, 3, 16, 16), dtype=np.float32)))


def tensors_outside_params(model) -> list[str]:
    """The paths of every Tensor reachable from ``vars(model)`` but not through ``params``."""
    found, seen = [], set()

    def walk(value, path):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, Tensor):
            found.append(path)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        elif hasattr(value, "__dict__"):
            for key, item in vars(value).items():
                walk(item, f"{path}.{key}")

    for key, value in vars(model).items():
        if key != "params":
            walk(value, key)
    return found


@pytest.mark.parametrize("variant", ["gac-unet", "plain-unet"])
def test_the_params_table_is_the_one_record_of_the_layers(variant):
    model = build_model(small_spec(variant=variant))
    assert tensors_outside_params(model) == []


@pytest.mark.parametrize("variant", ["gac-unet", "plain-unet"])
def test_forward_reads_every_layer_from_the_params_table(variant):
    model = init_params(build_model(small_spec(variant=variant), np.float64), seed=0)
    x = Tensor(np.random.RandomState(8).uniform(0, 1, (3, 16, 16)), dtype=np.float64)
    with no_grad():
        before = model.forward(x).data
        for name, p in list(model.params.items()):
            model.params[name] = Tensor(p.data + 0.25, requires_grad=True)
            assert not np.array_equal(model.forward(x).data, before), name
            model.params[name] = p
        np.testing.assert_array_equal(model.forward(x).data, before)


def test_forward_is_deterministic():
    model = init_params(build_model(small_spec()), seed=7)
    rng = np.random.RandomState(4)
    x = rng.uniform(0, 1, (3, 16, 16)).astype(np.float32)
    one = model.forward(Tensor(x.copy())).data
    two = model.forward(Tensor(x.copy())).data
    np.testing.assert_array_equal(one, two)


# ---- serialization --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    model = init_params(build_model(small_spec(seed=11)), seed=11)
    path = tmp_path / "model.gacm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    assert loaded.dtype == model.dtype
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)


def test_file_size_is_header_plus_width_times_count(tmp_path):
    for dtype, width in ((np.float32, 4), (np.float64, 8)):
        model = init_params(build_model(small_spec(), dtype=dtype), seed=0)
        blob = serialize_model(model)
        header = encode_gacm(KIND_MODEL, asdict(model.spec), {}, width)
        assert blob.startswith(header) and len(header) > len(MAGIC) + struct.calcsize("<HBBI")
        assert len(blob) == len(header) + width * model.parameter_count()


def test_float64_round_trip_preserves_width(tmp_path):
    model = init_params(build_model(small_spec(), dtype=np.float64), seed=1)
    path = tmp_path / "wide.gacm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded.params["head.w"].data,
                                  model.params["head.w"].data)


# sha256 of the model file, then of a (c_new=2, per_channel=True) wrapper file around it
WRITTEN_DIGESTS = {
    ("gac-unet", np.float32): (
        "f3b33ce58c47675d40192f4542878456a0a826bac6d64eed0b88ec60e9acb8c1",
        "5f9417725464ce53b2f66fc7406b9a833ce80d79d4089cd633e70ed061d64050"),
    ("gac-unet", np.float64): (
        "661c539a1c4b2c6fc20d43894ecb128ba2fa3a0eabfe4cfa4cf7eae1b0b6816c",
        "fb8ff1187db7a2817e9930d012eed6898178414fe512d1f92f7091bee4080ff5"),
    ("plain-unet", np.float32): (
        "db9da826f2e47a037563b6cb342ba847284ee9b4953a4bf21ce660b43ef1eb51",
        "486dd5c4a323f579b7f418490cd7e50165abb556eb3eb1ae5114c9fb517fecce"),
    ("plain-unet", np.float64): (
        "f8258edcfbe92fcd23484def3d74a10443ca2b35009d19d96f3878d17bc76ff2",
        "dde4dd22edf5df519daa4eecec413f2e40eef2bd06498b6c3c22392c5479d8ce"),
}


@pytest.mark.parametrize("variant,dtype", list(WRITTEN_DIGESTS))
def test_written_bytes_are_pinned(variant, dtype):
    spec = ModelSpec(input_size=16, widths=(4, 8), variant=variant, seed=5)
    model = init_params(build_model(spec, dtype), seed=5)
    wrapper = ReprogramWrapper(model, c_new=2, per_channel=True, seed=2)
    digests = (hashlib.sha256(serialize_model(model)).hexdigest(),
               hashlib.sha256(serialize_wrapper(wrapper)).hexdigest())
    assert digests == WRITTEN_DIGESTS[variant, dtype]


def test_load_rejects_corrupt_files(tmp_path):
    model = init_params(build_model(small_spec()), seed=0)
    path = tmp_path / "model.gacm"
    save_model(model, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.gacm"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_bytes(blob[:-3])                       # truncated payload
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_bytes(blob + b"\0")                    # trailing junk
    with pytest.raises(ModelFormatError):
        load_model(bad)

    wrong_version = blob[:4] + struct.pack("<H", FORMAT_VERSION + 1) + blob[6:]
    bad.write_bytes(wrong_version)
    with pytest.raises(ModelFormatError):
        load_model(bad)

    bad.write_bytes(MAGIC + blob[4:6])
    with pytest.raises(ModelFormatError, match="truncated header"):
        load_model(bad)

    bad.write_bytes(blob[:7] + bytes([2]) + blob[8:])            # byte 7: float width
    with pytest.raises(ModelFormatError, match="bad float width 2"):
        load_model(bad)

    bad.write_bytes(blob[:8] + struct.pack("<I", 100) + blob[12:14])  # 2 of 100 config bytes
    with pytest.raises(ModelFormatError, match="truncated configuration block"):
        load_model(bad)

    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.gacm")


def test_checksum_tracks_parameter_changes():
    model = init_params(build_model(small_spec()), seed=0)
    before = model_checksum(model)
    assert before == model_checksum(model)
    model.params["head.b"].data[0] += 1.0
    assert model_checksum(model) != before


def test_load_rejects_non_finite_parameters(tmp_path):
    path = tmp_path / "model.gacm"
    for bad in (np.nan, np.inf, -np.inf):
        model = init_params(build_model(small_spec()), seed=0)
        model.params["head.w"].data[0] = bad
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(path)


PROPERTY_CONFIG = json.dumps(asdict(small_spec())).encode()


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.one_of(st.binary(max_size=64), st.just(PROPERTY_CONFIG)),
       payload=st.binary(max_size=64))
@example(config=b"[]", payload=b"")
@example(config=b"null", payload=b"")
@example(config=b"\xff", payload=b"")
@example(config=b'{"widths": 4}', payload=b"")
@example(config=b'{"widths": [1e400]}', payload=b"")
@example(config=b'{"input_size": 16.0, "widths": [2]}', payload=b"")
def test_load_model_raises_only_model_format_error(tmp_path, config, payload):
    path = tmp_path / "fuzz.gacm"
    path.write_bytes(MAGIC + struct.pack("<HBBI", FORMAT_VERSION, KIND_MODEL, 4, len(config))
                     + config + payload)
    with pytest.raises(ModelFormatError):
        load_model(path)

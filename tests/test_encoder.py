import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapkit.attack import Perturbation
from uapkit.core import Carrier, square_patch_mask
from uapkit.boundary import crossing_step
from uapkit.encoder import (PerturbedBatch, _forward, _layer1_gradient,
                            backward_from_cache, build_encoder,
                            default_toy_encoder, encode_batch, encoder_hash,
                            gradcheck, load_encoder, save_encoder,
                            score_with_gradient)
from uapkit.errors import (DegenerateEncodingError, IntegrityError,
                           InvalidArgumentError)
from uapkit.tensor_io import tensor_sha256

from reference import ReferenceBatch


def small_mlp(seed=0):
    return build_encoder("mlp", (1, 4, 4), 8, (12,), "tanh", seed)


def unit(v):
    return v / np.linalg.norm(v)


def test_embeddings_are_unit_norm():
    enc = small_mlp()
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(5, 1, 4, 4))
    embs = encode_batch(enc, images)
    np.testing.assert_allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-12)


def test_build_encoder_deterministic():
    a, b = small_mlp(3), small_mlp(3)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert encoder_hash(a) == encoder_hash(b)
    assert encoder_hash(a) != encoder_hash(small_mlp(4))


def test_xavier_bounds():
    enc = build_encoder("linear", (1, 4, 4), 8, seed=0)
    a = np.sqrt(6.0 / (16 + 8))
    w = enc.weights[0]
    assert w.shape == (8, 16)
    assert np.abs(w).max() <= a


def test_linear_rejects_widths():
    with pytest.raises(InvalidArgumentError):
        build_encoder("linear", (1, 4, 4), 8, (12,))


def test_unknown_kind_and_activation():
    with pytest.raises(InvalidArgumentError):
        build_encoder("conv", (1, 4, 4), 8)
    with pytest.raises(InvalidArgumentError):
        build_encoder("mlp", (1, 4, 4), 8, (12,), activation="gelu")


# -- gradients ---------------------------------------------------------------

@pytest.mark.parametrize("kind,widths,act", [
    ("linear", (), "tanh"),
    ("mlp", (12,), "tanh"),
    ("mlp", (12, 10), "relu"),
])
def test_gradcheck_against_finite_differences(kind, widths, act):
    enc = build_encoder(kind, (1, 4, 4), 8, widths, act, seed=5)
    rng = np.random.default_rng(2)
    for trial in range(5):
        image = rng.uniform(size=(1, 4, 4))
        t = unit(rng.standard_normal(8))
        assert gradcheck(enc, image, t, seed=trial) < 1e-6


def test_score_value_matches_encode():
    enc = small_mlp()
    rng = np.random.default_rng(3)
    image = rng.uniform(size=(1, 4, 4))
    t = unit(rng.standard_normal(8))
    sg = score_with_gradient(enc, image, t)
    assert sg.value == pytest.approx(float(t @ encode_batch(enc, image[None])[0]), abs=1e-12)
    assert sg.gradient.shape == (1, 4, 4)


def test_score_requires_unit_text():
    enc = small_mlp()
    with pytest.raises(InvalidArgumentError):
        score_with_gradient(enc, np.zeros((1, 4, 4)) + 0.5, np.full(8, 2.0))


def input_gradient(enc, image, u):
    """Input-gradient of u . E(image) for any embedding-space vector u."""
    return backward_from_cache(enc, _forward(enc, image[None]), u[None], [0])[0]


def test_input_gradient_accepts_difference_vectors():
    # u is an arbitrary (non-unit) embedding-space vector
    enc = small_mlp()
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(1, 4, 4))
    u = rng.standard_normal(8) * 3.0
    gradient = input_gradient(enc, image, u)
    # directional finite difference along a random direction
    d = rng.standard_normal((1, 4, 4))
    h = 1e-6
    hi = float(u @ encode_batch(enc, (image + h * d)[None])[0])
    lo = float(u @ encode_batch(enc, (image - h * d)[None])[0])
    fd = (hi - lo) / (2 * h)
    assert float(np.vdot(gradient, d)) == pytest.approx(fd, rel=1e-4)


def test_gradient_linearity_in_u():
    enc = small_mlp()
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(1, 4, 4))
    u1, u2 = rng.standard_normal(8), rng.standard_normal(8)
    g1 = input_gradient(enc, image, u1)
    g2 = input_gradient(enc, image, u2)
    g12 = input_gradient(enc, image, u1 + u2)
    np.testing.assert_allclose(g12, g1 + g2, atol=1e-12)


def test_default_toy_encoder_shape():
    enc = default_toy_encoder()
    assert enc.kind == "mlp"
    assert enc.input_shape == (3, 32, 32)
    assert enc.embed_dim == 64
    assert enc.layer_widths == (256, 128)
    assert enc.activation == "tanh"
    assert enc.seed == 42


def test_default_toy_encoder_regression_hash():
    # guards the LCG-driven init chain: each layer's UAPT digest, and the
    # identity built from them
    enc = default_toy_encoder()
    assert [tensor_sha256(t) for layer in zip(enc.weights, enc.biases) for t in layer] == [
        "da14c266f1189ad1bd880baf7444d5101d34bc5ef03a788d53dbab93d3420541",
        "4e796c7eb05ba5c3c91229c5eb778527b7319bb9fb04730c1501ab5c0b0662f9",
        "e4e50a6372fba0d85a2e36fe262e04d649ce18a0dd12926bb3c865e4ded3ff97",
        "cbd342de4ce2219ecbdaeb7fcbfef6e9c4646b911e437c0e5f3d404dcf73a1fe",
        "42f2f37ab1a1a8036c7728335bd5084014e2fe71ff5ec416d15d8c30778d1f5a",
        "55f7af251d0dce0f40212a40060fbd35719eebdca21d590cf99f27a10f29a987"]
    assert encoder_hash(enc) == (
        "c141c31fa9f2b5e0ff852141dfb40aedd1c0c33dba003ff374c5476634ba469b")


# -- the factored first layer -------------------------------------------------

SHAPE = (3, 6, 6)
FACTORED_ENCODERS = [("linear", (), "tanh"), ("mlp", (12,), "tanh"),
                     ("mlp", (12, 10), "relu")]


FACTORED_CARRIERS = {
    # (carrier, delta scale): a patch whose images have off-mask pixels
    # outside [0, 1]; global deltas with the [0, 1] clamp idle and active;
    # and a 3x3 patch over 3 channels, whose 27 pixels outnumber W1's rows
    "patch": (Carrier("patch", square_patch_mask(SHAPE, 2, (1, 2))), None),
    "global": (Carrier("global", norm="linf", epsilon=0.1), 0.02),
    "global_clamped": (Carrier("global", norm="l2", epsilon=50.0), 0.6),
    "patch_wide": (Carrier("patch", square_patch_mask(SHAPE, 3, (1, 2))), None),
}


def factored_case(name, kind="mlp", widths=(12, 10), act="tanh"):
    """(enc, images, carrier, delta, step, batch): six images in [0.2, 0.8],
    a delta FACTORED_CARRIERS[name] can make, the batch at that delta and a
    random step in its step coordinates."""
    carrier, scale = FACTORED_CARRIERS[name]
    enc = build_encoder(kind, SHAPE, 8, widths, act, seed=5)
    rng = np.random.default_rng(0)
    images = rng.uniform(0.2, 0.8, size=(6, *SHAPE))
    if carrier.mode == "patch":
        delta = rng.uniform(size=SHAPE) * carrier.mask
        images[:3, 0, 0, 0] = [1.5, -0.5, 1.0]  # off-mask pixels apply clamps
    else:
        delta = scale * rng.standard_normal(SHAPE)
        # the [0, 1] clamp moves pixels both ways in "global_clamped", none in "global"
        raw = images + delta
        assert [raw.min() < 0.0, raw.max() > 1.0] == [name == "global_clamped"] * 2
    batch = PerturbedBatch(enc, images, carrier)
    batch.set_delta(delta)
    step = np.random.default_rng(0).standard_normal(batch.zero_step().shape)
    # 0.3 per pixel for a step over a patch's pixels, 0.05 per row of W1
    on_mask = carrier.mode == "patch" and step.size == np.count_nonzero(carrier.mask)
    step = (0.3 if on_mask else 0.05) * step
    return enc, images, carrier, delta, step, batch


def assert_points_and_steps_match_the_reference(name, kind, widths, act):
    # one scale's rows, with no step and with one, and the step taken on
    # them, held to ReferenceBatch at the case's delta
    enc, images, carrier, delta, step, batch = factored_case(name, kind, widths, act)
    reference = ReferenceBatch(enc, images, carrier)
    reference.set_delta(delta)
    us = np.random.default_rng(1).standard_normal((2, enc.embed_dim))
    for s in (None, step):
        cache = batch.forward_points([4, 1, 3], s)
        want = reference.forward_points([4, 1, 3], None if s is None else batch.pixels(s))
        np.testing.assert_allclose(cache.embeddings, want.embeddings, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.pixels(batch.step(cache, us, [2, 0], 0.3)),
                                   reference.step(want, us, [2, 0], 0.3), rtol=1e-10)


@pytest.mark.parametrize("kind,widths,act", FACTORED_ENCODERS)
def test_factored_patch_matches_full_forward_and_backward(kind, widths, act):
    assert_points_and_steps_match_the_reference("patch", kind, widths, act)


@pytest.mark.parametrize("kind,widths,act", FACTORED_ENCODERS)
def test_factored_global_without_clamping(kind, widths, act):
    _, images, carrier, delta, *_ = factored_case("global", kind, widths, act)
    assert np.array_equal(carrier.apply(images, delta), images + delta)
    assert_points_and_steps_match_the_reference("global", kind, widths, act)


@pytest.mark.parametrize("kind,widths,act", FACTORED_ENCODERS)
def test_factored_global_with_clamping(kind, widths, act):
    assert_points_and_steps_match_the_reference("global_clamped", kind, widths, act)


def test_factored_rows_follow_each_new_delta():
    enc, images, carrier, _, step, batch = factored_case("global_clamped", "mlp", (12,))
    reference = ReferenceBatch(enc, images, carrier)
    for scale in (0.6, 0.0, 0.3):
        delta = scale * np.random.default_rng(7).standard_normal(SHAPE)
        batch.set_delta(delta)
        reference.set_delta(delta)
        np.testing.assert_allclose(
            batch.forward_points([0, 5], step).embeddings,
            reference.forward_points([0, 5], batch.pixels(step)).embeddings,
            rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["patch", "global"])
def test_factored_rejects_non_finite_steps_and_deltas(name):
    _, _, carrier, delta, _, batch = factored_case(name)
    with pytest.raises(InvalidArgumentError):
        batch.set_delta(np.full(SHAPE, np.nan))
    # forward_points trusts its steps; a non-finite step cannot reach a delta
    for bad in (np.nan, np.inf):
        step = np.zeros(SHAPE)
        step[0, 4, 3] = bad  # under the patch
        with pytest.raises(InvalidArgumentError):
            batch.set_delta(delta + step)
        with pytest.raises(InvalidArgumentError):
            Perturbation(delta + step, carrier)


def test_factored_checks_shapes_at_construction():
    carrier = Carrier("patch", square_patch_mask(SHAPE, 2))
    enc = build_encoder("mlp", SHAPE, 8, (12,), "tanh", seed=5)
    with pytest.raises(InvalidArgumentError):
        PerturbedBatch(enc, np.zeros((2, 3, 6, 5)), carrier)
    with pytest.raises(InvalidArgumentError):
        PerturbedBatch(enc, np.zeros((2, 3, 6, 6)),
                       Carrier("patch", square_patch_mask((1, 6, 6), 2)))


def test_factored_zero_output_is_degenerate():
    enc = build_encoder("linear", SHAPE, 8, seed=5)
    enc = dataclasses.replace(enc, weights=(np.zeros_like(enc.weights[0]),))
    batch = PerturbedBatch(enc, np.full((2, *SHAPE), 0.5),
                           Carrier("patch", square_patch_mask(SHAPE, 2)))
    batch.set_delta(np.zeros(SHAPE))
    with pytest.raises(DegenerateEncodingError):
        batch.forward_points([0, 1])


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
def test_forward_points_match_single_points_and_oracle(name):
    enc, images, carrier, delta, step, batch = factored_case(name)
    reference = ReferenceBatch(enc, images, carrier)
    reference.set_delta(delta)
    rows, scales = [4, 1, 3], (1.0, 0.0, 1.02, -0.5)
    cache = batch.forward_points(rows, step, scales)
    for i, s in enumerate(scales):
        got = cache.embeddings[3 * i:3 * i + 3]
        single = batch.forward_points(rows, s * step).embeddings
        oracle = reference.forward_points(rows, s * batch.pixels(step)).embeddings
        np.testing.assert_allclose(got, single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
    # a step differentiates the cache rows it names, at any point
    us = np.random.default_rng(1).standard_normal((2, enc.embed_dim))
    single = batch.forward_points(rows, 1.02 * step)
    np.testing.assert_allclose(batch.step(cache, us, [8, 6], 0.3),
                               batch.step(single, us, [2, 0], 0.3), rtol=1e-10)


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
def test_zero_step_is_the_no_step_forward_bitwise(name):
    *_, batch = factored_case(name)
    rows = [0, 5, 2]
    plain = batch.forward_points(rows).embeddings
    assert np.array_equal(batch.forward_points(rows, batch.zero_step()).embeddings, plain)
    for step in (batch.zero_step(), None):
        both = batch.forward_points(rows, step, (1.0, 1.02)).embeddings
        assert np.array_equal(both, np.concatenate([plain, plain]))


@pytest.mark.parametrize("name", ["global", "global_clamped", "patch_wide"])
def test_row_coordinate_steps_equal_pixel_steps(name):
    # where the moved pixels outnumber W1's 12 rows, a step a over W1's rows
    # stands for the pixels W1^T a over the moved pixels
    enc, *_, carrier, _, _, batch = factored_case(name)
    rng = np.random.default_rng(3)
    a = 0.05 * rng.standard_normal(12)
    assert batch.zero_step().shape == a.shape
    moved = np.ones(SHAPE) if carrier.mode == "global" else carrier.mask
    pixels = (a @ enc.weights[0]).reshape(SHAPE) * moved
    np.testing.assert_allclose(batch.pixels(a), pixels, rtol=0, atol=1e-15)
    # u . e has no gradient along u = e, so ||W1^T u|| is rounding: degenerate
    cache, gap = batch.forward_points([4, 1, 3], a, (1.0, 1.02)), 0.3
    assert batch.step(cache, cache.embeddings[[2, 0]], [2, 0], gap) is None
    assert batch.step(cache, np.zeros((2, enc.embed_dim)), [2, 0], gap) is None


def test_patch_steps_live_on_the_mask_pixels():
    # a patch of at most W1's 12 rows steps over its on-mask pixels, in
    # flatnonzero order, and pixels puts each value on its pixel
    enc, images, carrier, delta, step, batch = factored_case("patch")
    on = np.flatnonzero(carrier.mask)
    assert batch.zero_step().shape == (len(on),) == (12,)
    pixels = batch.pixels(step)
    assert pixels.shape == SHAPE
    assert np.array_equal(pixels.ravel()[on], step)
    assert not pixels.ravel()[np.flatnonzero(carrier.mask == 0.0)].any()
    # the step is the reference's masked pixel step, and keeps the bits of
    # crossing_step of the image-shaped gradient, whose norm sums 108 values
    reference = ReferenceBatch(enc, images, carrier)
    reference.set_delta(delta)
    cache = batch.forward_points([4, 1, 3], step, (1.0, 1.02))
    want = reference.forward_points([4, 1, 3], pixels, (1.0, 1.02))
    us = np.random.default_rng(4).standard_normal((2, enc.embed_dim))
    got = batch.step(cache, us, [2, 0], 0.3)
    assert got.shape == (12,)
    np.testing.assert_allclose(batch.pixels(got), reference.step(want, us, [2, 0], 0.3),
                               rtol=1e-10)
    image = np.zeros(enc.n_inputs)
    w_on = np.ascontiguousarray(enc.weights[0][:, on])  # the product's own operand
    image[on] = _layer1_gradient(enc, cache, us, [2, 0]).sum(axis=0) @ w_on
    assert np.array_equal(batch.pixels(got).ravel(), crossing_step(image, 0.3))


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
def test_clean_rows_encode_the_images_as_given(name):
    # read-only, and encoded once per batch whatever delta is set
    *_, batch = factored_case(name)
    clean = batch.clean()
    assert not clean.embeddings.flags.writeable
    batch.set_delta(np.zeros(SHAPE))
    assert batch.clean() is clean


def test_patch_rows_do_not_depend_on_the_images_beside_them():
    # a patch batch takes its first layer a block of rows at a time; numpy
    # sends a one-row product to gemv, whose bits differ from gemm's, so no
    # block may have one row, as one past a power-of-two block size would
    enc = default_toy_encoder()
    images = np.random.default_rng(3).uniform(-0.1, 1.1, size=(300, *enc.input_shape))
    carrier = Carrier("patch", square_patch_mask(enc.input_shape, 5, (2, 3)))
    rows = {n: PerturbedBatch(enc, images[:n], carrier).gallery().embeddings
            for n in (65, 129, 257, 300)}
    for n in (65, 129, 257):
        assert rows[n].tobytes() == rows[300][:n].tobytes()


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
def test_gallery_rows_stand_in_for_a_forward_at_delta(name):
    # an attack reads a sample's rows at r = 0 from the gallery's cache, and
    # steps from them as from the sample's own forward
    enc, *_, batch = factored_case(name)
    rows = np.array([4, 1, 3])
    gallery, own = batch.gallery(), batch.forward_points(rows)
    np.testing.assert_allclose(gallery.embeddings[rows], own.embeddings, rtol=0, atol=1e-12)
    us = np.random.default_rng(2).standard_normal((2, enc.embed_dim))
    np.testing.assert_allclose(batch.step(gallery, us, rows[[2, 0]], 0.3),
                               batch.step(own, us, [2, 0], 0.3), rtol=1e-10)


def test_gallery_is_encoded_once_per_delta():
    *_, delta, _, batch = factored_case("global_clamped")
    first = batch.gallery()
    assert not first.embeddings.flags.writeable
    # set_delta keeps no key to compare a new delta's bytes with: the
    # gallery stays encoded until the next set_delta
    assert batch.gallery() is first
    batch.set_delta(0.5 * delta)
    assert batch.gallery() is not first
    with pytest.raises(InvalidArgumentError):  # every delta is checked
        batch.set_delta(np.full(SHAPE, np.nan))


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
def test_set_delta_keeps_its_own_read_only_copy(name):
    # a caller that reuses its buffer after set_delta must move neither the
    # clamp correction nor W1 . delta of the points at the delta it set
    enc, images, carrier, delta, *_ = factored_case(name)
    batch, buffer = PerturbedBatch(enc, images, carrier), delta.copy()
    batch.set_delta(buffer)
    buffer[...] = 0.0
    np.testing.assert_allclose(batch.gallery().embeddings,
                               encode_batch(enc, carrier.apply(images, delta)),
                               rtol=0, atol=1e-12)
    assert np.array_equal(batch.delta, delta)
    with pytest.raises(ValueError):  # read-only
        batch.delta[0, 0, 0] = 0.5


@pytest.mark.parametrize("kwargs", [{"n_probes": 0}, {"n_probes": -3},
                                    {"step": 0.0}, {"step": -1e-5},
                                    {"step": float("nan")}, {"step": float("inf")},
                                    {"seed": -1}])
def test_gradcheck_rejects_empty_or_invalid_audits(kwargs):
    enc = small_mlp()
    image = np.full((1, 4, 4), 0.5)
    t = unit(np.arange(1.0, 9.0))
    with pytest.raises(InvalidArgumentError, match=next(iter(kwargs))):
        gradcheck(enc, image, t, **kwargs)


# -- serialization -----------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    enc = small_mlp(9)
    save_encoder(enc, tmp_path / "encoder.json")
    loaded = load_encoder(tmp_path / "encoder.json")
    assert encoder_hash(loaded) == encoder_hash(enc)
    assert loaded.manifest_dict() == enc.manifest_dict()


def test_encoder_hash_byte_layout(tmp_path):
    # SHA-256 of the sorted architecture JSON, then the hex SHA-256 of each
    # layer's UAPT file in the order w0, b0, w1, b1, ...
    enc = small_mlp(9)
    save_encoder(enc, tmp_path / "encoder.json")
    files = [f"{kind}{i}.uapt" for i in range(len(enc.weights)) for kind in "wb"]
    expected = hashlib.sha256(
        json.dumps(enc.manifest_dict(), sort_keys=True).encode()
        + b"".join(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest().encode()
                   for name in files)).hexdigest()
    assert encoder_hash(enc) == expected
    assert encoder_hash(load_encoder(tmp_path / "encoder.json")) == expected


def flip_last_bit(a):
    out = a.copy()
    out.reshape(-1).view(np.uint64)[-1] ^= 1
    return out


def test_encoder_hash_sees_the_last_bit_and_the_architecture(tmp_path):
    enc = small_mlp(9)
    save_encoder(enc, tmp_path / "encoder.json")
    loaded = load_encoder(tmp_path / "encoder.json")
    for base in (enc, loaded):
        weights = (base.weights[0], flip_last_bit(base.weights[1]))
        assert encoder_hash(dataclasses.replace(base, weights=weights)) != encoder_hash(enc)
        assert encoder_hash(dataclasses.replace(base, activation="relu")) != encoder_hash(enc)


def loaded_small_mlp(tmp_path):
    """A loaded encoder and a writable one with the same weights."""
    save_encoder(small_mlp(9), tmp_path / "encoder.json")
    return load_encoder(tmp_path / "encoder.json"), small_mlp(9)


def built_in(tmp_path):
    return default_toy_encoder(), build_encoder("mlp", (3, 32, 32), 64, (256, 128), "tanh", 42)


@pytest.mark.parametrize("make", [loaded_small_mlp, built_in], ids=["loaded", "built_in"])
def test_loaded_encoder_hash_hashes_no_weight_bytes(tmp_path, monkeypatch, make):
    loaded, enc = make(tmp_path)
    assert not any(t.flags.writeable for t in (*loaded.weights, *loaded.biases))
    hashed, sha256 = [], hashlib.sha256

    class Counting:
        def __init__(self, data=b""):
            self._h = sha256()
            self.update(data)

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Counting)
    identity = encoder_hash(loaded)
    monkeypatch.undo()
    architecture = len(json.dumps(enc.manifest_dict(), sort_keys=True).encode())
    assert sum(hashed) == architecture + 64 * 2 * len(enc.weights)
    assert identity == encoder_hash(enc)


def test_loaded_encoder_hash_follows_weights_made_writable(tmp_path):
    # the kept digests stand only while the weights stay read-only
    save_encoder(small_mlp(9), tmp_path / "encoder.json")
    loaded = load_encoder(tmp_path / "encoder.json")
    before = encoder_hash(loaded)
    loaded.biases[0].flags.writeable = True
    loaded.biases[0][0] += 1.0
    assert encoder_hash(loaded) != before


def test_load_detects_tampering(tmp_path):
    enc = small_mlp(9)
    save_encoder(enc, tmp_path / "encoder.json")
    blob = bytearray((tmp_path / "w0.uapt").read_bytes())
    blob[-1] ^= 0xFF
    (tmp_path / "w0.uapt").write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        load_encoder(tmp_path / "encoder.json")


def test_encoder_rejects_weights_that_do_not_chain():
    enc = small_mlp()
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(enc, weights=enc.weights[::-1])
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(enc, biases=(enc.biases[0], enc.biases[0]))
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(enc, activation="gelu")
    with pytest.raises(TypeError):
        dataclasses.replace(enc, input_shape=(1.0, 4, 4))


@pytest.fixture(scope="module")
def saved_encoder(tmp_path_factory):
    """A small mlp with nonzero biases (so a zero image has a nonzero
    embedding), saved once; returns the manifest dict and its directory."""
    enc = small_mlp(3)
    enc = dataclasses.replace(enc, biases=tuple(np.full(b.shape, 0.1) for b in enc.biases))
    root = tmp_path_factory.mktemp("encoder")
    save_encoder(enc, root / "encoder.json")
    return json.loads((root / "encoder.json").read_text()), root


def manifest_fields(manifest):
    """Paths of every field of an encoder manifest, layer fields included."""
    paths = [(key,) for key in manifest]
    paths += [("layers", i, key) for i, layer in enumerate(manifest["layers"])
              for key in layer]
    return paths


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=False), st.text(max_size=4),
                        st.lists(st.integers(-3, 3), max_size=4),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_load_encoder_on_fuzzed_manifests(saved_encoder, data):
    manifest, root = saved_encoder
    manifest = json.loads(json.dumps(manifest))
    *parents, key = data.draw(st.sampled_from(manifest_fields(manifest)))
    node = manifest
    for parent in parents:
        node = node[parent]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(node[key])))
    path = root / "fuzzed.json"
    path.write_text(json.dumps(manifest))
    try:
        enc = load_encoder(path)
    except IntegrityError:
        return
    embeddings = encode_batch(enc, np.zeros((1, *enc.input_shape)))
    assert embeddings.shape == (1, enc.embed_dim)

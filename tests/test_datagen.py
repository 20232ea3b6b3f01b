import hashlib
import json

import numpy as np
import pytest

from uapkit.datagen import Dataset, DatasetParams, build_dataset, generate, load
from uapkit.encoder import build_encoder, default_toy_encoder
from uapkit.errors import (CorruptDatasetError, IntegrityError,
                           InvalidArgumentError)
from uapkit.tensor_io import write_tensor

SMALL = DatasetParams(n_images=20, texts_per_image=3, image_shape=(1, 8, 8),
                      embed_dim=16, class_count=4, noise_level=0.1, seed=7)


def small_encoder():
    return build_encoder("mlp", (1, 8, 8), 16, (24,), "tanh", 42)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        DatasetParams(n_images=0)
    with pytest.raises(InvalidArgumentError):
        DatasetParams(noise_level=-0.1)
    with pytest.raises(InvalidArgumentError):
        DatasetParams(image_shape=(3, 32))


@pytest.mark.parametrize("field, value", [
    ("noise_level", -0.1), ("noise_level", float("inf")), ("noise_level", float("nan")),
    ("decoder_scale", 0.0), ("decoder_scale", float("inf")),
    ("decoder_scale", float("nan")),
])
def test_params_floats_must_be_finite_and_in_range(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        DatasetParams(**{field: value})


def test_floor_is_capped_at_perfect_recall():
    # 40 texts: FLOOR_MULTIPLIER * FLOOR_K / 40 = 1.25, which no recall reaches
    ds = build_dataset(DatasetParams(n_images=8), default_toy_encoder())
    assert len(ds.texts) == 40


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
def test_params_seed_must_fit_the_lcg_state(seed):
    # Lcg reads its seed mod 2^64: 2^64 + 7 would draw seed 7's dataset
    with pytest.raises(InvalidArgumentError, match="seed"):
        DatasetParams(seed=seed)
    assert DatasetParams(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("field, value", [("n_images", 20.0), ("texts_per_image", 3.0),
                                          ("decoder_rank", 8.0), ("image_shape", (3, 32.0, 32)),
                                          ("seed", 7.0)])
def test_params_sizes_must_be_integers(field, value):
    with pytest.raises(TypeError):
        DatasetParams(**{field: value})


def test_build_dataset_shapes_and_ranges():
    ds = build_dataset(SMALL, small_encoder())
    assert ds.images.shape == (20, 1, 8, 8)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert len(ds.texts) == 60
    assert len(ds.prototypes) == 4
    assert len(ds.labels) == 20
    assert ds.matches_of_image(0) == frozenset({0, 1, 2})
    assert ds.image_of_text(5) == 1


def test_encoder_shape_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        build_dataset(SMALL, default_toy_encoder())


def test_zero_noise_texts_identical():
    params = DatasetParams(n_images=20, texts_per_image=3, image_shape=(1, 8, 8),
                           embed_dim=16, class_count=4, noise_level=0.0, seed=7)
    ds = build_dataset(params, small_encoder())
    t = ds.texts.embeddings
    np.testing.assert_array_equal(t[0], t[1])
    np.testing.assert_array_equal(t[0], t[2])
    assert not np.array_equal(t[2], t[3])


def test_generate_deterministic(tmp_path):
    enc = small_encoder()
    m1, _, hash1 = generate(SMALL, enc, tmp_path / "a")
    m2, _, hash2 = generate(SMALL, enc, tmp_path / "b")
    h1 = json.loads(m1.read_text())["sha256"]
    h2 = json.loads(m2.read_text())["sha256"]
    assert h1 == h2
    assert hash1 == hash2


def test_generate_load_roundtrip(tmp_path):
    enc = small_encoder()
    built = build_dataset(SMALL, enc)
    manifest, _, manifest_hash = generate(SMALL, enc, tmp_path)
    loaded = load(manifest)
    np.testing.assert_array_equal(loaded.images, built.images)
    np.testing.assert_array_equal(loaded.texts.embeddings, built.texts.embeddings)
    np.testing.assert_array_equal(loaded.prototypes.embeddings,
                                  built.prototypes.embeddings)
    assert loaded.labels == built.labels
    assert loaded.annotation == built.annotation
    assert loaded.dataset_hash == manifest_hash


def test_generate_returns_the_manifest_and_its_hash(tmp_path):
    path, manifest, digest = generate(SMALL, small_encoder(), tmp_path)
    assert json.dumps(manifest, indent=2, sort_keys=True).encode() == path.read_bytes()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == load(path).dataset_hash


def test_load_rejects_truncated_tensor(tmp_path):
    manifest, _, _ = generate(SMALL, small_encoder(), tmp_path)
    img = tmp_path / "images.uapt"
    img.write_bytes(img.read_bytes()[:-8])
    with pytest.raises(IntegrityError):
        load(manifest)


def test_load_rejects_missing_file(tmp_path):
    manifest, _, _ = generate(SMALL, small_encoder(), tmp_path)
    (tmp_path / "labels.json").unlink()
    with pytest.raises(IntegrityError):
        load(manifest)


def test_load_rejects_corrupt_annotation(tmp_path):
    manifest, _, _ = generate(SMALL, small_encoder(), tmp_path)
    ann_path = tmp_path / "annotations.json"
    ann = json.loads(ann_path.read_text())
    ann["1"] = ann["0"]  # text now matched to two images
    ann_path.write_text(json.dumps(ann, sort_keys=True))
    # refresh the manifest hash so corruption reaches the invariant check
    m = json.loads(manifest.read_text())
    m["sha256"]["annotations"] = hashlib.sha256(ann_path.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(m, indent=2, sort_keys=True))
    with pytest.raises(CorruptDatasetError):
        load(manifest)


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf, -0.5, 1.5])
def test_load_rejects_pixels_outside_the_unit_range(tmp_path, value):
    # a NaN makes both the min and the max comparison false; the manifest
    # records the new hash, so only load's content checks can stop it
    manifest, _, _ = generate(SMALL, small_encoder(), tmp_path)
    images = load(manifest).images
    images[3, 0, 2, 5] = value
    m = json.loads(manifest.read_text())
    m["sha256"]["images"] = write_tensor(tmp_path / "images.uapt", images)
    manifest.write_text(json.dumps(m, indent=2, sort_keys=True))
    with pytest.raises(CorruptDatasetError, match="images.uapt"):
        load(manifest)


def test_benchmark_defaults():
    p = DatasetParams()
    assert (p.n_images, p.texts_per_image, p.embed_dim) == (200, 5, 64)
    assert p.image_shape == (3, 32, 32)
    assert (p.class_count, p.noise_level, p.seed) == (10, 0.1, 7)
    assert p.n_texts == 1000

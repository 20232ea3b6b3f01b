"""PerturbedBatch held to ReferenceBatch, the attack computed the plain way,
layer by layer and in whole attacks; and a row's bits held to its batch."""

import numpy as np
import pytest

from uapkit.attack import AttackConfig, run_attack
from uapkit.datagen import build_dataset
from uapkit.encoder import PerturbedBatch, build_encoder

from reference import ReferenceBatch
from test_attack import ATTACK_CARRIERS, PARAMS, assert_same_run
from test_encoder import FACTORED_CARRIERS, FACTORED_ENCODERS, factored_case


@pytest.mark.parametrize("name", sorted(FACTORED_CARRIERS))
@pytest.mark.parametrize("kind,widths,act", FACTORED_ENCODERS)
def test_batch_matches_the_reference(kind, widths, act, name):
    # every row, step, gallery and clean row the attack reads, at three
    # successive deltas
    enc, images, carrier, delta, step, batch = factored_case(name, kind, widths, act)
    reference = ReferenceBatch(enc, images, carrier)
    rows, scales = [4, 1, 3], (1.0, 0.0, 1.02, -0.5)
    us = np.random.default_rng(1).standard_normal((2, enc.embed_dim))
    for d in (delta, -0.5 * delta, 1.5 * delta):
        batch.set_delta(d)
        reference.set_delta(d)
        cache = batch.forward_points(rows, step, scales)
        want = reference.forward_points(rows, batch.pixels(step), scales)
        np.testing.assert_allclose(cache.embeddings, want.embeddings, rtol=0, atol=1e-12)
        # us seeds rows 5 and 3, in the block of scale 0
        np.testing.assert_allclose(batch.pixels(batch.step(cache, us, [5, 3], 0.3)),
                                   reference.step(want, us, [5, 3], 0.3), rtol=1e-10)
        np.testing.assert_allclose(batch.gallery().embeddings,
                                   reference.gallery().embeddings, rtol=0, atol=1e-12)
    np.testing.assert_allclose(batch.clean().embeddings, reference.clean().embeddings,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy, carrier", [
    ("tra", "patch"), ("ira", "patch"), ("tira", "patch"), ("tra", "global_l2"),
    ("ira", "global_l2"), ("tra", "global_linf"), ("ira", "global_linf")])
def test_attack_matches_the_reference(strategy, carrier):
    # 2 epochs on test_attack's 20-image dataset; the standard benchmark's
    # global linf epochs are test_global_epoch_equals_the_pixel_step_reference
    enc = build_encoder("mlp", PARAMS.image_shape, PARAMS.embed_dim, (24,), "tanh", 42)
    ds, cfg = build_dataset(PARAMS, enc), AttackConfig(ATTACK_CARRIERS[carrier], k=3, epochs=2)
    plain = run_attack(enc, ds, cfg, strategy, ReferenceBatch(enc, ds.images, cfg.carrier))
    assert_same_run(*run_attack(enc, ds, cfg, strategy), *plain)


@pytest.mark.parametrize("strategy", ["tira", "ira"], ids=["patch", "global"])
def test_rows_do_not_depend_on_their_batch(standard, strategy):
    # bitwise from 2 rows up, so ira's rows at r = 0 are its own forward's
    # bits; numpy sends a one-row product to gemv, which rounds apart, but
    # tra's r = 0 probe is its own one-row entry forward
    enc, ds, configs = standard
    carrier, shape = configs[strategy].carrier, ds.params.image_shape
    rng = np.random.default_rng(0)
    batch = PerturbedBatch(enc, ds.images, carrier)
    batch.set_delta(carrier.commit(np.zeros(shape), rng.uniform(-1.0, 1.0, shape)))
    gallery = batch.gallery().embeddings
    for size in rng.integers(2, 41, size=50):
        rows = rng.choice(len(gallery), size, replace=False)
        assert np.array_equal(batch.forward_points(rows).embeddings, gallery[rows])
    for v in rng.choice(len(gallery), 20, replace=False):
        np.testing.assert_allclose(batch.forward_points([v]).embeddings[0], gallery[v],
                                   rtol=0, atol=1e-15)

"""The standard benchmark's runs, made once per session for every module,
and peak_bytes, the tests' memory probe."""

import tracemalloc

import pytest

from uapkit.attack import EPS_LINF_DEFAULT, PATCH_AREA_DEFAULT, AttackConfig, run_attack
from uapkit.core import Carrier, patch_side_for_area, square_patch_mask
from uapkit.datagen import DatasetParams, build_dataset
from uapkit.encoder import PerturbedBatch, default_toy_encoder


@pytest.fixture(scope="session")
def standard():
    """(enc, ds, configs): the default gen dataset and encoder, and one
    epoch's config per strategy, global linf for ira and tra, patch for tira."""
    enc = default_toy_encoder()
    ds = build_dataset(DatasetParams(), enc)
    shape = ds.params.image_shape
    configs = {
        strategy: AttackConfig(Carrier("global", norm="linf", epsilon=EPS_LINF_DEFAULT),
                               epochs=1)
        for strategy in ("ira", "tra")}
    configs["tira"] = AttackConfig(Carrier("patch", square_patch_mask(
        shape, patch_side_for_area(shape, PATCH_AREA_DEFAULT))), epochs=1)
    return enc, ds, configs


@pytest.fixture(scope="session")
def benchmark_epochs(standard):
    """standard's run of each strategy, with each PerturbedBatch forward
    and backward counted: (perturbation, trace, counts) per strategy. Each
    crossing step makes one backward, counted as the step call."""
    enc, ds, configs = standard
    forward_points, step = PerturbedBatch.forward_points, PerturbedBatch.step
    counts = {}

    def counting_forward_points(self, rows, step=None, scales=(1.0,)):
        kind = ("gallery" if len(rows) == ds.params.n_images
                else "at_delta" if step is None or not step.any() else "step")
        counts[kind] += 1
        return forward_points(self, rows, step, scales)

    def counting_step(self, *args):
        counts["backward"] += 1
        return step(self, *args)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PerturbedBatch, "forward_points", counting_forward_points)
        mp.setattr(PerturbedBatch, "step", counting_step)
        for strategy, cfg in configs.items():
            counts = dict.fromkeys(("gallery", "at_delta", "step", "backward"), 0)
            out[strategy] = (*run_attack(enc, ds, cfg, strategy), counts)
    return out


def peak_bytes(fn, *args):
    """(fn(*args), the most memory tracemalloc, which sees numpy's arrays,
    found allocated during the call beyond what was allocated before it)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from uapkit.attack import (AttackConfig, AttackTrace, CommitRecord, Perturbation, _commit,
                           _ira_inner, _orders, _tra_inner, check_attack,
                           evaluate_metrics, report_metrics, run_attack)
from uapkit.boundary import crossing_step
from uapkit.core import Carrier, square_patch_mask
from uapkit.datagen import DatasetParams, build_dataset
from uapkit.encoder import PerturbedBatch, build_encoder, encode_batch
from uapkit.errors import InvalidArgumentError
from uapkit.retrieval import (EmbeddingIndex, indicator, match_mask, recall_at_k,
                              topk_class_accuracy)

from conftest import peak_bytes
from reference import ReferenceBatch
from test_boundary import plain_accumulate

SHAPE = (1, 8, 8)
PARAMS = DatasetParams(n_images=20, texts_per_image=3, image_shape=SHAPE,
                       embed_dim=16, class_count=4, noise_level=0.1, seed=7)


@pytest.fixture(scope="module")
def enc():
    return build_encoder("mlp", SHAPE, 16, (24,), "tanh", 42)


@pytest.fixture(scope="module")
def ds(enc):
    return build_dataset(PARAMS, enc)


def patch_cfg(mask=None, **kw):
    kw.setdefault("k", 3)
    return AttackConfig(Carrier("patch", square_patch_mask(SHAPE, 2) if mask is None else mask),
                        **kw)


# -- config validation -------------------------------------------------------

def test_config_takes_one_carrier_and_hashes_by_it():
    for carrier in (None, {"mode": "patch", "mask": square_patch_mask(SHAPE, 2)}):
        with pytest.raises(InvalidArgumentError, match="carrier must be a Carrier"):
            AttackConfig(carrier)
    cfg = patch_cfg(epochs=1)
    assert cfg == dataclasses.replace(cfg) and {cfg: 1}[dataclasses.replace(cfg)] == 1
    # a Carrier compares by identity: an equal mask in another one is another config
    assert cfg != patch_cfg(epochs=1)


@pytest.mark.parametrize("eta", [0.0, -0.5, float("nan"), float("inf")])
def test_eta_must_be_positive_and_finite(eta):
    with pytest.raises(InvalidArgumentError, match="eta"):
        patch_cfg(eta=eta)


@pytest.mark.parametrize("field, value, bound", [("k", 0, ">= 1"), ("epochs", -1, ">= 0"),
                                                 ("max_inner_iters", 0, ">= 1"),
                                                 ("batch_size", -2, ">= 1")])
def test_config_names_each_bound_it_checks(field, value, bound):
    with pytest.raises(InvalidArgumentError, match=f"^{field} must be {bound}, got {value}$"):
        patch_cfg(**{field: value})


@pytest.mark.parametrize("field", ["k", "epochs", "max_inner_iters", "batch_size", "seed"])
def test_config_integer_fields_reject_floats(field):
    # a float max_inner_iters would reach accumulate's iteration cap, where
    # 2.5 would allow a third step, and a float seed the shuffle's Lcg
    for value in (2.5, 2.0):
        with pytest.raises(TypeError):
            patch_cfg(**{field: value})
    assert type(getattr(patch_cfg(**{field: np.int64(2)}), field)) is int


@pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64])
def test_config_seed_must_not_alias_in_the_shuffle_stream(seed):
    # the shuffle draws from Lcg(seed), which reads the seed mod 2^64;
    # [0, 2^63) is attack's documented seed range
    with pytest.raises(InvalidArgumentError, match="seed"):
        patch_cfg(seed=seed)
    assert patch_cfg(seed=2 ** 63 - 1).seed == 2 ** 63 - 1


def test_unknown_strategy(enc, ds):
    with pytest.raises(InvalidArgumentError):
        run_attack(enc, ds, patch_cfg(epochs=0), "pgd")


def test_check_attack_names_each_size_it_needs(enc):
    small = build_dataset(DatasetParams(n_images=8, texts_per_image=2, image_shape=SHAPE,
                                        embed_dim=16, class_count=4, noise_level=0.1,
                                        seed=7), enc)
    with pytest.raises(InvalidArgumentError, match="R@10 probe .* n_images >= 10"):
        check_attack(small, patch_cfg(), "tra")
    ds = build_dataset(PARAMS, enc)  # 20 images, 60 texts
    check_attack(ds, patch_cfg(k=19), "ira")
    check_attack(ds, patch_cfg(k=57), "tra")
    with pytest.raises(InvalidArgumentError, match=r"k=20 .*\(n_images - 1\)"):
        check_attack(ds, patch_cfg(k=20), "ira")
    with pytest.raises(InvalidArgumentError, match=r"k=58 .*\(n_texts - texts of one image\)"):
        check_attack(ds, patch_cfg(k=58), "tra")
    with pytest.raises(InvalidArgumentError, match="k=20"):
        check_attack(ds, patch_cfg(k=20), "tira")
    with pytest.raises(InvalidArgumentError, match="patch mode"):
        check_attack(ds, global_cfg(epsilon=1.0), "tira")


def test_run_attack_runs_only_on_a_batch_of_its_own_inputs(enc, ds):
    cfg = patch_cfg(epochs=1)
    same_weights = build_encoder("mlp", SHAPE, 16, (24,), "tanh", 42)
    other_images = build_dataset(dataclasses.replace(PARAMS, seed=8), enc).images
    for batch in (PerturbedBatch(enc, ds.images, Carrier("global", norm="linf", epsilon=0.04)),
                  PerturbedBatch(enc, ds.images, Carrier("patch", cfg.carrier.mask)),
                  PerturbedBatch(same_weights, ds.images, cfg.carrier),
                  PerturbedBatch(enc, other_images, cfg.carrier)):
        with pytest.raises(InvalidArgumentError, match="batch must be"):
            run_attack(enc, ds, cfg, "tra", batch)
    # a batch over an equal copy of the images runs as the one built inside
    pert, trace = run_attack(enc, ds, cfg, "tra", PerturbedBatch(enc, ds.images.copy(),
                                                                 cfg.carrier))
    ref, ref_trace = run_attack(enc, ds, cfg, "tra")
    assert pert.delta.tobytes() == ref.delta.tobytes() and trace == ref_trace


# -- trivial cases -----------------------------------------------------------

def test_zero_epochs_identity(enc, ds):
    for strategy in ("tra", "ira", "tira"):
        pert, trace = run_attack(enc, ds, patch_cfg(epochs=0), strategy)
        assert np.array_equal(pert.delta, np.zeros(SHAPE))
        assert trace.records == [] and trace.commits == []
    clean = evaluate_metrics(enc, ds, None)
    adv = evaluate_metrics(enc, ds, Perturbation(np.zeros(SHAPE),
                                                 Carrier("global", norm="l2", epsilon=1.0)))
    assert clean == adv  # zero additive delta is an exact identity


def test_zero_mask_is_inert(enc, ds):
    mask = np.zeros(SHAPE)
    pert, trace = run_attack(enc, ds, patch_cfg(mask=mask, epochs=2), "tira")
    assert np.array_equal(pert.delta, np.zeros(SHAPE))


def test_patch_delta_stays_in_unit_range(enc, ds):
    pert, _ = run_attack(enc, ds, patch_cfg(epochs=2), "tira")
    assert pert.delta.min() >= 0.0 and pert.delta.max() <= 1.0


def test_patch_apply_off_patch_identity(enc, ds):
    pert, _ = run_attack(enc, ds, patch_cfg(epochs=1), "tra")
    out = pert.carrier.apply(ds.images[0][None], pert.delta)[0]
    off = pert.carrier.mask == 0.0
    assert np.array_equal(out[off], ds.images[0][off])


def test_determinism_bitwise(enc, ds):
    a, _ = run_attack(enc, ds, patch_cfg(epochs=2, seed=3), "tira")
    b, _ = run_attack(enc, ds, patch_cfg(epochs=2, seed=3), "tira")
    assert a.delta.tobytes() == b.delta.tobytes()


def test_shuffle_changes_visit_order(enc, ds):
    _, t1 = run_attack(enc, ds, patch_cfg(epochs=1, seed=3, shuffle=True), "tra")
    _, t2 = run_attack(enc, ds, patch_cfg(epochs=1, seed=3), "tra")
    ids1 = [r.sample_id for r in t1.records]
    ids2 = [r.sample_id for r in t2.records]
    assert sorted(ids1) == sorted(ids2) == list(range(20))
    assert ids1 != ids2
    assert ids2 == list(range(20))


def test_shuffle_orders_differ_for_every_seed_and_epoch():
    # each run shuffles on one stream, so no (seed, epoch) replays another's
    # order; seeding each epoch with (seed << 1) ^ epoch would make seed 0 at
    # epoch 2 replay seed 1 at epoch 0
    seen = set()
    for seed in range(16):
        orders = _orders(20, patch_cfg(seed=seed, shuffle=True))
        seen.update(tuple(next(orders)) for _ in range(6))
    assert len(seen) == 16 * 6
    plain = _orders(20, patch_cfg(seed=5))
    assert [next(plain) for _ in range(3)] == [list(range(20))] * 3


def test_trace_accounting(enc, ds):
    _, trace = run_attack(enc, ds, patch_cfg(epochs=2, batch_size=8), "tira")
    images = [r for r in trace.records if r.kind == "image"]
    texts = [r for r in trace.records if r.kind == "text"]
    assert len(images) == 2 * 20
    assert len(texts) == 2 * 60
    # one commit per batch half: ceil(20/8) = 3 batches, 2 halves, 2 epochs
    assert len(trace.commits) == 2 * 3 * 2
    assert len(trace.epoch_metrics) == 2
    s = trace.summary()
    assert s["samples_visited"] == len(trace.records)
    assert 0.0 <= s["convergence_rate"] <= 1.0


# -- attack effect on small benchmark ---------------------------------------

@pytest.mark.parametrize("strategy", ["tra", "ira", "tira"])
def test_patch_delta_is_zero_off_mask(enc, ds, strategy):
    # steps are gradients with respect to the on-mask pixels, so r and delta
    # stay exactly 0.0 off the mask
    cfg = patch_cfg(epochs=1, batch_size=8)
    pert, trace = run_attack(enc, ds, cfg, strategy)
    assert trace.summary()["total_inner_iterations"] > 0
    off = cfg.carrier.mask == 0.0
    assert np.all(pert.delta[off] == 0.0)
    assert np.any(pert.delta[~off] != 0.0)


ATTACK_CARRIERS = {  # ira's projections bind; no global delta clamps images in [0.36, 0.65]
    "patch": Carrier("patch", square_patch_mask(SHAPE, 2)),
    "global_l2": Carrier("global", norm="l2", epsilon=0.3),
    "global_linf": Carrier("global", norm="linf", epsilon=0.1),
}


def unfooled_at_commit(enc, ds, strategy, carrier, monkeypatch):
    """One epoch of tra or ira, one sample per half: the samples that took
    steps and converged, and the ids of those of them that the delta of
    their own commit leaves unfooled, with ReferenceBatch as the oracle."""
    deltas, reference = [], ReferenceBatch(enc, ds.images, carrier)

    def recording_commit(batch, *args):
        _commit(batch, *args)
        deltas.append(batch.delta)

    monkeypatch.setattr("uapkit.attack._commit", recording_commit)
    _, trace = run_attack(enc, ds, AttackConfig(carrier, k=3, epochs=1), strategy)

    def fooled(v, delta):
        reference.set_delta(delta)
        if strategy == "tra":
            image = reference.forward_points([v]).embeddings[0]
            return not indicator(image, ds.texts, np.flatnonzero(ds.text_image == v), 3)
        gallery = EmbeddingIndex(reference.gallery().embeddings)
        return not indicator(ds.texts.embeddings[v], gallery, [ds.text_image[v]], 3)

    stepped = [(r.sample_id, delta) for r, delta in zip(trace.records, deltas, strict=True)
               if r.converged and r.inner_iterations > 0]
    return stepped, [v for v, delta in stepped if not fooled(v, delta)]


def test_converged_samples_are_fooled_at_commit(enc, ds, monkeypatch):
    # in global mode every stepped, converged sample is fooled where evaluation sees it
    for strategy in ("tra", "ira"):
        for name in ("global_l2", "global_linf"):
            stepped, unfooled = unfooled_at_commit(enc, ds, strategy, ATTACK_CARRIERS[name],
                                                   monkeypatch)
            assert stepped and unfooled == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, certify converged: a patch probe is "
                   "not clamped to [0, 1] as its commit is (7 of 8 tra, 18 of 24 ira unfooled)")
@pytest.mark.parametrize("strategy", ["tra", "ira"])
def test_converged_patch_samples_are_fooled_at_commit(enc, ds, strategy, monkeypatch):
    stepped, unfooled = unfooled_at_commit(enc, ds, strategy, ATTACK_CARRIERS["patch"],
                                           monkeypatch)
    assert stepped and unfooled == []


# -- global mode -------------------------------------------------------------

def global_cfg(norm="l2", epsilon=2.0, **kw):
    kw.setdefault("k", 3)
    return AttackConfig(Carrier("global", norm=norm, epsilon=epsilon), **kw)


@pytest.mark.parametrize("cfg", [patch_cfg(epochs=1), global_cfg(epochs=1),
                                 global_cfg(norm="linf", epsilon=0.05, epochs=1)],
                         ids=["patch", "global_l2", "global_linf"])
def test_a_zero_r_commit_keeps_delta_as_it_is(enc, ds, cfg):
    strategy = "tira" if cfg.carrier.mode == "patch" else "ira"
    delta = run_attack(enc, ds, cfg, strategy)[0].delta  # a delta the carrier made
    assert delta.any()
    fixed, trace = [], AttackTrace()

    def set_delta(d):
        fixed.append(d)
        batch.delta = d

    # the stub's step coordinates are pixels
    batch = SimpleNamespace(delta=delta, set_delta=set_delta, pixels=lambda r: r)
    _commit(batch, np.zeros(SHAPE), cfg, trace, 3)
    assert batch.delta is delta and fixed == []  # no projection, no set_delta
    # the projection it skips maps delta to itself, bit for bit
    projected = cfg.carrier.commit(delta, np.zeros(SHAPE))
    assert projected.tobytes() == delta.tobytes()
    assert trace.commits == [CommitRecord(3, float(np.linalg.norm(projected)),
                                          float(np.abs(projected).max()))]
    r = np.full(SHAPE, 1e-3) * (cfg.carrier.mask if cfg.carrier.mode == "patch" else 1.0)
    _commit(batch, r, cfg, trace, 3)
    assert fixed == [batch.delta] and not np.array_equal(batch.delta, delta)


def test_a_zero_r_commit_records_the_norms_of_delta():
    # every record reads its norms off delta, not off the last record (the
    # stand-in values below are not delta's norms)
    delta = np.full(SHAPE, 0.5)
    batch = SimpleNamespace(delta=delta)
    trace = AttackTrace(commits=[CommitRecord(2, 1.25, 0.75)])
    _commit(batch, np.zeros(SHAPE), patch_cfg(), trace, 3)
    assert trace.commits[-1] == CommitRecord(3, float(np.linalg.norm(delta)), 0.5)
    assert batch.delta is delta


def test_only_halves_that_take_a_step_project(enc, ds, monkeypatch):
    calls = []
    commit = Carrier.commit
    monkeypatch.setattr(Carrier, "commit",
                        lambda self, *args: calls.append(1) or commit(self, *args))
    _, trace = run_attack(enc, ds, global_cfg(norm="linf", epsilon=0.05, epochs=1), "ira")
    stepped = sum(r.inner_iterations > 0 for r in trace.records)
    assert 0 < len(calls) == stepped < len(trace.commits)


def test_global_l2_budget_every_commit(enc, ds):
    cfg = global_cfg(epochs=2)
    pert, trace = run_attack(enc, ds, cfg, "tra")
    for c in trace.commits:
        assert c.norm_l2 <= cfg.carrier.epsilon + 1e-9
    assert np.linalg.norm(pert.delta) <= cfg.carrier.epsilon + 1e-9


def test_global_linf_budget_every_commit(enc, ds):
    cfg = global_cfg(norm="linf", epsilon=0.05, epochs=2)
    pert, trace = run_attack(enc, ds, cfg, "ira")
    for c in trace.commits:
        assert c.norm_linf <= cfg.carrier.epsilon + 1e-15
    assert np.abs(pert.delta).max() <= cfg.carrier.epsilon


def test_global_vanishing_budget_is_harmless(enc, ds):
    cfg = global_cfg(epsilon=1e-9, epochs=1)
    pert, _ = run_attack(enc, ds, cfg, "tra")
    clean = evaluate_metrics(enc, ds, None)
    adv = evaluate_metrics(enc, ds, pert)
    for key in clean:
        assert abs(clean[key] - adv[key]) <= 0.01


def test_tira_requires_patch_mode(enc, ds):
    with pytest.raises(InvalidArgumentError):
        run_attack(enc, ds, global_cfg(epochs=1), "tira")


# -- evaluation --------------------------------------------------------------

def test_evaluate_metrics_keys_and_ranges(enc, ds):
    out = evaluate_metrics(enc, ds, None, (1, 5, 10))
    assert set(out) == {"tr_r1", "tr_r5", "tr_r10", "ir_r1", "ir_r5", "ir_r10",
                        "top1", "top5"}
    assert all(0.0 <= v <= 1.0 for v in out.values())
    assert out["tr_r1"] <= out["tr_r5"] <= out["tr_r10"]
    assert out["ir_r1"] <= out["ir_r5"] <= out["ir_r10"]
    assert out["top1"] <= out["top5"]


@pytest.mark.parametrize("strategy, cfg", [
    ("tira", patch_cfg(epochs=2)), ("ira", global_cfg(norm="linf", epsilon=0.05, epochs=2))],
    ids=["tira_patch", "ira_global_linf"])
def test_epoch_metrics_are_the_full_set_r10(enc, strategy, cfg):
    # each epoch's R@10 ranks all 40 images and their 120 texts, so the last
    # epoch's reads as the report of the delta the run returns
    ds = build_dataset(dataclasses.replace(PARAMS, n_images=40), enc)
    batch = PerturbedBatch(enc, ds.images, cfg.carrier)
    _, trace = run_attack(enc, ds, cfg, strategy, batch)
    adv = report_metrics(ds, batch.gallery().embeddings, (10,))
    assert [m["epoch"] for m in trace.epoch_metrics] == [0, 1]
    # the clean R@10 does not move with delta: the report records it once
    assert trace.epoch_metrics[-1] == {
        "epoch": 1, "adv_tr_r10": adv["tr_r10"], "adv_ir_r10": adv["ir_r10"]}


def per_k_metrics(enc, ds, perturbation, k_list, image_ids):
    """evaluate_metrics as it ranked before: one recall_at_k per direction and
    k, one topk_class_accuracy per k, on match sets, over the images
    image_ids and their texts."""
    images = ds.images[image_ids]
    if perturbation is not None:
        images = perturbation.carrier.apply(images, perturbation.delta)
    img = EmbeddingIndex(encode_batch(enc, images))
    text_ids = [t for t in range(len(ds.texts)) if ds.text_image[t] in image_ids]
    text_pos = {t: i for i, t in enumerate(text_ids)}
    img_pos = {v: i for i, v in enumerate(image_ids)}
    texts = EmbeddingIndex(ds.texts.embeddings[text_ids])
    tr_matches = [{text_pos[t] for t in text_ids if ds.text_image[t] == v} for v in image_ids]
    ir_matches = [{img_pos[ds.text_image[t]]} for t in text_ids]
    out = {}
    for k in k_list:
        out[f"tr_r{k}"] = recall_at_k(img, texts, tr_matches, k)
        out[f"ir_r{k}"] = recall_at_k(texts, img, ir_matches, k)
    labels = [ds.labels[v] for v in image_ids]
    out["top1"] = topk_class_accuracy(img, ds.prototypes, labels, 1)
    out["top5"] = topk_class_accuracy(img, ds.prototypes, labels, min(5, len(ds.prototypes)))
    return out


def test_evaluate_metrics_equals_the_per_k_oracle(enc, ds):
    n = PARAMS.n_images  # the image gallery, smaller than the text gallery
    rng = np.random.default_rng(11)
    pert = Perturbation(rng.uniform(0.0, 1.0, SHAPE), patch_cfg().carrier)
    for k_list in [(1, 5, 10), (n,), (2, 1, n, 2), ()]:
        for p in (None, pert):
            out = evaluate_metrics(enc, ds, p, k_list)
            expected = per_k_metrics(enc, ds, p, k_list, range(n))
            assert out == expected and list(out) == list(expected)
            assert all(type(v) is float for v in out.values())


REPORT_CARRIERS = {
    # (carrier, delta of a given rng): a patch, and global deltas large
    # enough that the [0, 1] clamp moves pixels, so the clamp correction of
    # the factored rows runs
    "patch": (patch_cfg().carrier, lambda rng: rng.uniform(0.0, 1.0, SHAPE)),
    "global_l2": (Carrier("global", norm="l2", epsilon=50.0),
                  lambda rng: 0.6 * rng.standard_normal(SHAPE)),
    "global_linf": (Carrier("global", norm="linf", epsilon=0.6),
                    lambda rng: rng.choice([-0.6, 0.6], SHAPE)),
}


@pytest.mark.parametrize("name", sorted(REPORT_CARRIERS))
def test_report_metrics_equal_the_apply_encode_oracle(enc, ds, name):
    carrier, draw = REPORT_CARRIERS[name]
    pert = Perturbation(draw(np.random.default_rng(5)), carrier)
    if carrier.mode == "global":
        raw = ds.images + pert.delta
        assert raw.min() < 0.0 and raw.max() > 1.0  # the clamp is active
    k_list = (1, 2, 5)
    batch, reference = (cls(enc, ds.images, carrier) for cls in (PerturbedBatch, ReferenceBatch))
    for b in (batch, reference):
        b.set_delta(pert.delta)

    def blocks(b):  # the report's clean and adversarial blocks
        return [report_metrics(ds, cache.embeddings, k_list) for cache in (b.clean(), b.gallery())]

    report = blocks(batch)
    assert report == blocks(reference)
    # the batch, still at delta, gives the same report again
    assert blocks(batch) == report


@pytest.mark.parametrize("k", [0, 21])
def test_evaluate_metrics_k_beyond_the_image_gallery(enc, ds, k):
    # 20 images and 60 texts: the image gallery holds 20
    with pytest.raises(InvalidArgumentError):
        evaluate_metrics(enc, ds, None, (1, k))


def test_evaluate_metrics_k_must_be_an_integer(enc, ds):
    # R@2.5 would read as R@3 under a key of its own
    with pytest.raises(TypeError):
        evaluate_metrics(enc, ds, None, (2.5,))


def test_clean_metrics_encode_the_images_as_given(enc, ds, monkeypatch):
    # the clean block needs no carrier: it ranks encode_batch of the images,
    # the rows gen's floor check and the per-k oracle encode
    expected = report_metrics(ds, encode_batch(enc, ds.images))
    monkeypatch.setattr(PerturbedBatch, "__init__",
                        lambda *args: pytest.fail("a PerturbedBatch was built"))
    assert evaluate_metrics(enc, ds, None) == expected


@pytest.mark.parametrize("strategy, cfg", [
    ("tira", patch_cfg(epochs=1)), ("ira", global_cfg(norm="linf", epsilon=0.05, epochs=1))],
    ids=["tira_patch", "ira_global_linf"])
def test_run_attack_never_ranks_the_clean_rows(enc, ds, monkeypatch, strategy, cfg):
    # each epoch's metrics rank delta's rows only; the clean rows do not
    # move with delta, and the report records them once
    monkeypatch.setattr(PerturbedBatch, "clean",
                        lambda self: pytest.fail("the clean rows were encoded"))
    _, trace = run_attack(enc, ds, cfg, strategy)
    assert len(trace.epoch_metrics) == 1


# -- inner-loop tie-breaks ---------------------------------------------------

class StubBatch:
    """Stands in for PerturbedBatch, with pixel step coordinates: the rows
    at delta (forward_points without a step, and gallery()) are the entry
    embeddings, and every point of a step the probe embeddings; step
    records what it is asked to differentiate, and crosses along a gradient
    of ones."""

    def __init__(self, entry, probe, shape):
        self.entry, self.probe, self.shape = entry, probe, shape
        self.step_calls = []

    def forward_points(self, rows, step=None, scales=(1.0,)):
        table = self.entry if step is None else self.probe
        return SimpleNamespace(embeddings=np.concatenate([table[list(rows)]] * len(scales)))

    def gallery(self):
        return SimpleNamespace(embeddings=self.entry)

    def zero_step(self):
        return np.zeros(self.shape)

    def step(self, cache, us, rows, gap):
        self.step_calls.append((np.array(us), [int(j) for j in rows]))
        return crossing_step(np.ones(self.shape), gap)

    def pixels(self, step):
        return step


def unit_rows(dots):
    """Unit rows whose dot product with the first axis is exactly dots[i]."""
    n = len(dots)
    out = np.zeros((n, n + 1))
    out[:, 0] = dots
    out[np.arange(n), np.arange(n) + 1] = np.sqrt(1.0 - np.square(dots))
    return out


def tiebreak_cfg():
    # one step, then stop: the stub never becomes fooled
    return AttackConfig(Carrier("global", norm="l2", epsilon=1.0), k=3, max_inner_iters=1)


# a nonzero incoming r, as a tira half passes on: the probe is then a new
# point, whose similarities may order the candidates unlike the entry's
R0 = np.full((1, 2, 2), 0.5)


def test_tra_step_seeded_by_smallest_id_candidate_and_match():
    # texts 2, 5, 6 match image 0; at entry the nearest non-matching texts
    # are 7, 4, 1 (descending). At the probe, candidates 7 and 1 tie as the
    # weakest and matches 5 and 6 tie as the strongest.
    entry_sims = [0.0, 0.4, 0.3, 0.0, 0.5, 0.2, 0.1, 0.6]
    probe_sims = [0.0, 0.2, 0.3, 0.0, 0.5, 0.6, 0.6, 0.2]
    texts = np.zeros((8, 10))
    texts[:, 0], texts[:, 1] = entry_sims, probe_sims
    texts[np.arange(8), np.arange(8) + 2] = np.sqrt(
        1.0 - np.square(entry_sims) - np.square(probe_sims))
    ds = SimpleNamespace(texts=EmbeddingIndex(texts),
                         text_image=np.array([1, 1, 0, 1, 1, 0, 0, 1]))
    e0, e1 = np.eye(10)[:2]
    batch = StubBatch(e0[None], e1[None], (1, 2, 2))
    r, iters, reason = _tra_inner(batch, ds, 0, R0, tiebreak_cfg())
    assert (iters, reason) == (1, "max_iters")
    [(us, rows)] = batch.step_calls
    np.testing.assert_array_equal(us, (texts[1] - texts[5])[None])
    assert rows == [0]
    np.testing.assert_allclose(r - R0, np.full((1, 2, 2), (0.6 - 0.2) / 4))


def test_ira_step_seeded_by_smallest_id_candidate():
    # text 0 matches image 3; the k = 3 nearest other images are 6, 2, 4, not
    # in id order. At the probe, 6 and 2 tie as the weakest candidate.
    gallery_sims = [0.1, 0.0, 0.5, 0.3, 0.4, 0.2, 0.6]
    probe_sims = [0.0, 0.0, 0.2, 0.7, 0.5, 0.0, 0.2]
    t = np.eye(8)[0]
    ds = SimpleNamespace(texts=EmbeddingIndex(t[None]), text_image=np.array([3]))
    gallery = EmbeddingIndex(unit_rows(gallery_sims))
    batch = StubBatch(gallery.embeddings, unit_rows(probe_sims), (1, 2, 2))
    r, iters, reason = _ira_inner(batch, ds, 0, R0, tiebreak_cfg(), gallery,
                                  match_mask([[0]], 4))
    assert (iters, reason) == (1, "max_iters")
    [(us, rows)] = batch.step_calls
    np.testing.assert_array_equal(us, np.stack([t, -t]))
    assert rows == [2, 0]  # rows are [3, 6, 2, 4]: image 2, then the match
    np.testing.assert_allclose(r - R0, np.full((1, 2, 2), (0.7 - 0.2) / 4))


def test_ira_encodes_the_gallery_once_per_distinct_delta(enc, ds, monkeypatch):
    deltas, galleries = [], []
    set_delta, forward_points = PerturbedBatch.set_delta, PerturbedBatch.forward_points

    def counting_set_delta(self, delta):
        deltas.append(np.asarray(delta).tobytes())
        return set_delta(self, delta)

    def counting_forward_points(self, rows, *args):
        if len(rows) == PARAMS.n_images:
            galleries.append(deltas[-1])
        return forward_points(self, rows, *args)

    monkeypatch.setattr(PerturbedBatch, "set_delta", counting_set_delta)
    monkeypatch.setattr(PerturbedBatch, "forward_points", counting_forward_points)
    cfg = global_cfg(epochs=2)
    _, trace = run_attack(enc, ds, cfg, "ira")
    distinct = [d for i, d in enumerate(deltas) if i == 0 or d != deltas[i - 1]]
    assert galleries == distinct
    # some halves commit the delta they started from and encode nothing
    assert len(distinct) < len(trace.commits) + 1


def test_ira_indexes_each_encoded_gallery_once(enc, ds, monkeypatch):
    # the index checks that every row is unit-norm; an unchanged gallery keeps
    # the index it already has
    encoded, indexed = [], []
    gallery = PerturbedBatch.gallery

    def recording_gallery(self):
        cache = gallery(self)
        if not any(cache.embeddings is e for e in encoded):
            encoded.append(cache.embeddings)
        return cache

    class CountingIndex(EmbeddingIndex):
        def __post_init__(self):
            indexed.append(self.embeddings)
            super().__post_init__()

    monkeypatch.setattr(PerturbedBatch, "gallery", recording_gallery)
    monkeypatch.setattr("uapkit.attack.EmbeddingIndex", CountingIndex)
    cfg = global_cfg(norm="linf", epsilon=0.5, epochs=2)
    _, trace = run_attack(enc, ds, cfg, "ira")
    built = [e for e in indexed if any(e is g for g in encoded)]
    assert len(built) == len(encoded)
    assert all(sum(e is g for e in built) == 1 for g in encoded)
    # some text halves commit the delta they started from
    assert 1 < len(encoded) < len(trace.commits)


# -- work on the standard benchmark ------------------------------------------

@pytest.mark.parametrize("strategy, forwards, work", [
    # ira: one gallery per distinct delta, and each text's rows at r = 0 are
    # gallery rows, so every other forward is a probe of a step taken
    ("ira", 698, {"gallery": 119, "at_delta": 0, "step": 579, "backward": 579,
                  "iterations": 579}),
    # tra: each image's entry forward is also its probe at r = 0, and the
    # epoch's R@10 probe reads the gallery at the committed delta; two
    # images stall, each after a backward whose step is not taken
    ("tra", 610, {"gallery": 1, "at_delta": 200, "step": 409, "backward": 411,
                  "iterations": 409}),
    # tira patch: delta moves before each of the 13 text halves, so each
    # encodes a gallery, and the R@10 probe one more; 25 of the 26 halves
    # commit a nonzero r, and 100 of the 108 samples that do not converge
    # stall, most of them within a few iterations
    ("tira", 3026, {"gallery": 14, "at_delta": 200, "step": 2812, "backward": 1857,
                    "iterations": 1757}),
])
def test_global_linf_epoch_work_is_pinned(benchmark_epochs, strategy, forwards, work):
    _, trace, counts = benchmark_epochs[strategy]
    summary = trace.summary()
    assert {**counts, "iterations": summary["total_inner_iterations"]} == work
    assert counts["gallery"] + counts["at_delta"] + counts["step"] == forwards
    # inner_iterations counts the steps taken: a backward is made for each
    # one, and one more for each stalled sample, whose step is not taken
    assert counts["backward"] == work["iterations"] + summary["stop_reasons"]["stalled"]


def test_stop_reasons_of_an_ira_epoch(benchmark_epochs):
    _, trace, _ = benchmark_epochs["ira"]
    reasons = trace.summary()["stop_reasons"]
    assert reasons == {"fooled_at_entry": 882, "fooled": 114, "max_iters": 4,
                       "degenerate": 0, "stalled": 0}
    assert sum(reasons.values()) == trace.summary()["samples_visited"]
    assert reasons["fooled_at_entry"] + reasons["fooled"] == trace.summary()["converged"]


def test_report_metrics_holds_no_whole_score_matrix(standard):
    # a block of the report, clean or at delta, allocates its match masks,
    # one rank block's scores and the ranks it reads: under 1 MiB, where
    # each whole 200 x 1,000 score matrix alone takes 1.6 MB
    enc, ds, configs = standard
    batch = PerturbedBatch(enc, ds.images, configs["tira"].carrier)
    for cache in (batch.clean(), batch.gallery()):
        _, peak = peak_bytes(report_metrics, ds, cache.embeddings)
        assert peak < 1.25 * 2 ** 20


@pytest.mark.parametrize("strategy", ["ira", "tra", "tira"])
def test_epoch_equals_the_plain_crossing_loop(standard, benchmark_epochs, monkeypatch,
                                             strategy):
    # the loop without the stall rule runs a stalled sample on to max_iters;
    # it fools no sample the stall rule gives up on, and keeps every epoch's
    # R@10, and delta within 1e-5
    enc, ds, configs = standard
    monkeypatch.setattr("uapkit.attack.accumulate", plain_accumulate)
    plain, plain_trace = run_attack(enc, ds, configs[strategy], strategy)
    perturbation, trace, _ = benchmark_epochs[strategy]
    got, want = trace.summary()["stop_reasons"], plain_trace.summary()["stop_reasons"]
    for reason in ("fooled", "fooled_at_entry", "degenerate"):
        assert got[reason] == want[reason]
    assert got["max_iters"] + got["stalled"] == want["max_iters"]
    assert trace.epoch_metrics == plain_trace.epoch_metrics
    np.testing.assert_allclose(perturbation.delta, plain.delta, rtol=0, atol=1e-5)


def assert_same_run(fast, trace, plain, plain_trace):
    """Equal records and epoch metrics, and the same commits, with delta
    and each commit's norms within 1e-12."""
    assert trace.records == plain_trace.records
    assert trace.epoch_metrics == plain_trace.epoch_metrics
    np.testing.assert_allclose(fast.delta, plain.delta, rtol=0, atol=1e-12)
    got, want = ([(c.epoch, c.norm_l2, c.norm_linf) for c in t.commits]
                 for t in (trace, plain_trace))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy", ["ira", "tra"])
def test_global_epoch_equals_the_pixel_step_reference(standard, benchmark_epochs, strategy):
    # global steps live over W1's 256 rows; ReferenceBatch steps over all
    # 3,072 pixels and gives the same run up to rounding
    enc, ds, configs = standard
    carrier = configs[strategy].carrier
    assert PerturbedBatch(enc, ds.images, carrier).zero_step().shape == (256,)
    plain, plain_trace = run_attack(enc, ds, configs[strategy], strategy,
                                    ReferenceBatch(enc, ds.images, carrier))
    perturbation, trace, _ = benchmark_epochs[strategy]
    assert_same_run(perturbation, trace, plain, plain_trace)
    assert trace.summary() == plain_trace.summary()

"""Universal perturbation synthesis against a differentiable encoder.

Strategies:
  - tra:  image loop; pushes each (patched) image embedding across boundaries
          built from its matching vs. nearest non-matching texts.
  - ira:  text loop; warps the patched candidate images of each text so the
          matched image drops out of the text's top-k.
  - tira: alternates both over image batches, sharing one inner direction r
          per batch half and committing delta once per half.

run_attack drives all three as a sequence of halves (groups of samples that
share one r and one commit); tra and ira differ only in which side of one
top-k crossing (_cross) moves, and boundary.accumulate is its loop. Each
visited r costs one forward of both points the crossing needs
(none at r = 0, where both are delta and a forward at delta exists) and,
only for a step that is taken, one backward. The inner loop checks nothing
per call: check_attack checks the sizes once, at entry, and set_delta every
delta.

The carrier (core.Carrier) owns the patch/global rules: where delta sits on
an image and how a commit is projected. Every forward and backward of the
inner loops, and each epoch's metrics, go through one encoder.PerturbedBatch,
which computes the encoder's first layer only over the pixels the carrier
moves; report_metrics ranks the image rows it is given. All loops are
sequential and fully deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .boundary import FOOLED, STOP_REASONS, accumulate, topk_pair
from .core import PATCH_AREA_DEFAULT, Carrier, as_tensor  # noqa: F401 (re-exported)
from .datagen import Dataset
from .encoder import Encoder, PerturbedBatch, encode_batch
from .errors import InvalidArgumentError
from .retrieval import (EmbeddingIndex, hit_rate, match_mask, match_ranks, rank_rows,
                        select_nonmatching_topk)
from .rng import Lcg

EPS_L2_DEFAULT = 2000.0 / 255.0
EPS_LINF_DEFAULT = 10.0 / 255.0
K_LIST_DEFAULT = (1, 5, 10)  # the R@k of a report
PROBE_K = 10  # the R@k of the epoch metrics, taken over all images


@dataclass(frozen=True)
class AttackConfig:
    """delta's constraint set (the carrier) and the crossing's hyper-parameters."""
    carrier: Carrier
    k: int = 10
    eta: float = 0.02
    epochs: int = 10
    max_inner_iters: int = 50
    batch_size: int = 16
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if not isinstance(self.carrier, Carrier):
            raise InvalidArgumentError(f"carrier must be a Carrier, got {self.carrier!r}")
        for name, low in {"k": 1, "epochs": 0, "max_inner_iters": 1, "batch_size": 1}.items():
            # counts must be integers (operator.index raises TypeError for 2.5)
            object.__setattr__(self, name, value := operator.index(getattr(self, name)))
            if value < low:
                raise InvalidArgumentError(f"{name} must be >= {low}, got {value}")
        if not 0 < self.eta < np.inf:  # False for NaN
            raise InvalidArgumentError(f"eta must be positive and finite, got {self.eta}")
        # the shuffle draws from Lcg(seed), which reads the seed mod 2^64;
        # [0, 2^63) is attack's documented seed range, so no seed aliases
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0 <= self.seed < 2 ** 63:
            raise InvalidArgumentError(f"seed {self.seed} not in [0, 2^63)")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "carrier"} | self.carrier.to_json_dict()


@dataclass
class SampleRecord:
    kind: str          # "image" (text-retrieval loop) or "text" (image-retrieval loop)
    sample_id: int
    epoch: int
    inner_iterations: int
    reason: str        # why the crossing stopped; see boundary.accumulate

    @property
    def converged(self) -> bool:
        return self.reason in FOOLED


@dataclass
class CommitRecord:
    epoch: int
    norm_l2: float
    norm_linf: float


@dataclass
class AttackTrace:
    records: list[SampleRecord] = field(default_factory=list)
    commits: list[CommitRecord] = field(default_factory=list)
    epoch_metrics: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        n = len(self.records)
        conv = sum(r.converged for r in self.records)
        return {
            "samples_visited": n,
            "converged": conv,
            "convergence_rate": conv / n if n else 1.0,
            "total_inner_iterations": sum(r.inner_iterations for r in self.records),
            "epochs": len(self.epoch_metrics),
            "stop_reasons": {why: sum(r.reason == why for r in self.records)
                             for why in STOP_REASONS},
        }


@dataclass(frozen=True, eq=False)
class Perturbation:
    delta: np.ndarray
    carrier: Carrier

    def __post_init__(self):
        # reject a delta the carrier cannot produce, or a non-finite one
        object.__setattr__(self, "delta", as_tensor(self.delta))
        self.carrier.check(self.delta)


# -- inner loops -------------------------------------------------------------


def _cross(batch: PerturbedBatch, rows, entry, sims_of, seeds, is_match, candidates,
           r: np.ndarray, cfg: AttackConfig):
    """One sample's top-k crossing; returns (r, iterations, reason).

    sims_of maps the embeddings of the batch rows that move to query-gallery
    similarities, and is_match is the (1, M) boolean mask of the query's
    matches in that gallery. The matches (its nonzero positions) and the
    candidates are gallery positions in ascending gallery id, so
    topk_pair breaks ties toward the smallest id. seeds(c, m)
    gives the backward's (us, positions) for f_c - f_m, positions indexing
    rows.

    Each visited r is encoded once at both of its points: r itself, where the
    step linearises (the cache's first len(rows) rows), and the probe
    (1 + eta) r. At r = 0 both points are delta, and entry = (cache, at)
    already holds them: cache row at[j] is rows[j] at delta.
    """
    n = len(rows)
    matches = np.flatnonzero(is_match[0])
    at_step = np.arange(n)
    # the two blocks of a forward at a step: r's rows, then the probe's
    step_rows, probe_rows = slice(0, n), slice(n, 2 * n)

    def probe(r_vec):
        if np.count_nonzero(r_vec):
            cache = batch.forward_points(rows, r_vec, (1.0, 1.0 + cfg.eta))
            at_r, read_r, read_probe = at_step, step_rows, probe_rows
        else:
            cache, at_r = entry
            read_r = read_probe = at_r
        if match_ranks(sims_of(cache.embeddings[read_probe])[None], is_match)[0] >= cfg.k:
            return True, None

        def step_at():
            sims = sims_of(cache.embeddings[read_r])
            m, c = topk_pair(sims, matches, candidates)
            us, positions = seeds(c, m)
            return batch.step(cache, us, at_r[positions], float(sims[m] - sims[c]))

        return False, step_at

    return accumulate(r, probe, cfg.max_inner_iters)


def _tra_inner(batch: PerturbedBatch, ds: Dataset, v_idx: int, r: np.ndarray,
               cfg: AttackConfig):
    """Image-loop body for one image: the query moves against the texts.

    r accumulates on top of its incoming value (shared across a combined-run
    batch), in batch's step coordinates: for the default patch, its values
    on the 75 on-mask pixels. Every step is a gradient with respect to the
    pixels the carrier moves, so batch.pixels(r) is exactly zero elsewhere
    and needs no masking of its own. The image's matches are the texts t
    with ds.text_image[t] == v_idx.
    """
    texts = ds.texts.embeddings
    is_match = (ds.text_image == v_idx)[None]
    # candidate non-matching texts are the nearest to the image as it looks
    # under the current perturbation, so the stopping test tracks the metric;
    # that forward is also the crossing's point at r = 0
    entry = batch.forward_points([v_idx])
    y_prime = select_nonmatching_topk(entry.embeddings[0], ds.texts,
                                      np.flatnonzero(is_match[0]), cfg.k)
    return _cross(batch, [v_idx], (entry, np.array([0])), lambda e: texts @ e[0],
                  lambda c, m: ((texts[c] - texts[m])[None], [0]),
                  is_match, sorted(y_prime), r, cfg)


def _ira_inner(batch: PerturbedBatch, ds: Dataset, t_idx: int, r: np.ndarray,
               cfg: AttackConfig, gallery: EmbeddingIndex, is_match: np.ndarray):
    """Text-loop body for one text: the match (row 0) and k candidates move.

    gallery indexes batch.gallery(), every image under the current
    perturbation; ranking candidates against it means the stopping test
    (match outranked by k candidates) certifies a full-gallery retrieval
    miss, and its rows are the crossing's points at r = 0. is_match is
    match_mask([[0]], 1 + cfg.k), the same for every text.
    """
    t = ds.texts.embeddings[t_idx]
    y = int(ds.text_image[t_idx])
    rows = np.array([y, *select_nonmatching_topk(t, gallery, {y}, cfg.k)])
    us = np.array([t, -t])  # every step seeds f_c - f_m with these rows
    return _cross(batch, rows, (batch.gallery(), rows), lambda e: e @ t,
                  lambda c, m: (us, [c, m]), is_match, 1 + np.argsort(rows[1:]), r, cfg)


# -- commit and driver -------------------------------------------------------


def _commit(batch: PerturbedBatch, r: np.ndarray, cfg: AttackConfig,
            trace: AttackTrace, epoch: int) -> None:
    """Move batch.delta by one half's r, in batch's step coordinates, taken
    to an image-shaped step once, here, by batch.pixels, and record the
    norms of delta as it then is. A zero r leaves delta as it is: every
    delta here is a projection's output (or zero), which the projection
    maps to itself bit for bit, so neither it nor set_delta runs."""
    if r.any():
        step = (1.0 + cfg.eta) * batch.pixels(r)
        batch.set_delta(cfg.carrier.commit(batch.delta, step))
    delta = batch.delta
    trace.commits.append(CommitRecord(epoch, float(np.linalg.norm(delta)),
                                      float(np.abs(delta).max())))


def _orders(n: int, cfg: AttackConfig):
    """Each epoch's visit order of range(n), in turn. With shuffle, each is
    a Fisher-Yates shuffle on one Lcg(seed) stream that runs on across
    epochs, so no (seed, epoch) replays another's order."""
    rng = Lcg(cfg.seed)
    while True:
        idx = list(range(n))
        if cfg.shuffle:
            for i in range(n - 1, 0, -1):
                j = rng.next_u64() % (i + 1)
                idx[i], idx[j] = idx[j], idx[i]
        yield idx


def report_metrics(ds: Dataset, rows: np.ndarray, k_list=K_LIST_DEFAULT) -> dict:
    """TR/IR R@k for each k and Top-1/Top-5 of rows, one embedding per
    image of ds in id order, against all its texts and class prototypes.

    Each direction is ranked once, through rank_rows, on the match masks
    ds.match_masks scatters from ds.text_image, and every k read off its
    one rank vector. A caller that wants two blocks, such as the clean and
    the perturbed images, calls once per block.
    """
    n, m = ds.params.n_images, ds.params.n_texts
    texts = ds.texts.embeddings  # in id order, as datagen.load checks
    tr_match, ir_match = ds.match_masks()
    protos = ds.prototypes.embeddings
    tr = rank_rows(rows, texts, tr_match)
    ir = rank_rows(texts, rows, ir_match)
    out = {}
    for k in k_list:
        out[f"tr_r{k}"] = hit_rate(tr, k, m)
        out[f"ir_r{k}"] = hit_rate(ir, k, n)
    cls = rank_rows(rows, protos, np.asarray(ds.labels)[:, None] == np.arange(len(protos)))
    out["top1"] = hit_rate(cls, 1, len(protos))
    out["top5"] = hit_rate(cls, min(5, len(protos)), len(protos))
    return out


def evaluate_metrics(enc: Encoder, ds: Dataset, perturbation: Perturbation | None,
                     k_list=K_LIST_DEFAULT) -> dict:
    """report_metrics of the images of ds under perturbation, the rows a
    PerturbedBatch at its delta ranks against, or of encode_batch of the
    images as given when that is None."""
    if perturbation is None:
        return report_metrics(ds, encode_batch(enc, ds.images), k_list)
    batch = PerturbedBatch(enc, ds.images, perturbation.carrier)
    batch.set_delta(perturbation.delta)
    return report_metrics(ds, batch.gallery().embeddings, k_list)


def _halves(ds: Dataset, cfg: AttackConfig, strategy: str, order: list[int]):
    """One epoch's (kind, sample ids) groups, each sharing one r and one commit.

    tra visits one image per half and ira one text per half, in order; tira
    takes a batch of images, then that batch's matching texts.
    """
    if strategy == "ira":
        for t in order:
            yield "text", [t]
        return
    if strategy == "tra":
        for v in order:
            yield "image", [v]
        return
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        yield "image", batch
        yield "text", np.flatnonzero(np.isin(ds.text_image, batch)).tolist()


def check_attack(ds: Dataset, cfg: AttackConfig, strategy: str) -> None:
    """Raise InvalidArgumentError unless run_attack can run strategy on ds:
    the strategy suits the carrier, the per-epoch R@PROBE_K probe fits its
    image gallery, and k fits every candidate gallery a half ranks."""
    if strategy not in ("tra", "ira", "tira"):
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    if strategy == "tira" and cfg.carrier.mode != "patch":
        raise InvalidArgumentError("tira is defined for patch mode")
    if ds.params.n_images < PROBE_K:
        raise InvalidArgumentError(
            f"the per-epoch R@{PROBE_K} probe ranks all {ds.params.n_images} images; "
            f"it needs n_images >= {PROBE_K}")
    galleries = {}  # the non-matching candidates of an image or a text
    if strategy != "ira":
        most = int(np.bincount(ds.text_image).max())
        galleries["n_texts - texts of one image"] = ds.params.n_texts - most
    if strategy != "tra":
        galleries["n_images - 1"] = ds.params.n_images - 1
    for name, size in galleries.items():
        if cfg.k > size:
            raise InvalidArgumentError(
                f"k={cfg.k} exceeds the {size} non-matching candidates of "
                f"{strategy} ({name})")


def run_attack(enc: Encoder, ds: Dataset, cfg: AttackConfig, strategy: str,
               batch: PerturbedBatch | None = None):
    """Run strategy tra, ira or tira; returns (Perturbation, AttackTrace).

    Each half accumulates one r over its samples on top of the current delta,
    then commits it once. batch, a PerturbedBatch of enc over ds.images
    under cfg.carrier, is built here when None. After each epoch,
    report_metrics' R@PROBE_K of batch.gallery(), every image at the
    epoch's delta against every text, is the trace's epoch_metrics entry,
    so the last entry is the final report's R@10.
    """
    check_attack(ds, cfg, strategy)
    if batch is None:
        batch = PerturbedBatch(enc, ds.images, cfg.carrier)
    elif (batch.carrier is not cfg.carrier or batch.enc is not enc
          or not np.array_equal(batch.images, ds.images)):
        raise InvalidArgumentError(
            "batch must be a PerturbedBatch of enc over ds.images under cfg.carrier")
    batch.set_delta(np.zeros(ds.params.image_shape))
    trace = AttackTrace()
    gallery_cache = None
    ira_match = match_mask([[0]], 1 + cfg.k)
    orders = _orders(ds.params.n_texts if strategy == "ira" else ds.params.n_images, cfg)
    for epoch, order in zip(range(cfg.epochs), orders):
        for kind, samples in _halves(ds, cfg, strategy, order):
            r = batch.zero_step()
            if kind == "text":
                # gallery() encodes again only after delta moved, and only a
                # new gallery needs a new index
                cache = batch.gallery()
                if cache is not gallery_cache:
                    gallery_cache, gallery = cache, EmbeddingIndex(cache.embeddings)
            for sid in samples:
                if kind == "image":
                    r, iters, reason = _tra_inner(batch, ds, sid, r, cfg)
                else:
                    r, iters, reason = _ira_inner(batch, ds, sid, r, cfg, gallery, ira_match)
                trace.records.append(SampleRecord(kind, sid, epoch, iters, reason))
            _commit(batch, r, cfg, trace, epoch)
        adv = report_metrics(ds, batch.gallery().embeddings, (PROBE_K,))
        trace.epoch_metrics.append(
            {"epoch": epoch, "adv_tr_r10": adv["tr_r10"], "adv_ir_r10": adv["ir_r10"]})
    return Perturbation(batch.delta, cfg.carrier), trace

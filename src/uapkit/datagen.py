"""Deterministic synthetic multimodal dataset generator.

Images are rendered from seeded latent vectors through a fixed random
projection + sigmoid. Text embeddings for an image are noisy copies of that
image's (clean) encoder embedding, which plays the role of the latent anchor;
this simulates a trained retriever whose matching captions embed near their
image. A clean-retrieval floor check at generation time rejects pairings
where the benchmark would start from chance-level recall.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor_io
from .encoder import Encoder, encode_batch, encoder_hash
from .errors import (MALFORMED_JSON_ERRORS, CorruptDatasetError,
                     DegenerateDatasetError, IntegrityError,
                     InvalidArgumentError)
from .retrieval import EmbeddingIndex, MatchAnnotation, recall_at_k
from .rng import Lcg

FLOOR_K = 10
FLOOR_MULTIPLIER = 5.0


@dataclass(frozen=True)
class DatasetParams:
    n_images: int = 200
    texts_per_image: int = 5
    image_shape: tuple[int, int, int] = (3, 32, 32)
    embed_dim: int = 64
    class_count: int = 10
    noise_level: float = 0.1
    seed: int = 7
    # retrieval-difficulty knobs: the decoder is a random rank-`decoder_rank`
    # matrix and `decoder_scale` sets the sigmoid contrast. Low rank/scale
    # keeps image variation on a small manifold that perturbations can reach.
    decoder_scale: float = 0.15
    decoder_rank: int = 8

    def __post_init__(self):
        # sizes must be integers (operator.index raises TypeError for 40.0)
        object.__setattr__(self, "image_shape", tuple(map(operator.index, self.image_shape)))
        sizes = (self.n_images, self.texts_per_image, self.embed_dim, self.class_count,
                 self.decoder_rank)
        if min(map(operator.index, sizes)) < 1 or self.decoder_rank > self.embed_dim:
            raise InvalidArgumentError("sizes must be positive and decoder_rank <= embed_dim")
        if len(self.image_shape) != 3 or min(self.image_shape) < 1:
            raise InvalidArgumentError("image_shape must be (c, h, w)")
        if not 0 <= self.noise_level < math.inf:  # False for NaN
            raise InvalidArgumentError(f"noise_level {self.noise_level} not in [0, inf)")
        if not 0 < self.decoder_scale < math.inf:
            raise InvalidArgumentError(f"decoder_scale {self.decoder_scale} not in (0, inf)")
        if not 0 <= operator.index(self.seed) < 2 ** 64:  # Lcg reads the seed mod 2^64
            raise InvalidArgumentError(f"seed {self.seed} not in [0, 2^64)")

    @property
    def n_texts(self) -> int:
        return self.n_images * self.texts_per_image


@dataclass
class Dataset:
    params: DatasetParams
    images: np.ndarray            # (N, c, h, w) in [0, 1]
    texts: EmbeddingIndex         # (M, d)
    annotation: MatchAnnotation
    prototypes: EmbeddingIndex    # (C, d)
    labels: list[int]             # per image
    encoder_hash: str = ""
    dataset_hash: str = ""

    def matches_of_image(self, v: int) -> frozenset[int]:
        return self.annotation.image_to_texts[v]

    def image_of_text(self, t: int) -> int:
        return self.annotation.text_to_image[t]


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _annotation_for(params: DatasetParams) -> MatchAnnotation:
    n = params.texts_per_image
    return MatchAnnotation.from_image_lists(
        {i: list(range(i * n, (i + 1) * n)) for i in range(params.n_images)})


def _render_images(params: DatasetParams, rng: Lcg) -> np.ndarray:
    """The (N, c, h, w) images: seeded unit latents through a random
    decoder of rank decoder_rank, then 1 / (1 + exp(-decoder_scale * logits)),
    taken in place on the logits."""
    d, rank = params.embed_dim, params.decoder_rank
    latents = _unit_rows(rng.fill_gaussian(params.n_images * d).reshape(-1, d))
    left = rng.fill_gaussian(math.prod(params.image_shape) * rank).reshape(-1, rank)
    right = rng.fill_gaussian(rank * d).reshape(rank, d)
    decoder = left @ right
    decoder /= math.sqrt(rank)
    images = latents @ decoder.T
    images *= -params.decoder_scale
    np.exp(images, out=images)
    images += 1.0
    np.divide(1.0, images, out=images)
    return images.reshape(params.n_images, *params.image_shape)


def build_dataset(params: DatasetParams, enc: Encoder) -> Dataset:
    """Materialize the dataset in memory (no files); enforces the floor check."""
    if tuple(enc.input_shape) != params.image_shape or enc.embed_dim != params.embed_dim:
        raise InvalidArgumentError("encoder shape does not match dataset parameters")
    d = params.embed_dim
    rng = Lcg(params.seed)
    images = _render_images(params, rng)

    anchors = encode_batch(enc, images)  # (N, d) unit rows
    noise = rng.fill_gaussian(params.n_texts * d).reshape(-1, d)
    noise = _unit_rows(noise)  # unit direction so noise_level is the offset radius
    texts = np.repeat(anchors, params.texts_per_image, axis=0)
    texts = _unit_rows(texts + params.noise_level * noise)

    protos = _unit_rows(rng.fill_gaussian(params.class_count * d).reshape(-1, d))
    labels = [int(i) for i in np.argmax(anchors @ protos.T, axis=1)]

    annotation = _annotation_for(params)
    ds = Dataset(params=params, images=images, texts=EmbeddingIndex(texts),
                 annotation=annotation, prototypes=EmbeddingIndex(protos),
                 labels=labels, encoder_hash=encoder_hash(enc))
    floor_check(ds, anchors)
    return ds


def floor_check(ds: Dataset, image_embeddings: np.ndarray) -> None:
    """Raise DegenerateDatasetError if the clean TR R@FLOOR_K of
    image_embeddings, the encoded ds.images, is below FLOOR_MULTIPLIER times
    chance."""
    k = min(FLOOR_K, len(ds.texts))
    matches = [ds.matches_of_image(i) for i in range(ds.params.n_images)]
    r = recall_at_k(EmbeddingIndex(image_embeddings), ds.texts, matches, k)
    # a recall cannot exceed 1, so neither may the floor on a small dataset
    threshold = min(1.0, FLOOR_MULTIPLIER * k / len(ds.texts))
    if r < threshold:
        raise DegenerateDatasetError(
            f"clean TR R@{k} = {r:.4f} below floor {threshold:.4f}; "
            "the decoder/encoder seed pairing yields chance-level retrieval")


def generate(params: DatasetParams, enc: Encoder, out_dir) -> tuple[Path, dict, str]:
    """Generate the dataset and write all files; returns the manifest's path,
    its contents and its SHA-256, which is the dataset hash."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = build_dataset(params, enc)

    files, sha256 = {}, {}
    for name, tensor in (("images", ds.images), ("texts", ds.texts.embeddings),
                         ("prototypes", ds.prototypes.embeddings)):
        files[name] = f"{name}.uapt"
        sha256[name] = tensor_io.write_tensor(out_dir / files[name], tensor)
    annotations = {str(v): sorted(ts) for v, ts in ds.annotation.image_to_texts.items()}
    for name, text in (("annotations", json.dumps(annotations, sort_keys=True)),
                       ("labels", json.dumps(ds.labels))):
        files[name] = f"{name}.json"
        sha256[name] = tensor_io.write_atomic(out_dir / files[name], text.encode())

    manifest = {"params": asdict(params), "files": files, "sha256": sha256,
                "encoder_hash": ds.encoder_hash}
    manifest_path = out_dir / "manifest.json"
    return manifest_path, manifest, tensor_io.write_json(manifest_path, manifest)


def _is_int_list(values) -> bool:
    # type(v) is int: a JSON float, string or true/false is not an index
    return isinstance(values, list) and all(type(v) is int for v in values)


def _annotation_from(raw, params: DatasetParams) -> MatchAnnotation:
    """Parse annotations.json, which maps image ids (as keys) to text id lists."""
    if not isinstance(raw, dict) or not all(
            key.isdecimal() and _is_int_list(ts) for key, ts in raw.items()):
        raise CorruptDatasetError("annotations must map image ids to text id lists")
    annotation = MatchAnnotation.from_image_lists(
        {int(key): ts for key, ts in raw.items()})
    if (set(annotation.image_to_texts) != set(range(params.n_images))
            or set(annotation.text_to_image) != set(range(params.n_texts))):
        raise CorruptDatasetError("annotation does not cover every image and text")
    return annotation


def load(manifest_path) -> Dataset:
    """Load and validate a generated dataset from its manifest."""
    manifest_path = Path(manifest_path)
    raw = manifest_path.read_bytes()
    try:
        manifest = json.loads(raw)
        p = manifest["params"]
        params = DatasetParams(**{f.name: p[f.name] for f in fields(DatasetParams)})

        def named(name):  # a file's path and its recorded hash
            return manifest_path.parent / manifest["files"][name], manifest["sha256"][name]

        images, texts, protos = (tensor_io.read_tensor(*named(name))
                                 for name in ("images", "texts", "prototypes"))
        raw_annotations = json.loads(tensor_io.read_verified(*named("annotations")))
        labels = json.loads(tensor_io.read_verified(*named("labels")))
    except MALFORMED_JSON_ERRORS as exc:
        raise IntegrityError(f"{manifest_path}: malformed manifest ({exc!r})") from exc

    if images.shape != (params.n_images, *params.image_shape):
        raise CorruptDatasetError("image tensor shape does not match manifest")
    # written so that a NaN, for which every comparison is false, fails it
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise CorruptDatasetError(f"{named('images')[0]}: image values not all in [0, 1]")
    if texts.shape != (params.n_texts, params.embed_dim):
        raise CorruptDatasetError("text tensor shape does not match manifest")
    if protos.shape != (params.class_count, params.embed_dim):
        raise CorruptDatasetError("prototype tensor shape does not match manifest")
    if (not _is_int_list(labels) or len(labels) != params.n_images
            or any(not 0 <= y < params.class_count for y in labels)):
        raise CorruptDatasetError("bad label list")

    annotation = _annotation_from(raw_annotations, params)
    try:
        texts_index = EmbeddingIndex(texts)
        protos_index = EmbeddingIndex(protos)
    except InvalidArgumentError as exc:
        raise CorruptDatasetError(str(exc)) from exc

    return Dataset(params=params, images=images, texts=texts_index,
                   annotation=annotation, prototypes=protos_index,
                   labels=labels,
                   encoder_hash=manifest.get("encoder_hash", ""),
                   dataset_hash=hashlib.sha256(raw).hexdigest())

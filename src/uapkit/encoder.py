"""Differentiable image encoders with unit-norm embeddings.

Two kinds: a single linear map and a small fully-connected net (tanh or
relu), both followed by l2 normalization. Gradients are hand-derived; the
finite-difference checker keeps them honest. Weights come from the portable
LCG so any run of the same seed reproduces them exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import tensor_io
from .boundary import crossing_step
from .core import Carrier, as_tensor, clamp_unit
from .errors import (MALFORMED_JSON_ERRORS, DegenerateEncodingError,
                     IntegrityError, InvalidArgumentError)
from .rng import Lcg

KINDS = ("linear", "mlp")
ACTIVATIONS = ("tanh", "relu")
# the Encoder fields an encoder.json manifest records, besides the weights
ARCHITECTURE = ("kind", "input_shape", "embed_dim", "layer_widths", "activation", "seed")
_ZERO_NORM = 1e-12
_BLOCK_ROWS = 128  # images per block of a patch batch's first-layer cache


def _layer_dims(kind, input_shape, embed_dim, layer_widths, activation) -> list[int]:
    """[n_inputs, *layer_widths, embed_dim] of a valid architecture; anything
    else raises InvalidArgumentError, or TypeError for a size that is no int."""
    if kind not in KINDS:
        raise InvalidArgumentError(f"unknown encoder kind {kind!r}")
    if activation not in ACTIVATIONS:
        raise InvalidArgumentError(f"unknown activation {activation!r}")
    if kind == "linear" and layer_widths:
        raise InvalidArgumentError("linear encoder takes no layer_widths")
    sizes = [*map(operator.index, input_shape), *map(operator.index, layer_widths),
             operator.index(embed_dim)]
    if len(input_shape) != 3 or min(sizes) < 1:
        raise InvalidArgumentError("bad input_shape, layer_widths or embed_dim")
    return [math.prod(sizes[:3]), *sizes[3:]]


@dataclass(frozen=True)
class Encoder:
    kind: str
    input_shape: tuple[int, int, int]
    embed_dim: int
    layer_widths: tuple[int, ...]
    activation: str
    weights: tuple[np.ndarray, ...]  # per layer, shape (out, in)
    biases: tuple[np.ndarray, ...]
    seed: int

    def __post_init__(self):
        """Check the architecture, and that the weights chain through it."""
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layer_widths", tuple(self.layer_widths))
        dims = _layer_dims(self.kind, self.input_shape, self.embed_dim,
                           self.layer_widths, self.activation)
        if ([np.shape(W) for W in self.weights] != list(zip(dims[1:], dims[:-1]))
                or [np.shape(b) for b in self.biases] != [(d,) for d in dims[1:]]):
            raise InvalidArgumentError("weight shapes do not chain through the layers")

    @property
    def n_inputs(self) -> int:
        c, h, w = self.input_shape
        return c * h * w

    def manifest_dict(self) -> dict:
        return {key: getattr(self, key) for key in ARCHITECTURE}


def build_encoder(kind: str, input_shape, embed_dim: int, layer_widths=(),
                  activation: str = "tanh", seed: int = 0) -> Encoder:
    """Construct an encoder with seeded uniform(-a, a), a = sqrt(6/(fan_in+fan_out))."""
    input_shape = tuple(int(v) for v in input_shape)
    layer_widths = tuple(int(v) for v in layer_widths)
    dims = _layer_dims(kind, input_shape, embed_dim, layer_widths, activation)
    if not 0 <= operator.index(seed) < 2 ** 64:  # Lcg reads the seed mod 2^64
        raise InvalidArgumentError(f"seed {seed} not in [0, 2^64)")
    rng = Lcg(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        flat = rng.fill_uniform(fan_out * fan_in, -a, a)
        weights.append(flat.reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return Encoder(kind, input_shape, embed_dim, layer_widths, activation,
                   tuple(weights), tuple(biases), seed)


def default_toy_encoder() -> Encoder:
    """The benchmark encoder: mlp 3x32x32 -> [256, 128] -> 64, tanh, seed 42.
    Like a loaded encoder, its weights are read-only and it keeps their
    digests, so encoder_hash and save_encoder hash no weight again."""
    enc = build_encoder("mlp", (3, 32, 32), 64, (256, 128), "tanh", 42)
    return _keep_digests(enc, [tensor_io.tensor_sha256(t) for t in _arrays(enc)])


def _activate(name: str, s: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(s)
    return np.maximum(s, 0.0)  # relu; subgradient at 0 taken as 0 in backward


def _activate_grad(name: str, a: np.ndarray, rows) -> np.ndarray:
    """The activation's derivative at the rows of a layer's outputs a: for
    relu, a = max(s, 0) > 0 exactly where its pre-activation s > 0."""
    a = a.take(rows, axis=0)
    if name == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


@dataclass(frozen=True)
class ScoreGradient:
    value: float
    gradient: np.ndarray  # (c, h, w)


@dataclass
class ForwardCache:
    """Batched forward state kept around for a later backward pass."""
    embeddings: np.ndarray          # (B, d) unit rows
    norms: np.ndarray               # (B,) pre-normalization norms
    layers: list                    # per hidden layer, its activations


def _stack(enc: Encoder, s: np.ndarray, weights_t) -> ForwardCache:
    """Run the stack on from layer 1's pre-activations s (B, n1) and normalize
    each output row; weights_t holds W.T of each later layer, in a layout
    the caller picks: on a few rows, transposed views and contiguous copies
    can give products that differ in the last bit."""
    layers = []
    for Wt, b in zip(weights_t, enc.biases[1:]):
        a = _activate(enc.activation, s)
        layers.append(a)
        s = a @ Wt + b
    norms = np.sqrt(np.add.reduce(s * s, axis=1))  # np.linalg.norm's own sum
    if np.count_nonzero(norms < _ZERO_NORM):
        raise DegenerateEncodingError("pre-normalization output is zero")
    return ForwardCache(embeddings=s / norms[:, None], norms=norms, layers=layers)


def _forward(enc: Encoder, images: np.ndarray) -> ForwardCache:
    """Validate a (B, c, h, w) batch and run the whole stack on it."""
    images = as_tensor(images)
    if images.shape[1:] != enc.input_shape:
        raise InvalidArgumentError(
            f"expected images of shape (B,)+{enc.input_shape}, got {images.shape}")
    x = images.reshape(images.shape[0], -1)
    return _stack(enc, x @ enc.weights[0].T + enc.biases[0],
                  [W.T for W in enc.weights[1:]])


def encode_batch(enc: Encoder, images: np.ndarray) -> np.ndarray:
    """Encode (B, c, h, w) images to (B, embed_dim) unit-norm rows."""
    return _forward(enc, images).embeddings


def _layer1_gradient(enc: Encoder, cache: ForwardCache, us: np.ndarray,
                     rows) -> np.ndarray:
    """Gradients of u_j . normalize(pre_norm) with respect to layer 1's
    pre-activations at cached row rows[j], one row per us row."""
    rows = np.asarray(rows, dtype=np.intp)
    e, norms = cache.embeddings.take(rows, axis=0), cache.norms.take(rows)
    values = np.add.reduce(us * e, axis=1)
    # normalization Jacobian: d(u.e)/dz = (u - (u.e) e) / ||z||
    g = (us - values[:, None] * e) / norms[:, None]
    for i in range(len(enc.weights) - 1, 0, -1):
        g = (g @ enc.weights[i]) * _activate_grad(enc.activation, cache.layers[i - 1], rows)
    return g


def backward_from_cache(enc: Encoder, cache: ForwardCache, us: np.ndarray,
                        rows) -> np.ndarray:
    """Input-gradients of u_j . normalize(pre_norm(image)) at cached row
    rows[j], one per row of us (B', d)."""
    g = _layer1_gradient(enc, cache, us, rows) @ enc.weights[0]
    return g.reshape((g.shape[0],) + enc.input_shape)


class PerturbedBatch:
    """The images of one attack under a carrier, encoded with the first layer
    factored around the pixels the carrier moves.

    Every point it encodes is carrier.apply(images[row], delta) + pixels(step),
    for delta = self.delta, the read-only copy the last set_delta kept (zero
    at first), and a step in the batch's step coordinates. Layer 1's
    pre-activation W1.x + b1 is cached per image once; in patch mode it leaves
    out the on-mask pixels, which every image shares. Each delta adds W1
    times itself to a copy of it, every image's first layer at the delta.
    clean() reads the images as given, with no delta, off the same cache.
    Layers 2 on multiply by contiguous copies of W.T, which on a few rows is
    several times faster than the transposed views of _forward. clean and
    forward_points agree with _forward at those points up to rounding, and
    step with crossing_step of backward_from_cache.

    Every input gradient is W1^T u for a vector u over W1's rows, restricted
    to the pixels the carrier moves, and so is every sum of crossing steps.
    So where those pixels outnumber W1's rows (global mode, or a large
    patch), a step is the vector a over W1's rows with pixels(a) = W1^T a,
    and a call adds G a, G = W1 W1^T over the moved pixels, built once on
    the first step. Otherwise (a patch of at most as many pixels as W1 has
    rows, such as the default 75) a step is the vector of its values on the
    moved pixels, in np.flatnonzero(mask) order, and a call adds W1 times
    it over those pixels. Either way the scales of one step share one
    product, and a step of None costs none; only pixels, once per commit,
    and set_delta reach every pixel of the image.
    """

    def __init__(self, enc: Encoder, images: np.ndarray, carrier: Carrier):
        images = as_tensor(images)
        if images.ndim != 4 or images.shape[1:] != enc.input_shape:
            raise InvalidArgumentError(
                f"expected images of shape (N,)+{enc.input_shape}, got {images.shape}")
        if carrier.mode == "patch" and carrier.mask.shape != enc.input_shape:
            raise InvalidArgumentError(
                f"mask shape {carrier.mask.shape} does not match {enc.input_shape}")
        self.enc, self.carrier, self.images = enc, carrier, images
        W1, b1 = enc.weights[0], enc.biases[0]
        flat = self._flat = images.reshape(len(images), -1)
        if carrier.mode == "patch":
            self._on = np.flatnonzero(carrier.mask)
            # the patch replaces the on-mask pixels, apply clamps the rest,
            # one block of rows at a time in one buffer, so no clamped copy
            # of every image is made. A row's product does not depend on the
            # rows beside it, but numpy sends a one-row product to gemv,
            # whose bits differ: the blocks are even, and none has one row
            # unless all do.
            n = len(flat)
            blocks = -(-n // _BLOCK_ROWS)
            edges = [n * i // blocks for i in range(blocks + 1)]
            buffer = np.empty((-(-n // blocks), flat.shape[1]))
            self._base = np.empty((n, len(b1)))
            for lo, hi in zip(edges, edges[1:]):
                block = np.clip(flat[lo:hi], 0.0, 1.0, out=buffer[:hi - lo])
                block[:, self._on] = 0.0
                np.matmul(block, W1.T, out=self._base[lo:hi])
            self._base += b1
        else:
            self._on = slice(None)
            self._lo, self._hi = flat.min(axis=1), flat.max(axis=1)
            self._base = flat @ W1.T + b1
        self._w = np.ascontiguousarray(W1[:, self._on])
        self._in_rows = self._w.shape[1] > self._w.shape[0]
        self._weights_t = [np.ascontiguousarray(W.T) for W in enc.weights[1:]]
        self._all_rows = np.arange(len(images))
        self._clean = None
        self.set_delta(np.zeros(enc.input_shape))

    def set_delta(self, delta: np.ndarray) -> None:
        """Check delta and keep a read-only copy of it as self.delta, the one
        delta of the calls that follow."""
        self.delta = as_tensor(delta, shape=self.enc.input_shape).copy()
        self.delta.flags.writeable = False
        self._gallery = None
        d = self.delta.ravel()
        if self.carrier.mode == "patch":
            self._at_delta = self._base + self._w @ clamp_unit(d[self._on])
            return
        self._at_delta = self._base + self._w @ d
        # x + d cannot leave [0, 1] where even the extreme pixels stay inside;
        # floating-point addition is monotone, so the bound is exact
        self._may_clamp = (self._lo + d.min() < 0.0) | (self._hi + d.max() > 1.0)

    def gallery(self) -> ForwardCache:
        """Every image under delta, encoded once per delta with the state
        step differentiates; the embeddings are read-only. Its rows at delta
        stand in for the rows of any point at a zero step."""
        if self._gallery is None:
            self._gallery = self.forward_points(self._all_rows)
            self._gallery.embeddings.flags.writeable = False
        return self._gallery

    def clean(self) -> ForwardCache:
        """Every image as given, with no delta, encoded once from the cached
        first layer (read-only embeddings). In patch mode the cache gains
        W1 times the on-mask pixels, and an image whose other pixels the
        clamp moved is multiplied out in full."""
        if self._clean is None:
            x, z = self._flat, self._base
            if self.carrier.mode == "patch":
                z = z + x[:, self._on] @ self._w.T
                moved = (x.min(axis=1) < 0.0) | (x.max(axis=1) > 1.0)
                z[moved] = x[moved] @ self.enc.weights[0].T + self.enc.biases[0]
            self._clean = _stack(self.enc, z, self._weights_t)
            self._clean.embeddings.flags.writeable = False
        return self._clean

    def forward_points(self, rows, step=None, scales=(1.0,)) -> ForwardCache:
        """Encode carrier.apply(images[rows], delta) + s * step for each
        scale s in one pass, keeping state for step: the cache holds the
        rows of scales[0] first, then those of scales[1], and so on.

        The points share one product W1 . step over the pixels the carrier
        moves, and a step of None costs none. The step is trusted, not
        checked: a finite float64 vector in this batch's step coordinates,
        as an attack builds it from this batch's own step; set_delta checks
        whatever the steps add up to.
        """
        rows = np.asarray(rows, dtype=np.intp)
        z = self._at_delta.take(rows, axis=0)
        if self.carrier.mode == "global":
            clamps = self._may_clamp[rows]
            if clamps.any():  # W1 (clamp(v) - v) for the pixels the clamp moved
                raw = self._flat[rows[clamps]] + self.delta.ravel()
                z[clamps] += (clamp_unit(raw) - raw) @ self._w.T
        if step is not None:
            shift = self._gram @ step if self._in_rows else self._w @ step
            # z + s * shift for each scale s, block after block
            z = (z + np.multiply.outer(scales, shift)[:, None]).reshape(-1, z.shape[1])
        elif len(scales) > 1:
            z = np.tile(z, (len(scales), 1))
        return _stack(self.enc, z, self._weights_t)

    def zero_step(self) -> np.ndarray:
        """The zero step in this batch's step coordinates."""
        return np.zeros(self._w.shape[0] if self._in_rows else self._w.shape[1])

    def step(self, cache: ForwardCache, us: np.ndarray, rows,
             gap: float) -> np.ndarray | None:
        """boundary.crossing_step along the gradient of sum_j us[j] .
        e[rows[j]] with respect to the pixels every row shares, and gap, in
        this batch's step coordinates: None at a degenerate boundary. rows
        names one cached row per row of us."""
        u = _layer1_gradient(self.enc, cache, us, rows).sum(axis=0)
        if self._in_rows:  # ||W1^T u||^2 = u . G u
            return crossing_step(u, gap, float(np.vdot(u, self._gram @ u)))
        # a pixel step's norm is summed over the image, as crossing_step of
        # the image-shaped gradient sums it
        g = u @ self._w
        p = self.pixels(g)
        return crossing_step(g, gap, float(np.vdot(p, p)))

    def pixels(self, step: np.ndarray) -> np.ndarray:
        """The image-shaped step that a step in this batch's coordinates
        adds to every point, zero off the pixels the carrier moves."""
        g = np.zeros(self.enc.n_inputs)
        g[self._on] = step @ self._w if self._in_rows else step
        return g.reshape(self.enc.input_shape)

    @cached_property
    def _gram(self) -> np.ndarray:
        """G = W1 W1^T over the pixels the carrier moves, built once."""
        return self._w @ self._w.T


def score_with_gradient(enc: Encoder, image: np.ndarray,
                        text_embedding: np.ndarray) -> ScoreGradient:
    """Cosine score f(v) = t . E(v) and its exact gradient w.r.t. the pixels."""
    t = as_tensor(text_embedding, shape=(enc.embed_dim,))
    if abs(np.linalg.norm(t) - 1.0) > 1e-6:
        raise InvalidArgumentError("text embedding must be unit-norm")
    cache = _forward(enc, as_tensor(image, shape=enc.input_shape)[None])
    return ScoreGradient(value=float(t @ cache.embeddings[0]),
                         gradient=backward_from_cache(enc, cache, t[None], [0])[0])


def gradcheck(enc: Encoder, image: np.ndarray, text_embedding: np.ndarray,
              n_probes: int = 50, step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    at n_probes coordinates, drawn with numpy's default_rng(seed), the one
    draw outside rng.Lcg."""
    if operator.index(n_probes) < 1:
        raise InvalidArgumentError(f"n_probes must be at least 1, got {n_probes}")
    if not 0 < step < np.inf:  # False for NaN
        raise InvalidArgumentError(f"step must be positive and finite, got {step}")
    if operator.index(seed) < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    sg = score_with_gradient(enc, image, text_embedding)
    flat_grad = sg.gradient.ravel()
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, flat_grad.size, size=n_probes)
    worst = 0.0
    base = image.ravel().copy()
    for idx in coords:
        bumped = base.copy()
        bumped[idx] += step
        hi = float(text_embedding @ encode_batch(enc, bumped.reshape(1, *enc.input_shape))[0])
        bumped[idx] = base[idx] - step
        lo = float(text_embedding @ encode_batch(enc, bumped.reshape(1, *enc.input_shape))[0])
        fd = (hi - lo) / (2.0 * step)
        analytic = float(flat_grad[idx])
        err = abs(analytic - fd) / max(abs(analytic), 1e-12)
        worst = max(worst, err)
    return worst


# -- serialization ----------------------------------------------------------

def _arrays(enc: Encoder) -> list[np.ndarray]:
    """The weights and biases in the order of their files: w0, b0, w1, b1, ..."""
    return [t for layer in zip(enc.weights, enc.biases) for t in layer]


def _keep_digests(enc: Encoder, digests) -> Encoder:
    """Make enc's weights read-only and keep digests, the SHA-256 of each
    of its UAPT files in _arrays order, for encoder_hash and save_encoder."""
    for array in _arrays(enc):
        array.flags.writeable = False
    object.__setattr__(enc, "_digests", tuple(digests))
    return enc


def _kept_digests(enc: Encoder) -> tuple[str, ...] | None:
    """The digests enc keeps while its weights stay read-only, else None."""
    digests = getattr(enc, "_digests", None)
    if digests is None or any(t.flags.writeable for t in _arrays(enc)):
        return None
    return digests


def save_encoder(enc: Encoder, manifest_path) -> None:
    """Write manifest JSON plus per-layer UAPT weight files; the weights
    of an encoder that keeps its digests are written without hashing."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    digests = iter(_kept_digests(enc) or [None] * len(_arrays(enc)))
    layers = []
    for i, (W, b) in enumerate(zip(enc.weights, enc.biases)):
        w_name, b_name = f"w{i}.uapt", f"b{i}.uapt"
        layers.append({
            "weight": w_name,
            "bias": b_name,
            "weight_sha256": tensor_io.write_tensor(manifest_path.parent / w_name, W,
                                                    next(digests)),
            "bias_sha256": tensor_io.write_tensor(manifest_path.parent / b_name, b,
                                                  next(digests)),
        })
    tensor_io.write_json(manifest_path, enc.manifest_dict() | {"layers": layers})


def load_encoder(manifest_path) -> Encoder:
    """Read an encoder manifest and its weights; a malformed manifest, a
    missing or altered weight file, or weights that do not fit the
    architecture raise IntegrityError. The weight arrays are read-only, and
    the encoder keeps the file digests that read_tensor verified, from which
    encoder_hash builds its identity without hashing a weight again."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_bytes())
        root, layers = manifest_path.parent, manifest["layers"]
        digests = tuple(layer[key] for layer in layers
                        for key in ("weight_sha256", "bias_sha256"))
        weights = tuple(tensor_io.read_tensor(root / layer["weight"], layer["weight_sha256"])
                        for layer in layers)
        biases = tuple(tensor_io.read_tensor(root / layer["bias"], layer["bias_sha256"])
                       for layer in layers)
        enc = Encoder(**{key: manifest[key] for key in ARCHITECTURE},
                      weights=weights, biases=biases)
    except (*MALFORMED_JSON_ERRORS, InvalidArgumentError) as exc:
        raise IntegrityError(f"{manifest_path}: malformed manifest ({exc!r})") from exc
    return _keep_digests(enc, digests)


def encoder_hash(enc: Encoder) -> str:
    """The encoder's identity: the SHA-256 of its canonical architecture JSON
    (manifest_dict, keys sorted) followed by the hex SHA-256 of each layer's
    UAPT file in the order w0, b0, w1, b1, ... A loaded or built-in encoder
    reuses the digests it keeps while its weights stay read-only; any other
    encoder hashes its weights the way write_tensor would."""
    digests = _kept_digests(enc) or [tensor_io.tensor_sha256(t) for t in _arrays(enc)]
    h = hashlib.sha256(json.dumps(enc.manifest_dict(), sort_keys=True).encode())
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()

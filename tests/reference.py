"""ReferenceBatch, the attack computed the plain way: the tests' one oracle
for PerturbedBatch. DeepFool and UAP Alg. 1 define the attack on the image
as the model sees it, carrier.apply(x, delta) encoded whole; this batch
computes each member run_attack reads from that, with _forward's full first
layer and pixel steps from backward_from_cache.

Outside the attack and its reports, encode_batch, score_with_gradient and
gradcheck run the whole stack through _forward, which hands _stack the
transposed views of the later layers' weights; gen encodes its text
anchors with them, and gradcheck audits them. PerturbedBatch's factored
rows, gallery and clean rows must match this batch's to 1e-12 and its
steps to rtol 1e-10 (test_batch_matches_the_reference and test_encoder.py's
factored-layer tests). A whole attack run on either must give the same
records and epoch metrics, and delta and each commit's norms within
1e-12 (test_attack_matches_the_reference, and
test_global_epoch_equals_the_pixel_step_reference on the standard
benchmark, whose global steps PerturbedBatch takes over W1's rows)."""

import numpy as np

from uapkit.boundary import crossing_step
from uapkit.core import as_tensor
from uapkit.encoder import _forward, backward_from_cache


class ReferenceBatch:
    """Every point is _forward(enc, carrier.apply(images[rows], delta) +
    s * step), and every step is in pixels, zero where the carrier moves
    nothing."""

    def __init__(self, enc, images, carrier):
        self.enc, self.images, self.carrier = enc, as_tensor(images), carrier
        self.set_delta(np.zeros(enc.input_shape))

    def set_delta(self, delta):
        self.delta = as_tensor(delta, shape=self.enc.input_shape).copy()
        self.delta.flags.writeable = False
        self._gallery = None

    def zero_step(self):
        return np.zeros(self.enc.input_shape)

    def pixels(self, step):
        return step

    def forward_points(self, rows, step=None, scales=(1.0,)):
        applied = self.carrier.apply(self.images[rows], self.delta)
        points = [applied if step is None else applied + s * step for s in scales]
        return _forward(self.enc, np.concatenate(points))

    def step(self, cache, us, rows, gap):
        g = backward_from_cache(self.enc, cache, us, rows).sum(axis=0)
        return crossing_step(g * self.carrier.mask if self.carrier.mode == "patch" else g, gap)

    def gallery(self):
        """Every image under delta, encoded once per delta."""
        if self._gallery is None:
            self._gallery = self.forward_points(range(len(self.images)))
        return self._gallery

    def clean(self):
        return _forward(self.enc, self.images)

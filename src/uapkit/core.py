"""Dense float64 tensor helpers: norms, projections, clamping, and the Carrier
that puts delta on images.

All functions are pure and operate on C-contiguous float64 numpy arrays.
There is deliberately no broadcasting: every shape mismatch raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

PATCH_AREA_DEFAULT = 0.03  # the default patch's share of the image plane
NORM_SLACK = 1e-12  # relative budget slack: Carrier.check accepts what project_l2 returns


def as_tensor(values, shape=None) -> np.ndarray:
    """Coerce to a finite, C-contiguous float64 array; optionally enforce a shape."""
    t = np.ascontiguousarray(values, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise InvalidArgumentError("tensor contains NaN or Inf")
    if shape is not None and t.shape != tuple(shape):
        raise InvalidArgumentError(f"expected shape {tuple(shape)}, got {t.shape}")
    return t


def require_same_shape(*tensors: np.ndarray) -> None:
    shapes = {t.shape for t in tensors}
    if len(shapes) > 1:
        raise InvalidArgumentError(f"shape mismatch: {sorted(shapes)}")


def project_l2(delta: np.ndarray, epsilon: float) -> np.ndarray:
    """Project onto the l2 ball of radius epsilon; identity inside the ball."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    norm = np.linalg.norm(delta)
    # the relative slack makes the projection an exact fixed point: rescaling
    # can leave the recomputed norm a few ulps above epsilon
    if norm > epsilon * (1.0 + NORM_SLACK):
        return delta * (epsilon / norm)
    return delta.copy()


def project_linf(delta: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise clamp to [-epsilon, epsilon]."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    return np.clip(delta, -epsilon, epsilon)


def clamp_unit(t: np.ndarray) -> np.ndarray:
    """Elementwise clamp to the valid pixel range [0, 1]."""
    return np.clip(t, 0.0, 1.0)


def validate_mask(mask: np.ndarray) -> np.ndarray:
    """Check a binary (c, h, w) mask that is identical across channels."""
    if mask.ndim != 3:
        raise InvalidArgumentError(f"mask must be rank 3 (c,h,w), got rank {mask.ndim}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InvalidArgumentError("mask must be exactly binary")
    if mask.shape[0] > 1 and not np.all(mask == mask[0:1]):
        raise InvalidArgumentError("mask must be identical across channels")
    return mask


@dataclass(frozen=True, eq=False)
class Carrier:
    """Every patch/global rule: a patch replaces the pixels under a binary
    mask and stays in [0, 1]; a global delta is added to whole images and
    stays in the l2 or linf ball of radius epsilon."""
    mode: str                         # "patch" | "global"
    mask: np.ndarray | None = None    # patch mode
    norm: str | None = None           # "l2" | "linf", global mode
    epsilon: float | None = None      # global mode budget

    def __post_init__(self):
        if self.mode == "patch":
            if self.mask is None:
                raise InvalidArgumentError("patch mode requires a mask")
            if self.norm is not None or self.epsilon is not None:
                raise InvalidArgumentError("norm/epsilon are global-mode options")
            validate_mask(self.mask)
        elif self.mode == "global":
            if self.mask is not None:
                raise InvalidArgumentError("mask is a patch-mode option")
            if self.norm not in ("l2", "linf"):
                raise InvalidArgumentError("global mode requires norm in {l2, linf}")
            if self.epsilon is None or not 0 < self.epsilon < np.inf:  # False for NaN
                raise InvalidArgumentError(f"epsilon {self.epsilon} not in (0, inf)")
        else:
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")

    def apply(self, images: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Put delta on a (B, c, h, w) batch, clamped to [0, 1]: it replaces the
        pixels under the mask (patch) or is added (global)."""
        if images.shape[1:] != delta.shape or (self.mode == "patch"
                                               and self.mask.shape != delta.shape):
            raise InvalidArgumentError(
                f"delta shape {delta.shape} does not match images {images.shape} or mask")
        if self.mode == "global":
            return clamp_unit(images + delta[None])
        return clamp_unit(np.where(self.mask[None] == 1.0, delta[None], images))

    def commit(self, delta: np.ndarray, step: np.ndarray) -> np.ndarray:
        """delta + step, clamped to [0, 1] (patch) or projected onto the ball."""
        if self.mode == "patch":
            return clamp_unit(delta + step)
        if self.norm == "l2":
            return project_l2(delta + step, self.epsilon)
        return project_linf(delta + step, self.epsilon)

    def check(self, delta: np.ndarray) -> None:
        """Reject a patch outside [0, 1] under the mask or a global delta over budget."""
        if self.mode == "patch":
            require_same_shape(delta, self.mask)
            patch_vals = delta[self.mask == 1.0]
            if patch_vals.size and (patch_vals.min() < 0.0 or patch_vals.max() > 1.0):
                raise InvalidArgumentError("delta values under the mask must lie in [0, 1]")
            return
        with np.errstate(over="ignore"):  # a huge finite delta has norm inf
            size = (np.linalg.norm(delta) if self.norm == "l2"
                    else np.abs(delta).max(initial=0.0))
        if size > self.epsilon * (1.0 + NORM_SLACK):
            raise InvalidArgumentError(
                f"global delta {self.norm} norm {size} exceeds epsilon {self.epsilon}")

    def to_json_dict(self) -> dict:
        """The mode, plus norm and epsilon in global mode; callers record the mask."""
        if self.mode == "patch":
            return {"mode": "patch"}
        return {"mode": "global", "norm": self.norm, "epsilon": self.epsilon}


def apply_patch(image: np.ndarray, delta: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace the masked region of image with delta; off-mask pixels bit-identical."""
    if image.ndim != 3:
        raise InvalidArgumentError(f"image must be rank 3 (c,h,w), got rank {image.ndim}")
    if image.size and (image.min() < 0.0 or image.max() > 1.0):
        raise InvalidArgumentError("image values outside [0, 1]")
    require_same_shape(image, delta)
    carrier = Carrier("patch", mask)
    carrier.check(delta)
    return carrier.apply(image[None], delta)[0]


def square_patch_mask(image_shape: tuple[int, int, int], side: int,
                      offset: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Square patch mask anchored at the bottom-right corner.

    offset = (dy, dx) shifts the patch's bottom-right corner away from the
    image's bottom-right corner (nonnegative values move up/left).
    """
    c, h, w = image_shape
    if len(offset) != 2:
        raise InvalidArgumentError(f"offset {offset} is not (dy, dx)")
    dy, dx = offset
    if side <= 0 or side + dy > h or side + dx > w or dy < 0 or dx < 0:
        raise InvalidArgumentError("patch does not fit inside the image")
    mask = np.zeros((c, h, w), dtype=np.float64)
    y1, x1 = h - dy, w - dx
    mask[:, y1 - side:y1, x1 - side:x1] = 1.0
    return mask


def patch_side_for_area(image_shape: tuple[int, int, int],
                        area_fraction: float = PATCH_AREA_DEFAULT) -> int:
    """Side length of a square covering area_fraction of the h*w plane."""
    _, h, w = image_shape
    side = int(math.floor(math.sqrt(area_fraction * h * w)))
    if side < 1:
        raise InvalidArgumentError("image too small for the requested patch area")
    return side

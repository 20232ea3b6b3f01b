"""Exact decision-boundary geometry for linear classifiers.

Covers the binary point-to-plane case, the multiclass nearest-boundary
minimal perturbation, and the iterative boundary crossing loop
(`accumulate`). The top-k crossing here and both attack inner loops run it
under one step rule, from the best-scoring match toward the lowest-scoring
candidate (topk_pair), and one stopping rule: the match scores strictly
below every candidate (retrieval.match_ranks' rank rule).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import as_tensor
from .errors import InvalidArgumentError, PreconditionError

DEGENERATE_DENOM = 1e-12
# why accumulate stops; the first two are the converged ones
STOP_REASONS = ("fooled_at_entry", "fooled", "max_iters", "degenerate")
FOOLED = STOP_REASONS[:2]


@dataclass(frozen=True)
class LinearClassifier:
    """Score functions f_i(x) = weights[i] . x + offsets[i]."""

    weights: np.ndarray  # (C, n)
    offsets: np.ndarray  # (C,)

    def __post_init__(self):
        w = as_tensor(self.weights)
        b = as_tensor(self.offsets)
        if w.ndim != 2 or w.shape[0] < 2 or w.shape[1] < 1:
            raise InvalidArgumentError("weights must be (C>=2, n>=1)")
        if b.shape != (w.shape[0],):
            raise InvalidArgumentError("offsets must have shape (C,)")
        # reject degenerate (duplicate) boundaries up front
        for i in range(w.shape[0]):
            for j in range(i + 1, w.shape[0]):
                if np.array_equal(w[i], w[j]):
                    raise InvalidArgumentError(f"weight rows {i} and {j} are identical")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", b)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.offsets

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.scores(x)))


@dataclass
class CrossingReport:
    perturbation: np.ndarray
    iterations: int
    crossed_indices: set[int] = field(default_factory=set)
    converged: bool = False


def binary_distance(w: np.ndarray, b: float, x: np.ndarray) -> float:
    """Point-to-plane distance |w.x + b| / ||w||."""
    w = as_tensor(w)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise InvalidArgumentError("weight vector is zero")
    return float(abs(float(w @ x) + b) / norm)


def binary_min_perturbation(w: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    """Shortest r with w.(x+r) + b = 0: the orthogonal drop onto the plane,
    crossing_step's closed form; ||w|| < DEGENERATE_DENOM is rejected."""
    w = as_tensor(w)
    step = crossing_step(w, -(float(w @ x) + b))
    if step is None:
        raise InvalidArgumentError("weight vector is (numerically) zero")
    return step


def crossing_step(diff: np.ndarray, gap: float, sq: float | None = None) -> np.ndarray | None:
    """Closed-form step (gap / ||diff||^2) * diff onto a linear(ized) boundary,
    with diff = grad(f_target - f_true) and gap = f_true - f_target (positive
    while uncrossed); None when ||diff|| < DEGENERATE_DENOM. sq is ||diff||^2
    as the caller measures it, when diff stands for another vector (its
    coordinates, or its entries on a support); vdot(diff, diff) by default."""
    if sq is None:
        sq = float(np.vdot(diff, diff))
    if sq < DEGENERATE_DENOM ** 2:
        return None
    return (gap / sq) * diff


def topk_pair(scores: np.ndarray, matches, candidates):
    """The (match, candidate) a top-k crossing steps between: the best-scoring
    match and the lowest-scoring candidate, each tie broken toward the first
    in the order given (ascending id, as every caller gives them)."""
    return matches[scores[matches].argmax()], candidates[scores[candidates].argmin()]


def accumulate(r: np.ndarray, probe, max_iters: int):
    """Sum crossing steps onto r until it is fooled; returns (r, iterations,
    reason), reason being why the loop stopped: "fooled_at_entry" (at the
    incoming r), "fooled", "max_iters" or "degenerate".

    probe(r) returns (fooled, step): step() gives the crossing step from r,
    or None at a degenerate boundary, and is called only for a step the loop
    takes, so never once r is fooled or max_iters steps are spent.

    probe must be a pure function of r's bytes. Then an r that repeats an
    earlier one bit for bit starts an unfooled cycle that the loop would
    replay until max_iters; accumulate returns what that loop returns
    without probing again. So probe is called once per distinct visited r,
    and iterations counts the loop-equivalent iterations, not the probes,
    and the r returned is always one probe saw. The visited r's (at most
    max_iters + 1) are kept until the call returns.
    """
    path, seen = [], {}  # the visited r's, and each one's index by its bytes
    iterations = 0
    while True:
        j = seen.setdefault(r.tobytes(), iterations)
        if j < iterations:
            return path[j + (max_iters - j) % (iterations - j)], max_iters, "max_iters"
        path.append(r)
        fooled, step_at = probe(r)
        if fooled:
            return r, iterations, "fooled" if iterations else "fooled_at_entry"
        if iterations >= max_iters:
            return r, iterations, "max_iters"
        step = step_at()
        if step is None:
            return r, iterations, "degenerate"
        r = r + step
        iterations += 1


def _check_correctly_classified(clf: LinearClassifier, x: np.ndarray, y: int) -> np.ndarray:
    if not 0 <= y < clf.n_classes:
        raise InvalidArgumentError(f"class index {y} out of range")
    s = clf.scores(x)
    others = np.delete(s, y)
    if others.size and s[y] <= others.max():
        raise PreconditionError(f"x is not (strictly) classified as class {y}")
    return s


def nearest_boundary(clf: LinearClassifier, x: np.ndarray, y: int) -> int:
    """Index of the closest decision boundary by gap-over-gradient-norm ratio."""
    x = as_tensor(x)
    _check_correctly_classified(clf, x, y)
    return k_nearest_boundaries(clf, x, y, 1)[0]


def multiclass_min_perturbation(clf: LinearClassifier, x: np.ndarray, y: int) -> np.ndarray:
    """Minimal r moving x onto its nearest boundary: f_y(x+r) = f_l(x+r)."""
    x = as_tensor(x)
    s = _check_correctly_classified(clf, x, y)
    l = k_nearest_boundaries(clf, x, y, 1)[0]
    step = crossing_step(clf.weights[l] - clf.weights[y], float(s[y] - s[l]))
    if step is None:
        raise InvalidArgumentError("all boundaries are degenerate")
    return step


def k_nearest_boundaries(clf: LinearClassifier, x: np.ndarray, y: int, k: int) -> list[int]:
    """The k boundary indices i != y with the smallest crossing ratios
    (f_y - f_i) / ||w_y - w_i|| (degenerate rows last; ties: lowest index)."""
    s = clf.scores(x)
    denoms = np.linalg.norm(clf.weights[y][None, :] - clf.weights, axis=1)
    ratios = np.full(clf.n_classes, np.inf)
    ok = denoms >= DEGENERATE_DENOM
    ok[y] = False
    ratios[ok] = (s[y] - s[ok]) / denoms[ok]
    order = np.argsort(ratios, kind="stable")
    return order[order != y][:k].tolist()


def cross_k_boundaries(clf: LinearClassifier, x: np.ndarray, y: int, k: int,
                       eta: float = 0.02, max_iters: int | None = None) -> CrossingReport:
    """Accumulate r until the true class scores strictly below all k targets.

    The target set L is the k nearest boundaries at the initial point and is
    frozen. The library and the attack share one step and one stopping rule
    (see the module docstring): each iteration steps from y toward the member
    of L that scores lowest at x + r, a degenerate one ending the crossing,
    and the stopping test reads the overshoot x + (1 + eta) r. The returned
    perturbation is (1 + eta) * r, the overshoot applied exactly once.
    """
    x = as_tensor(x)
    _check_correctly_classified(clf, x, y)
    k = operator.index(k)
    if not 1 <= k <= clf.n_classes - 1:
        raise InvalidArgumentError(f"k={k} outside [1, C-1]")
    if not 0 < eta < np.inf:  # False for NaN
        raise InvalidArgumentError(f"eta must be positive and finite, got {eta}")
    max_iters = operator.index(50 * k if max_iters is None else max_iters)
    if max_iters <= 0:
        raise InvalidArgumentError("max_iters must be positive")

    targets = sorted(k_nearest_boundaries(clf, x, y, k))
    scored = {}  # each probed r's bytes -> its scores at the overshoot

    def probe(r_vec):
        s_probe = scored[r_vec.tobytes()] = clf.scores(x + (1.0 + eta) * r_vec)

        def step_at():
            s = clf.scores(x + r_vec)
            m, c = topk_pair(s, [y], targets)
            return crossing_step(clf.weights[c] - clf.weights[m], float(s[m] - s[c]))

        return s_probe[y] < s_probe[targets].min(), step_at

    r, iterations, reason = accumulate(np.zeros_like(x), probe, max_iters)
    s_final = scored[r.tobytes()]  # accumulate returns an r it probed
    return CrossingReport(
        perturbation=(1.0 + eta) * r,
        iterations=iterations,
        crossed_indices={l for l in targets if s_final[y] < s_final[l]},
        converged=reason in FOOLED,
    )

import numpy as np
import pytest

from uapkit import boundary
from uapkit.boundary import (LinearClassifier, accumulate, binary_distance,
                             binary_min_perturbation, cross_k_boundaries,
                             crossing_step, k_nearest_boundaries,
                             multiclass_min_perturbation, nearest_boundary)
from uapkit.errors import InvalidArgumentError, PreconditionError
from uapkit.retrieval import match_ranks


def random_classifier(rng, n_classes, n_features):
    return LinearClassifier(rng.standard_normal((n_classes, n_features)),
                            rng.standard_normal(n_classes))


# -- binary ------------------------------------------------------------------

def test_binary_axis_aligned():
    # plane x0 = 2, point at x0 = 5: distance 3, perturbation (-3, 0)
    w, b = np.array([1.0, 0.0]), -2.0
    x = np.array([5.0, 7.0])
    assert binary_distance(w, b, x) == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(binary_min_perturbation(w, b, x), [-3.0, 0.0])


def test_binary_lands_on_plane_and_matches_distance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 65)
        w = rng.standard_normal(n)
        b = float(rng.standard_normal())
        x = rng.standard_normal(n)
        r = binary_min_perturbation(w, b, x)
        assert abs(float(w @ (x + r)) + b) <= 1e-9 * np.linalg.norm(w)
        assert np.linalg.norm(r) == pytest.approx(binary_distance(w, b, x), abs=1e-9)


def test_binary_minimality_random_direction_oracle():
    # no perturbation of smaller norm reaches the plane: any direction needs
    # at least distance/|cos(angle to w)| >= distance
    rng = np.random.default_rng(1)
    w = rng.standard_normal(16)
    b = 0.7
    x = rng.standard_normal(16)
    f = float(w @ x) + b
    r_star = np.linalg.norm(binary_min_perturbation(w, b, x))
    for _ in range(100000):
        d = rng.standard_normal(16)
        proj = float(w @ d)
        if abs(proj) < 1e-12:
            continue
        t = -f / proj  # step length along d that reaches the plane
        assert abs(t) * np.linalg.norm(d) >= r_star - 1e-9


def test_binary_zero_weight_rejected():
    # a norm below DEGENERATE_DENOM counts as zero, as in multiclass_min_perturbation
    for norm in (0.0, 1e-13):
        for fn in (binary_min_perturbation, binary_distance):
            with pytest.raises(InvalidArgumentError):
                fn(np.array([norm, 0.0, 0.0]), 1.0, np.ones(3))


# -- multiclass --------------------------------------------------------------

def brute_force_min(clf, x, y):
    """Try the closed-form drop onto every boundary; return the shortest."""
    s = clf.scores(x)
    best = None
    for i in range(clf.n_classes):
        if i == y:
            continue
        w_diff = clf.weights[i] - clf.weights[y]
        sq = float(w_diff @ w_diff)
        if sq < 1e-24:
            continue
        r = ((s[y] - s[i]) / sq) * w_diff
        if best is None or np.linalg.norm(r) < np.linalg.norm(best):
            best = r
    return best


def test_multiclass_matches_brute_force():
    rng = np.random.default_rng(2)
    done = 0
    while done < 300:
        clf = random_classifier(rng, int(rng.integers(3, 21)), int(rng.integers(5, 21)))
        x = rng.standard_normal(clf.n_features)
        y = clf.predict(x)
        s = clf.scores(x)
        if sorted(s)[-1] - sorted(s)[-2] < 1e-9:
            continue
        r = multiclass_min_perturbation(clf, x, y)
        r_bf = brute_force_min(clf, x, y)
        assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(r_bf), abs=1e-9)
        # lands on the boundary of the selected class
        l = nearest_boundary(clf, x, y)
        s_after = clf.scores(x + r)
        assert s_after[y] == pytest.approx(s_after[l], abs=1e-6)
        done += 1


def test_nearest_boundary_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(300):
        clf = random_classifier(rng, 10, 8)
        x = rng.standard_normal(8)
        y = clf.predict(x)
        s = clf.scores(x)
        if sorted(s)[-1] - sorted(s)[-2] < 1e-9:
            continue
        ratios = [(s[y] - s[i]) / np.linalg.norm(clf.weights[y] - clf.weights[i])
                  if i != y else np.inf for i in range(10)]
        assert nearest_boundary(clf, x, y) == int(np.argmin(ratios))


def test_misclassified_input_rejected():
    clf = LinearClassifier(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(PreconditionError):
        multiclass_min_perturbation(clf, np.array([0.0, 1.0]), 0)


def test_duplicate_weight_rows_rejected():
    with pytest.raises(InvalidArgumentError):
        LinearClassifier(np.array([[1.0, 2.0], [1.0, 2.0]]), np.zeros(2))


# -- top-k crossing ----------------------------------------------------------

def rank_of_true(clf, x, y):
    s = clf.scores(x)
    return int(np.sum(s > s[y]))  # 0 = top


def test_k_nearest_boundaries_full_sort_oracle():
    rng = np.random.default_rng(4)
    clf = random_classifier(rng, 20, 10)
    x = rng.standard_normal(10)
    y = clf.predict(x)
    s = clf.scores(x)
    ratios = np.array([(s[y] - s[i]) / np.linalg.norm(clf.weights[y] - clf.weights[i])
                       if i != y else np.inf for i in range(20)])
    order = np.lexsort((np.arange(20), ratios))
    assert k_nearest_boundaries(clf, x, y, 5) == [int(i) for i in order[:5]]


def test_cross_k1_equals_closed_form_overshoot():
    # with k=1 the loop takes exactly the multiclass minimal step
    rng = np.random.default_rng(5)
    clf = random_classifier(rng, 6, 4)
    x = rng.standard_normal(4)
    y = clf.predict(x)
    rep = cross_k_boundaries(clf, x, y, k=1, eta=0.02)
    r_min = multiclass_min_perturbation(clf, x, y)
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.perturbation, 1.02 * r_min, atol=1e-12)


def test_cross_k_boundaries_rank_property():
    rng = np.random.default_rng(6)
    done = 0
    while done < 60:
        clf = random_classifier(rng, 50, 20)
        x = rng.standard_normal(20)
        y = clf.predict(x)
        s = clf.scores(x)
        if sorted(s)[-1] - sorted(s)[-2] < 1e-9:
            continue
        rep = cross_k_boundaries(clf, x, y, k=5, eta=0.02)
        assert rep.converged
        assert len(rep.crossed_indices) >= 5
        # full-sort oracle: the true score must fall below all 5 targets
        assert rank_of_true(clf, x + rep.perturbation, y) >= 5
        done += 1


def test_cross_k_overshoot_applied_once():
    # the pre-overshoot point x + r need not clear the boundaries; the
    # returned perturbation is exactly (1 + eta) * accumulated r
    rng = np.random.default_rng(7)
    clf = random_classifier(rng, 6, 4)
    x = rng.standard_normal(4)
    y = clf.predict(x)
    rep = cross_k_boundaries(clf, x, y, k=1, eta=0.5)
    r = rep.perturbation / 1.5
    s_at_r = clf.scores(x + r)
    l = nearest_boundary(clf, x, y)
    assert s_at_r[y] == pytest.approx(s_at_r[l], abs=1e-9)


def test_cross_k_scores_its_final_point_once(monkeypatch):
    # crossed_indices reads the last probe's scores, which a rescoring of
    # the final point reproduces
    rng = np.random.default_rng(9)
    scores, points = LinearClassifier.scores, []
    monkeypatch.setattr(LinearClassifier, "scores",
                        lambda self, x: points.append(x.tobytes()) or scores(self, x))
    for _ in range(30):
        clf = random_classifier(rng, 12, 5)
        x = rng.standard_normal(5)
        y = clf.predict(x)
        targets = k_nearest_boundaries(clf, x, y, 4)
        for max_iters in (1, 2, None):
            points.clear()
            rep = cross_k_boundaries(clf, x, y, k=4, eta=0.02, max_iters=max_iters)
            final = x + rep.perturbation
            assert points.count(final.tobytes()) == 1
            s = scores(clf, final)
            assert rep.crossed_indices == {l for l in targets if s[y] < s[l]}


def test_cross_k_invalid_args():
    rng = np.random.default_rng(8)
    clf = random_classifier(rng, 5, 3)
    x = rng.standard_normal(3)
    y = clf.predict(x)
    with pytest.raises(InvalidArgumentError):
        cross_k_boundaries(clf, x, y, k=0)
    with pytest.raises(InvalidArgumentError):
        cross_k_boundaries(clf, x, y, k=5)
    for eta in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="eta"):
            cross_k_boundaries(clf, x, y, k=1, eta=eta)
    # counts must be integers
    with pytest.raises(TypeError):
        cross_k_boundaries(clf, x, y, k=2.0)
    with pytest.raises(TypeError):
        cross_k_boundaries(clf, x, y, k=2, max_iters=2.5)


def test_cross_k_steps_toward_the_lowest_scoring_target(monkeypatch):
    # each step's diff is w_c - w_y for the target c that scores lowest at
    # x + r (ties: lowest id), the candidate attack._cross steps toward
    diffs = []
    monkeypatch.setattr(boundary, "crossing_step",
                        lambda diff, gap: diffs.append(diff) or crossing_step(diff, gap))
    rng = np.random.default_rng(10)
    for _ in range(40):
        clf = random_classifier(rng, 30, 10)
        x = rng.standard_normal(10)
        y = clf.predict(x)
        targets = k_nearest_boundaries(clf, x, y, 5)
        diffs.clear()
        rep = cross_k_boundaries(clf, x, y, k=5, eta=0.02)
        assert rep.converged and len(diffs) == rep.iterations
        r = np.zeros(10)  # replay the crossing from the oracle's choices
        for diff in diffs:
            s = clf.scores(x + r)
            c = min(targets, key=lambda l: (s[l], l))
            np.testing.assert_array_equal(diff, clf.weights[c] - clf.weights[y])
            r = r + crossing_step(diff, float(s[y] - s[c]))
        np.testing.assert_array_equal(rep.perturbation, 1.02 * r)


def test_cross_k_ends_at_a_degenerate_lowest_target():
    # target 2 runs parallel to class 0 (||w_2 - w_0|| < DEGENERATE_DENOM) and
    # scores lowest, so the first step, toward it, is degenerate; y itself is
    # never a target, though its ratio is +inf like a degenerate row's
    clf = LinearClassifier(np.array([[1.0, 0.0], [0.0, 1.0], [1.0 + 1e-13, 0.0]]),
                           np.array([5.0, 0.0, -5.0]))
    assert k_nearest_boundaries(clf, np.zeros(2), 0, 2) == [1, 2]
    rep = cross_k_boundaries(clf, np.zeros(2), 0, k=2)
    assert (rep.iterations, rep.converged, rep.crossed_indices) == (0, False, set())
    assert not rep.perturbation.any()


def test_cross_k_fooled_test_is_the_rank_rule(monkeypatch):
    # with W = I, b = 0 and eta = 1 the probe's scores are x + 2r exactly, so
    # small integer points force ties with f_y; r is fooled iff y, ranked
    # first among its targets, is outranked by all k (match_ranks' rule)
    probes = []

    def capture(r, probe, max_iters):
        probes.append(probe)
        probe(r)
        return r, 0, "max_iters"

    monkeypatch.setattr(boundary, "accumulate", capture)
    rng = np.random.default_rng(11)
    C, k = 8, 3
    clf = LinearClassifier(np.eye(C), np.zeros(C))
    ties = 0
    for _ in range(300):
        y = int(rng.integers(C))
        x = rng.integers(-2, 3, C).astype(float)
        x[y] = 3.0
        targets = sorted(k_nearest_boundaries(clf, x, y, k))
        cross_k_boundaries(clf, x, y, k=k, eta=1.0)
        r = rng.integers(-2, 3, C).astype(float)
        s = x + 2.0 * r
        fooled, _ = probes[-1](r)
        ties += bool(np.any(s[targets] == s[y]))
        row_0 = (np.arange(k + 1) == 0)[None]
        assert fooled == (match_ranks(s[[y, *targets]][None], row_0)[0] >= k)
    assert ties >= 50


# -- accumulate --------------------------------------------------------------

class Counting:
    """Fake crossing probe: r counts unit steps, fooled once r >= n; it
    records every r probed and every r a step is asked from."""

    def __init__(self, n_to_fool, none_from=None):
        self.n_to_fool, self.none_from = n_to_fool, none_from
        self.probed, self.stepped = [], []

    @property
    def probes(self):
        return len(self.probed)

    @property
    def steps(self):
        return len(self.stepped)

    def probe(self, r):
        self.probed.append(float(r[0]))
        return r[0] >= self.n_to_fool, lambda: self.step_at(r)

    def step_at(self, r):
        self.stepped.append(float(r[0]))
        if self.none_from is not None and r[0] >= self.none_from:
            return None
        return np.ones(1)


def test_crossing_step_on_a_support_sums_the_whole_vector():
    # a step over 75 entries of a 3,072-vector, given the whole vector's
    # squared norm as sq, keeps the bits of the whole vector's step; a
    # 75-value sum of squares rounds apart in most draws
    rng = np.random.default_rng(0)
    index = np.sort(rng.choice(3072, 75, replace=False))
    apart = 0
    for _ in range(200):
        full = np.zeros(3072)
        full[index] = rng.standard_normal(75)
        gap = rng.uniform(-1.0, 1.0)
        got = crossing_step(full[index], gap, float(np.vdot(full, full)))
        assert np.array_equal(got, crossing_step(full, gap)[index])
        apart += not np.array_equal(got, crossing_step(full[index], gap))
    assert apart > 0
    assert crossing_step(np.zeros(75), 0.3, float(np.vdot(np.zeros(3072), np.zeros(3072)))) is None


def test_accumulate_fooled_at_entry():
    fake = Counting(0)
    r, iterations, reason = accumulate(np.zeros(1), fake.probe, 5)
    assert (r[0], iterations, reason) == (0.0, 0, "fooled_at_entry")
    assert (fake.probes, fake.steps) == (1, 0)


def test_accumulate_fooled_after_n_steps():
    fake = Counting(3)
    r, iterations, reason = accumulate(np.zeros(1), fake.probe, 5)
    assert (r[0], iterations, reason) == (3.0, 3, "fooled")
    assert (fake.probes, fake.steps) == (4, 3)


def test_accumulate_stops_at_max_iters():
    fake = Counting(10)
    r, iterations, reason = accumulate(np.zeros(1), fake.probe, 4)
    assert (r[0], iterations, reason) == (4.0, 4, "max_iters")
    assert (fake.probes, fake.steps) == (5, 4)


def test_accumulate_stops_at_degenerate_step():
    fake = Counting(10, none_from=2)
    r, iterations, reason = accumulate(np.zeros(1), fake.probe, 5)
    assert (r[0], iterations, reason) == (2.0, 2, "degenerate")
    assert (fake.probes, fake.steps) == (3, 3)


@pytest.mark.parametrize("n_to_fool,max_iters", [(3, 5), (10, 4), (0, 2)])
def test_accumulate_probes_each_visited_r_once(n_to_fool, max_iters):
    # one probe per visited r; a step only from an r that is not fooled and
    # is not the last one max_iters allows
    fake = Counting(n_to_fool)
    r, iterations, _ = accumulate(np.zeros(1), fake.probe, max_iters)
    assert fake.probed == [float(i) for i in range(iterations + 1)]
    assert fake.stepped == fake.probed[:-1]


def plain_accumulate(r, probe, max_iters):
    """The crossing loop without the stall rule: it steps on, however short
    the step, until r is fooled, degenerate or out of iterations."""
    iterations = 0
    while True:
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


class Stepping:
    """Fake crossing probe that is never fooled: from each r it steps by
    step_of(r); it records r[0] of every r probed, and counts the steps."""

    def __init__(self, step_of):
        self.step_of, self.probed, self.steps = step_of, [], 0

    def probe(self, r):
        self.probed.append(float(r[0]))
        return False, lambda: self.step(r)

    def step(self, r):
        self.steps += 1
        return self.step_of(r)


def test_accumulate_stalls_at_a_zero_step_away_from_zero():
    fake = Stepping(lambda r: np.zeros(2))
    start = np.array([3.0, 4.0])
    r, iterations, reason = accumulate(start, fake.probe, 5)
    assert (r.tobytes(), iterations, reason) == (start.tobytes(), 0, "stalled")
    assert (len(fake.probed), fake.steps) == (1, 1)


def test_accumulate_never_stalls_at_zero():
    # at r = 0 a zero step is not short against ||r||, so the loop runs on
    # to max_iters at r = 0
    fake = Stepping(lambda r: np.zeros(2))
    r, iterations, reason = accumulate(np.zeros(2), fake.probe, 3)
    assert (iterations, reason) == (3, "max_iters")
    assert not r.any() and (len(fake.probed), fake.steps) == (4, 3)


@pytest.mark.parametrize("scale, stalls", [(1.0 - 1e-9, True), (1.0, False)])
def test_accumulate_stalls_strictly_below_the_ratio(scale, stalls):
    # ||r|| = 1, so a step of norm scale * STALL_RATIO stalls iff scale < 1
    start = np.array([1.0, 0.0])
    step = np.array([0.0, scale * boundary.STALL_RATIO])
    r, iterations, reason = accumulate(start, Stepping(lambda r: step).probe, 1)
    if stalls:
        assert (r.tobytes(), iterations, reason) == (start.tobytes(), 0, "stalled")
    else:
        assert (r.tobytes(), iterations, reason) == ((start + step).tobytes(), 1, "max_iters")


def test_accumulate_returns_the_last_r_probed_when_it_stalls():
    # unit steps up to r = 3, then a zero step; the Counting tests above
    # cover the other reasons
    fake = Stepping(lambda r: np.ones(1) if r[0] < 3 else np.zeros(1))
    r, iterations, reason = accumulate(np.zeros(1), fake.probe, 5)
    assert (r[0], iterations, reason) == (3.0, 3, "stalled")
    assert fake.probed == [0.0, 1.0, 2.0, 3.0] and fake.steps == 4

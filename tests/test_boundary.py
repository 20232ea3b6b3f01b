import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapkit.boundary import (CrossingReport, LinearClassifier, accumulate,
                             binary_distance, binary_min_perturbation,
                             cross_k_boundaries, crossing_step,
                             k_nearest_boundaries, multiclass_min_perturbation,
                             nearest_boundary)
from uapkit.errors import InvalidArgumentError, PreconditionError


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
    with pytest.raises(InvalidArgumentError):
        binary_min_perturbation(np.zeros(3), 1.0, np.ones(3))


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
    with pytest.raises(InvalidArgumentError):
        cross_k_boundaries(clf, x, y, k=1, eta=0.0)


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
    """The crossing loop without repeat detection: one probe per iteration."""
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


class Scripted:
    """Fake crossing probe, a pure function of r: from each r, the step leads
    to the next value of path. Values are small integers, so r + step is
    exact, and a value that recurs in path starts a bitwise cycle."""

    def __init__(self, path, fooled=(), degenerate=()):
        self.next = dict(zip(path, path[1:]))
        self.fooled, self.degenerate = set(fooled), set(degenerate)
        self.probed, self.stepped = [], []

    def probe(self, r):
        v = float(r[0])
        self.probed.append(v)

        def step_at():
            self.stepped.append(v)
            return None if v in self.degenerate else np.array([self.next[v] - v])

        return v in self.fooled, step_at


@st.composite
def scripted_paths(draw):
    """(path, fooled, degenerate): a drawn transient of distinct values, then
    a fixed point (period 1), a cycle of period 2-6, or values that never
    repeat; optionally one distinct value of it is fooled or degenerate."""
    transient = [float(v) for v in range(1, 1 + draw(st.integers(0, 8)))]
    period = draw(st.none() | st.integers(1, 6))
    path = transient + [100.0 + (v if period is None else v % period) for v in range(62)]
    distinct = list(dict.fromkeys(path))
    marked = draw(st.none() | st.sampled_from(distinct))
    marks = [] if marked is None else [marked]
    if draw(st.booleans()):
        return path, marks, []
    return path, [], marks


@settings(max_examples=200, deadline=None)
@given(scripted_paths())
def test_accumulate_equals_the_plain_loop_and_probes_each_r_once(script):
    start = script[0][0]
    for max_iters in range(1, 61):
        ref, fake = Scripted(*script), Scripted(*script)
        want = plain_accumulate(np.array([start]), ref.probe, max_iters)
        r, iterations, reason = accumulate(np.array([start]), fake.probe, max_iters)
        assert (r.tobytes(), iterations, reason) == (want[0].tobytes(), *want[1:])
        # each distinct r the plain loop visits is probed once, in its order
        assert fake.probed == list(dict.fromkeys(ref.probed))
        assert fake.stepped == list(dict.fromkeys(ref.stepped))
        assert float(r[0]) in fake.probed  # callers may reuse its probe


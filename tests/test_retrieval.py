import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapkit import retrieval
from uapkit.encoder import PerturbedBatch
from uapkit.errors import InvalidArgumentError
from uapkit.retrieval import (EmbeddingIndex, hit_rate, match_ranks, rank_rows,
                              select_nonmatching_topk)


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_index(rng, m, d):
    return EmbeddingIndex(unit_rows(rng.standard_normal((m, d))))


def match_mask(matches_per_query, n: int) -> np.ndarray:
    """(Q, n) boolean mask of each query's match set."""
    is_match = np.zeros((len(matches_per_query), n), dtype=bool)
    for row, matches in zip(is_match, matches_per_query):
        row[list(matches)] = True
    return is_match


def recall_at_k(queries, gallery, matches_per_query, k):
    """R@k by the one route, as report_metrics takes it: rank_rows, then
    hit_rate."""
    ranks = rank_rows(queries, gallery, match_mask(matches_per_query, len(gallery)))
    return hit_rate(ranks, k, len(gallery))


def indicator(query, gallery, matches, k):
    """1 iff a match of query survives in the top k: hit_rate of the
    match_ranks of its one row, the rank the attack's stopping test reads."""
    ranks = match_ranks((gallery @ query)[None], match_mask([matches], len(gallery)))
    return int(hit_rate(ranks, k, len(gallery)))


def ranked_indices(query: np.ndarray, index: EmbeddingIndex) -> np.ndarray:
    """All gallery indices by descending similarity, ties toward smaller index."""
    sims = index.embeddings @ query
    return np.lexsort((np.arange(len(index)), -sims))


def test_index_rejects_non_unit_rows():
    with pytest.raises(InvalidArgumentError):
        EmbeddingIndex(np.ones((2, 3)))


def test_index_rejects_huge_rows_without_overflow_warning():
    # squaring 1e300 overflows; the row is rejected without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            EmbeddingIndex(np.full((2, 4), 1e300))


def test_ranked_indices_full_sort_oracle():
    rng = np.random.default_rng(0)
    index = random_index(rng, 50, 8)
    for _ in range(20):
        q = unit_rows(rng.standard_normal((1, 8)))[0]
        sims = index.embeddings @ q
        order = ranked_indices(q, index)
        # strictly nonincreasing similarity along the ranking
        assert np.all(np.diff(sims[order]) <= 1e-15)
        assert sorted(order.tolist()) == list(range(50))


def test_ranked_indices_tie_break_smallest_index():
    e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    index = EmbeddingIndex(e)
    order = ranked_indices(np.array([1.0, 0.0]), index)
    assert order.tolist() == [0, 2, 1]


def test_indicator_basic():
    rng = np.random.default_rng(1)
    gallery = random_index(rng, 10, 4).embeddings
    q = gallery[3]
    assert indicator(q, gallery, {3}, 1) == 1
    # with k = 1 a different target cannot be hit by an exact-match query
    assert indicator(q, gallery, {(3 + 1) % 10}, 1) == 0


def test_indicator_validates_args():
    rng = np.random.default_rng(2)
    gallery = random_index(rng, 5, 4).embeddings
    # a row without a match is never a hit: its rank is the gallery size
    assert match_ranks((gallery @ gallery[0])[None], np.zeros((1, 5), dtype=bool)).tolist() == [5]
    with pytest.raises(InvalidArgumentError):
        indicator(gallery[0], gallery, {0}, 6)


def test_select_nonmatching_topk_excludes_matches():
    rng = np.random.default_rng(3)
    index = random_index(rng, 30, 6)
    q = unit_rows(rng.standard_normal((1, 6)))[0]
    matches = {1, 5, 9}
    out = select_nonmatching_topk(q, index.embeddings, matches, 10)
    assert len(out) == 10 and not set(out) & matches
    # oracle: filter the full ranking
    full = [int(i) for i in ranked_indices(q, index) if int(i) not in matches]
    assert out == full[:10]


def test_select_nonmatching_topk_validates_args():
    rng = np.random.default_rng(5)
    index = random_index(rng, 6, 4)
    q = index.embeddings[0]
    for matches, k in (({0, 6}, 1), ({-1}, 1), ({0, 1}, 5), ({0}, -1)):
        with pytest.raises(InvalidArgumentError):
            select_nonmatching_topk(q, index.embeddings, matches, k)


def test_match_ranks_hand_case():
    sims = np.array([[0.5, 0.9, 0.5, 0.1],
                     [0.5, 0.9, 0.5, 0.1],
                     [0.2, 0.2, 0.2, 0.2]])
    is_match = np.array([[False, False, True, True],   # best match: 2, tied with 0
                         [True, False, True, False],   # best match: 0
                         [False, True, False, True]])  # best match: 1, tied with 0
    assert match_ranks(sims, is_match).tolist() == [2, 1, 1]
    with pytest.raises(InvalidArgumentError):
        match_ranks(sims, is_match[:, :3])


def earlier_match_ranks(sims, is_match):
    """match_ranks as first written: the first argmax among the matches, then
    every entry above it, or equal to it at a smaller index."""
    best = np.argmax(np.where(is_match, sims, -np.inf), axis=1)
    best_sim = sims[np.arange(len(sims)), best][:, None]
    ahead = (sims > best_sim) | ((sims == best_sim) & (np.arange(sims.shape[1]) < best[:, None]))
    return ahead.sum(axis=1)


@pytest.mark.parametrize("shape, matches", [((200, 1000), 5), ((1000, 200), 1)],
                         ids=["tr", "ir"])
def test_match_ranks_at_report_scale_with_exact_ties(shape, matches):
    rng = np.random.default_rng(11)
    q, m = shape
    sims = rng.uniform(-1.0, 1.0, shape)
    is_match = np.zeros(shape, dtype=bool)
    for row in is_match:
        row[rng.choice(m, size=rng.integers(1, matches + 1), replace=False)] = True
    # exact ties with the best match's similarity: other entries of every
    # third row, a second match of every seventh, the whole of every 50th
    best = np.where(is_match, sims, -np.inf).max(axis=1)
    for i in range(0, q, 3):
        sims[i, rng.choice(m, size=rng.integers(1, 4), replace=False)] = best[i]
    for i in range(1, q, 7):
        sims[i, np.flatnonzero(is_match[i])] = best[i]
        sims[i, rng.choice(m, size=2, replace=False)] = best[i]
    sims[2::50] = 0.25
    ranks = match_ranks(sims, is_match)
    expected = earlier_match_ranks(sims, is_match)
    assert ranks.dtype == np.intp and np.array_equal(ranks, expected)
    # the ties decide the rank in many rows
    above = (sims > np.where(is_match, sims, -np.inf).max(axis=1, keepdims=True)).sum(axis=1)
    assert np.count_nonzero(expected != above) > q // 20


@pytest.mark.parametrize("pair, blocks", [
    ("images-texts", 4), ("texts-images", 4), ("images-prototypes", 1)])
def test_rank_rows_scores_the_standard_shapes_as_the_whole_product(
        standard, monkeypatch, pair, blocks):
    # a product is cut only above the score budget, into as few even row
    # blocks as fit it: blocks of a few rows can take other last bits than
    # the whole product (gemv, small-matrix kernels). So on the shapes that
    # reports and the floor check rank, each block's scores are the whole
    # product's rows, and the ranks are match_ranks of the whole
    enc, ds, configs = standard
    img = PerturbedBatch(enc, ds.images, configs["tira"].carrier).clean().embeddings
    texts = ds.texts.embeddings
    queries, gallery = {
        "images-texts": (img, texts), "texts-images": (texts, img),
        "images-prototypes": (img, ds.prototypes.embeddings),
    }[pair]
    whole = queries @ gallery.T
    rng = np.random.default_rng(8)
    is_match = rng.random(whole.shape) < 0.01
    is_match[np.arange(len(whole)), rng.integers(whole.shape[1], size=len(whole))] = True
    scored = []

    def recording_match_ranks(sims, block_match):
        scored.append(sims.copy())
        return match_ranks(sims, block_match)

    monkeypatch.setattr(retrieval, "match_ranks", recording_match_ranks)
    ranks = retrieval.rank_rows(queries, gallery, is_match)
    assert np.array_equal(ranks, match_ranks(whole, is_match))
    assert b"".join(block.tobytes() for block in scored) == whole.tobytes()
    budget = retrieval._BLOCK_SCORES
    sizes = [len(block) for block in scored]
    assert len(sizes) == blocks == -(-whole.size // budget)
    assert max(sizes) - min(sizes) <= 1 and max(sizes) * whole.shape[1] <= budget


def test_rank_rows_checks_its_match_mask():
    # a mask with rows to spare would fit every block it is sliced into
    rng = np.random.default_rng(2)
    queries, gallery = unit_rows(rng.standard_normal((3, 4))), unit_rows(rng.standard_normal((5, 4)))
    with pytest.raises(InvalidArgumentError):
        retrieval.rank_rows(queries, gallery, np.ones((4, 5), dtype=bool))


@pytest.mark.parametrize("rank_at", [
    lambda e, k: indicator(e[0], e, {0}, k),
    lambda e, k: recall_at_k(e, e, [{i} for i in range(len(e))], k),
    lambda e, k: hit_rate(rank_rows(e, e, np.arange(len(e))[:, None] == np.arange(len(e))),
                          k, len(e)),
], ids=["indicator", "recall_at_k", "topk_class_accuracy"])
def test_k_must_fit_the_gallery(rank_at):
    e = random_index(np.random.default_rng(6), 5, 4).embeddings
    assert rank_at(e, 1) == 1
    assert rank_at(e, 5) == 1
    for k in (0, -1, 6):
        with pytest.raises(InvalidArgumentError):
            rank_at(e, k)
    # R@2.5 is no R@k: every k goes through hit_rate's operator.index
    with pytest.raises(TypeError):
        rank_at(e, 2.5)


def test_recall_at_k_hand_case():
    gallery = np.eye(3)
    queries = unit_rows(np.array([
        [1.0, 0.1, 0.0],   # nearest: 0
        [0.0, 1.0, 0.1],   # nearest: 1
        [0.1, 0.0, 1.0],   # nearest: 2
    ]))
    assert recall_at_k(queries, gallery, [{0}, {1}, {0}], 1) == pytest.approx(2 / 3)
    assert recall_at_k(queries, gallery, [{0}, {1}, {0}], 3) == 1.0


def test_recall_monotone_in_k():
    rng = np.random.default_rng(4)
    gallery = random_index(rng, 40, 8).embeddings
    queries = random_index(rng, 15, 8).embeddings
    matches = [{int(rng.integers(40))} for _ in range(15)]
    values = [recall_at_k(queries, gallery, matches, k) for k in (1, 5, 10, 40)]
    assert values == sorted(values)
    assert values[-1] == 1.0


def test_topk_class_accuracy():
    # report_metrics' Top-k: each image's one match is its label's prototype
    protos = np.eye(4)
    embs = unit_rows(np.array([
        [1.0, 0.2, 0.0, 0.0],
        [0.0, 0.2, 1.0, 0.0],
    ]))

    def accuracy(labels, k):
        is_match = np.asarray(labels)[:, None] == np.arange(len(protos))
        return hit_rate(rank_rows(embs, protos, is_match), k, len(protos))

    assert accuracy([0, 2], 1) == 1.0
    assert accuracy([1, 1], 1) == 0.0
    assert accuracy([1, 1], 2) == 1.0


# unit vectors with dyadic coordinates: every dot product among them is exact
# in any summation order, so repeated rows tie exactly whatever the BLAS does
DYADIC_UNITS = np.array(
    [np.eye(4)[i] * s for i in range(4) for s in (1.0, -1.0)]
    + [np.array(signs) / 2.0 for signs in itertools.product((1.0, -1.0), repeat=4)])


def loop_indicator(query, index, matches, k):
    return int(any(int(i) in matches for i in ranked_indices(query, index)[:k]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rank_routines_match_ranked_indices_loop(data):
    rows = st.integers(0, len(DYADIC_UNITS) - 1)
    m = data.draw(st.integers(1, 12), label="gallery size")
    gallery = EmbeddingIndex(DYADIC_UNITS[data.draw(st.lists(rows, min_size=m, max_size=m))])
    queries = EmbeddingIndex(DYADIC_UNITS[data.draw(st.lists(rows, min_size=1, max_size=8))])
    matches = [set(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)))
               for _ in range(len(queries))]
    k = data.draw(st.integers(1, m), label="k")

    expected = [loop_indicator(q, gallery, ms, k)
                for q, ms in zip(queries.embeddings, matches)]
    assert [indicator(q, gallery.embeddings, ms, k)
            for q, ms in zip(queries.embeddings, matches)] == expected
    assert recall_at_k(queries.embeddings, gallery.embeddings, matches, k) == (
        sum(expected) / len(expected))

    labels = [min(ms) for ms in matches]
    expected = [loop_indicator(q, gallery, {y}, k)
                for q, y in zip(queries.embeddings, labels)]
    assert recall_at_k(queries.embeddings, gallery.embeddings, [{y} for y in labels], k) == (
        sum(expected) / len(expected))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_match_ranks_is_the_first_match_in_ranked_indices(data):
    rows = st.integers(0, len(DYADIC_UNITS) - 1)
    m = data.draw(st.integers(1, 12), label="gallery size")
    gallery = EmbeddingIndex(DYADIC_UNITS[data.draw(st.lists(rows, min_size=m, max_size=m))])
    queries = DYADIC_UNITS[data.draw(st.lists(rows, min_size=1, max_size=8))]
    matches = [set(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)))
               for _ in range(len(queries))]

    ranks = match_ranks(queries @ gallery.embeddings.T, match_mask(matches, m))
    expected = [next(i for i, j in enumerate(ranked_indices(q, gallery)) if j in ms)
                for q, ms in zip(queries, matches)]
    assert ranks.tolist() == expected


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_match_ranks_of_one_row_follow_the_matrix_rule(data):
    # a few distinct values, so rows repeat values and tie their matches
    m = data.draw(st.integers(1, 12), label="gallery size")
    row = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0]),
                                      min_size=m, max_size=m)))
    match = np.zeros(m, dtype=bool)
    match[data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))] = True
    one = match_ranks(row[None], match[None])
    # the same row twice takes the matrix path
    assert one.dtype == np.intp and one.shape == (1,)
    assert one.tolist() == match_ranks(np.stack([row, row]), np.stack([match, match]))[:1].tolist()
    assert one.tolist() == earlier_match_ranks(row[None], match[None]).tolist()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_select_nonmatching_topk_matches_ranked_indices(data):
    # dyadic galleries tie exactly, also at the cut of the sorted head
    rows = st.integers(0, len(DYADIC_UNITS) - 1)
    m = data.draw(st.integers(1, 16), label="gallery size")
    gallery = EmbeddingIndex(DYADIC_UNITS[data.draw(st.lists(rows, min_size=m, max_size=m))])
    query = DYADIC_UNITS[data.draw(rows, label="query")]
    matches = set(data.draw(st.lists(st.integers(0, m - 1), max_size=4), label="matches"))
    k = data.draw(st.integers(0, m - len(matches)), label="k")

    expected = [int(j) for j in ranked_indices(query, gallery) if j not in matches][:k]
    assert select_nonmatching_topk(query, gallery.embeddings, matches, k) == expected



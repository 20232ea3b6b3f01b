"""Retrieval-side evaluation: indicator function, candidate selection, R@k,
and top-k classification accuracy over unit-norm embeddings.

Similarity is the dot product of unit vectors (= cosine). Inputs are
validated unit-norm instead of silently renormalized. All rankings break
ties deterministically toward the smallest index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import as_tensor
from .errors import InvalidArgumentError

_ROW_NORM_TOL = 1e-9
_BLOCK_SCORES = 64 * 1024  # scores per block of rank_rows: 512 KiB of float64


@dataclass(frozen=True)
class EmbeddingIndex:
    """A gallery of M unit-norm d-dimensional embeddings."""

    embeddings: np.ndarray  # (M, d)

    def __post_init__(self):
        e = as_tensor(self.embeddings)
        if e.ndim != 2 or e.shape[0] < 1:
            raise InvalidArgumentError("embeddings must be a nonempty (M, d) matrix")
        with np.errstate(over="ignore"):  # a huge finite row has norm inf
            norms = np.linalg.norm(e, axis=1)
        if np.any(np.abs(norms - 1.0) > _ROW_NORM_TOL):
            worst = float(np.abs(norms - 1.0).max())
            raise InvalidArgumentError(f"rows must be unit-norm (worst deviation {worst:.2e})")
        object.__setattr__(self, "embeddings", e)

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def match_mask(matches_per_query, n: int) -> np.ndarray:
    """(Q, n) boolean mask of each query's matches; every match set must be
    nonempty indices in [0, n)."""
    is_match = np.zeros((len(matches_per_query), n), dtype=bool)
    for row, matches in zip(is_match, matches_per_query):
        cols = [int(j) for j in matches]
        if not cols or not all(0 <= j < n for j in cols):
            raise InvalidArgumentError(f"matches must be nonempty indices in [0, {n})")
        row[cols] = True
    return is_match


def match_ranks(sims: np.ndarray, is_match: np.ndarray) -> np.ndarray:
    """Per row of a (Q, M) similarity matrix: how many gallery entries rank
    ahead of the row's best-ranked match.

    is_match is the rows' (Q, M) boolean match mask, with at least one match
    per row.
    The ranking is by descending similarity, ties toward the smallest
    index, so the best-ranked match is the first argmax among the matches,
    and a match survives in the top k iff its rank is below k. This is the
    one rank rule: every R@k, top-k accuracy and stopping test compares its
    result with k.

    The rank is the count of entries strictly above the best match's
    similarity, plus, in a row where that similarity is tied, the tied
    entries before the first match that holds it.
    """
    if is_match.shape != sims.shape:
        raise InvalidArgumentError(f"match mask {is_match.shape} does not fit {sims.shape}")
    if len(sims) == 1:  # the same rule on one row, without the row loop
        row, match = sims[0], is_match[0]
        best = np.maximum.reduce(row, where=match, initial=-np.inf)
        rank = np.count_nonzero(row > best)
        tied = row == best
        if np.count_nonzero(tied) > 1:
            rank += np.count_nonzero(tied[:np.argmax(tied & match)])
        return np.array([rank], dtype=np.intp)
    # row counts summed in uint16, exact below 2**16 columns, run several
    # times faster than a sum in intp
    count = np.uint16 if sims.shape[1] < 2 ** 16 else np.intp
    best = np.maximum.reduce(sims, axis=1, where=is_match, initial=-np.inf, keepdims=True)
    ranks = np.add.reduce(sims > best, axis=1, dtype=count).astype(np.intp)
    tied = sims == best
    for i in np.flatnonzero(np.add.reduce(tied, axis=1, dtype=count) > 1):
        row = tied[i]
        ranks[i] += np.count_nonzero(row[:np.argmax(row & is_match[i])])
    return ranks


def rank_rows(queries: np.ndarray, gallery: np.ndarray, is_match: np.ndarray) -> np.ndarray:
    """match_ranks(queries @ gallery.T, is_match), without the whole score
    matrix: the queries are scored in even row blocks of at most
    _BLOCK_SCORES scores, one block after another in one buffer.

    A product of at most _BLOCK_SCORES scores is one block, and a larger one
    is cut into as few blocks as fit, so no block is cut small: BLAS can
    give a row other last bits in a product of a few rows than in the whole
    (a small-matrix kernel, or gemv for one row). On the standard dataset's
    shapes every block holds the whole product's rows bit for bit.
    recall_at_k, and so the dataset's clean-retrieval floor check, and the
    report metrics rank through it.
    """
    q, m = len(queries), len(gallery)
    if is_match.shape != (q, m):
        raise InvalidArgumentError(f"match mask {is_match.shape} does not fit {(q, m)}")
    blocks = max(1, min(q, -(-q * m // _BLOCK_SCORES)))
    edges = [q * i // blocks for i in range(blocks + 1)]
    buffer = np.empty((-(-q // blocks), m))
    ranks = np.empty(q, dtype=np.intp)
    for lo, hi in zip(edges, edges[1:]):
        sims = np.matmul(queries[lo:hi], gallery.T, out=buffer[:hi - lo])
        ranks[lo:hi] = match_ranks(sims, is_match[lo:hi])
    return ranks


def hit_rate(ranks: np.ndarray, k: int, n: int) -> float:
    """R@k of match_ranks over a gallery of n entries: the share of ranks
    below k, for an integer k in [1, n]."""
    if not 1 <= operator.index(k) <= n:
        raise InvalidArgumentError(f"k={k} outside [1, {n}]")
    return int(np.count_nonzero(ranks < k)) / len(ranks)


def indicator(query: np.ndarray, index: EmbeddingIndex, matches, k: int) -> int:
    """1 iff any matched index survives in the top-k retrieval results."""
    ranks = match_ranks((index.embeddings @ query)[None], match_mask([matches], len(index)))
    return int(hit_rate(ranks, k, len(index)))


def select_nonmatching_topk(query: np.ndarray, index: EmbeddingIndex,
                            matches, k: int) -> list[int]:
    """The k most-similar gallery indices excluding matches, descending."""
    n = len(index)
    matches = set(matches)
    if not all(0 <= j < n for j in matches):
        raise InvalidArgumentError(f"matches must be indices in [0, {n})")
    if not 0 <= k <= n - len(matches):
        raise InvalidArgumentError(
            f"k={k} outside [0, {n - len(matches)}], the non-matching candidates")
    # a stable sort breaks ties by index; its first k + len(matches) entries
    # hold the k best non-matches
    ranked = np.argsort(-(index.embeddings @ query), kind="stable")[:k + len(matches)]
    return [j for j in ranked.tolist() if j not in matches][:k]


def recall_at_k(queries: EmbeddingIndex, gallery: EmbeddingIndex,
                matches_per_query, k: int) -> float:
    """Mean indicator over queries."""
    if len(matches_per_query) != len(queries):
        raise InvalidArgumentError("one match set per query required")
    ranks = rank_rows(queries.embeddings, gallery.embeddings,
                      match_mask(matches_per_query, len(gallery)))
    return hit_rate(ranks, k, len(gallery))


def topk_class_accuracy(image_embeddings: EmbeddingIndex,
                        class_prototypes: EmbeddingIndex,
                        labels, k: int) -> float:
    """Fraction of images whose true prototype ranks in the top k."""
    return recall_at_k(image_embeddings, class_prototypes, [[y] for y in labels], k)

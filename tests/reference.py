"""Reference implementations the tests compare the package against.

`encode_semantics` is the per-chart semantic encoder: one store lookup, one
pooling and one concatenation per token. The package encodes a whole corpus
through a table of its distinct words; its blocks must equal these bit for
bit in every mode.

`nearest_by_difference` is the same-dataset retrieval of `compute_metrics`
as a full scan: every anchor-candidate distance in the difference form. The
package ranks each block by its Gram form and re-ranks only the near-ties;
its retrieved charts and distances must equal these bit for bit.
"""

from __future__ import annotations

import numpy as np

from chartembed.evaluation import EmbeddingIndex
from chartembed.semantics import (
    LOCATION_COUNT,
    POOLED_DIM,
    SEMANTIC_SLOTS,
    WORD_DIM,
    Token,
    VectorStore,
    semantic_shape,
)


def pool_word(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    return vec.reshape(POOLED_DIM, WORD_DIM // POOLED_DIM).mean(axis=1)


def max_pool_word(vec: np.ndarray) -> np.ndarray:
    return vec.reshape(POOLED_DIM, WORD_DIM // POOLED_DIM).max(axis=1)


def location_onehot(location: int) -> np.ndarray:
    onehot = np.zeros(LOCATION_COUNT, dtype=np.float64)
    onehot[location - 1] = 1.0
    return onehot


def encode_semantics(
    tokens: list[Token],
    store: VectorStore,
    mode: str = "interval-average",
    use_locations: bool = True,
) -> np.ndarray:
    """The semantic block of one chart: at most the first 25 tokens, one row
    per token in per-word modes, one reduced 107-dim row in across-word modes."""
    rows, cols = semantic_shape(mode)
    kept = tokens[:SEMANTIC_SLOTS]
    block = np.zeros((rows, cols), dtype=np.float64)
    if not kept:
        return block

    vecs = np.stack([store.lookup(t.word) for t in kept])
    locs = np.stack([location_onehot(t.location) for t in kept])
    if not use_locations:
        locs = np.zeros_like(locs)

    if mode == "interval-average":
        for i, vec in enumerate(vecs):
            block[i] = np.concatenate([pool_word(vec), locs[i]])
    elif mode == "word-max":
        for i, vec in enumerate(vecs):
            block[i] = np.concatenate([max_pool_word(vec), locs[i]])
    elif mode == "none":
        block[: len(kept)] = np.concatenate([vecs, locs], axis=1)
    elif mode == "words-average":
        block[0] = np.concatenate([vecs.mean(axis=0), locs.mean(axis=0)])
    elif mode == "words-max":
        block[0] = np.concatenate([vecs.max(axis=0), locs.max(axis=0)])
    return block


_BLOCK_FLOATS = 1 << 20


def difference_distances(vectors: np.ndarray, anchors: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(len(anchors), len(candidates)) Euclidean distances, sqrt(sum((b - a)^2)),
    in candidate chunks that keep the differences within _BLOCK_FLOATS."""
    points = vectors[anchors][:, None, :]
    dist = np.empty((len(anchors), len(candidates)))
    step = max(1, _BLOCK_FLOATS // max(1, points.size))
    for lo in range(0, len(candidates), step):
        diff = vectors[candidates[lo : lo + step]][None, :, :] - points
        dist[:, lo : lo + step] = np.sqrt(np.einsum("abd,abd->ab", diff, diff))
    return dist


def nearest_by_difference(index: EmbeddingIndex) -> tuple[np.ndarray, np.ndarray]:
    """(retrieved row or -1, distance) per row of the index: the first
    minimum over every same-dataset distance."""
    retrieved = np.full(len(index), -1)
    distance = np.zeros(len(index))
    for block in index.blocks.values():
        if len(block) < 2:
            continue
        step = max(1, _BLOCK_FLOATS // max(1, len(block) * index.vectors.shape[1]))
        for lo in range(0, len(block), step):
            anchors = block[lo : lo + step]
            own = np.arange(len(anchors))
            dist = difference_distances(index.vectors, anchors, block)
            dist[own, lo + own] = np.inf
            # argmin takes the first minimum, which has the smallest chart id.
            # It takes the anchor itself only when the anchor is the block's
            # first row and every distance overflows to inf; then the
            # second row is the nearest.
            best = np.argmin(dist, axis=1)
            best[best == lo + own] = 1
            retrieved[anchors] = block[best]
            distance[anchors] = dist[own, best]
    return retrieved, distance

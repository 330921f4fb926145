"""Brute-force nearest-neighbour oracle over a saved index TSV.

It reads the index file format directly, so it does not depend on how the
program keeps its index in memory. Distances use the difference form
sqrt(sum((a - b)^2)); ties break on (distance, chart_id), as `nearest`
documents. Work is vectorized per dataset block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows of anchors per broadcast block; bounds memory at rows * n * dim floats.
_CHUNK = 32
# The program and the oracle sum squares in different orders.
DISTANCE_RTOL = 1e-9


@dataclass(frozen=True)
class IndexTable:
    ids: list[str]  # sorted, so row order is chart-id order
    story: list[str]
    position: np.ndarray
    dataset: list[str]
    vectors: np.ndarray
    row_of: dict[str, int]
    blocks: dict[str, np.ndarray]  # dataset id -> ascending row numbers


def read_index(path) -> IndexTable:
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        rows = sorted(line.rstrip("\n").split("\t") for line in fh)
    ids = [r[0] for r in rows]
    dataset = [r[3] for r in rows]
    blocks: dict[str, list[int]] = {}
    for i, d in enumerate(dataset):
        blocks.setdefault(d, []).append(i)
    return IndexTable(
        ids=ids,
        story=[r[1] for r in rows],
        position=np.array([int(r[2]) for r in rows]),
        dataset=dataset,
        vectors=np.array([[float(x) for x in r[4:]] for r in rows], dtype=np.float64),
        row_of={c: i for i, c in enumerate(ids)},
        blocks={d: np.array(b) for d, b in blocks.items()},
    )


def _distances(table: IndexTable, anchors: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(len(anchors), len(block)) distances; an anchor's own column is inf."""
    diff = table.vectors[anchors][:, None, :] - table.vectors[block][None, :, :]
    dist = np.sqrt(np.einsum("abd,abd->ab", diff, diff))
    dist[anchors[:, None] == block[None, :]] = np.inf
    return dist


def top_k(table: IndexTable, anchor: str, k: int) -> list[tuple[str, float]]:
    """Same-dataset top-k of one anchor."""
    row = table.row_of[anchor]
    block = table.blocks[table.dataset[row]]
    dist = _distances(table, np.array([row]), block)[0]
    # block is ascending, so a stable sort on distance breaks ties by chart id.
    order = np.argsort(dist, kind="stable")[: min(k, len(block) - 1)]
    return [(table.ids[block[j]], float(dist[j])) for j in order]


def same_ranking(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> bool:
    return len(got) == len(want) and all(
        g_id == w_id and math.isclose(g_d, w_d, rel_tol=DISTANCE_RTOL, abs_tol=0.0)
        for (g_id, g_d), (w_id, w_d) in zip(got, want)
    )


def rates(table: IndexTable, gap2: int = 2, gap3: int = 3) -> tuple[float, float, float]:
    """(top2, top3, cooccurrence) over every anchor with a same-dataset candidate."""
    hits2 = hits3 = hits_co = scored = 0
    for block in table.blocks.values():
        if len(block) < 2:
            continue
        for lo in range(0, len(block), _CHUNK):
            anchors = block[lo : lo + _CHUNK]
            dist = _distances(table, anchors, block)
            nearest = block[np.argmin(dist, axis=1)]  # first minimum = smallest id
            for a, n in zip(anchors, nearest):
                scored += 1
                if table.story[a] != table.story[n]:
                    continue
                gap = abs(int(table.position[a]) - int(table.position[n]))
                hits_co += 1
                hits2 += gap <= gap2
                hits3 += gap <= gap3
    return hits2 / scored, hits3 / scored, hits_co / scored

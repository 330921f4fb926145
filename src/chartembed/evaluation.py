"""Retrieval index, context metrics, and the ablation harness.

Every chart of a corpus is embedded in inference mode and indexed by id.
For each anchor, the single nearest chart within the same dataset decides
three checks: co-occurrence (same visualization), top-2 (same visualization
and position gap <= 2), and top-3 (gap <= 3). The ablation harness retrains
the model under documented switch sets and evaluates each variant on a
shared corpus.
"""

from __future__ import annotations

import logging
import math
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, EncodedCorpus, build_samples, encode_corpus
from .encoder import EncoderConfig, EncoderParams, forward_batch, init_params
from .learning import HyperParams, train
from .semantics import VectorStore

log = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Raised for unknown anchors, empty indexes, and scope errors."""


class EmbeddingIndex:
    """Charts as columns in chart-id order, with one (N, D) vector matrix.

    `row` maps a chart id to its row; `blocks` maps a dataset id to its rows,
    ascending, so every block is in chart-id order too. `sq` and `twice_norm`
    hold each row's squared norm and twice its norm.
    """

    def __init__(
        self,
        chart_ids: Sequence[str],
        story_ids: Sequence[str],
        positions: Sequence[int],
        dataset_ids: Sequence[str],
        vectors: np.ndarray,
    ):
        order = sorted(range(len(chart_ids)), key=chart_ids.__getitem__)
        self.ids = tuple(chart_ids[i] for i in order)
        self.row = {chart_id: row for row, chart_id in enumerate(self.ids)}
        if len(self.row) != len(self.ids):
            duplicate = next(a for a, b in zip(self.ids, self.ids[1:]) if a == b)
            raise EvaluationError(f"duplicate chart id {duplicate!r}")
        self.story_ids = tuple(story_ids[i] for i in order)
        self.positions = np.asarray(positions, dtype=np.int64)[order]
        self.dataset_ids = tuple(dataset_ids[i] for i in order)
        self.vectors = np.asarray(vectors, dtype=np.float64)[order]
        # The Gram screen's norms (_near_ties), for nearest and compute_metrics.
        # Large vectors overflow them to inf, which makes the screen keep all.
        with np.errstate(over="ignore", invalid="ignore"):
            self.sq = np.einsum("nd,nd->n", self.vectors, self.vectors)
            self.twice_norm = 2.0 * np.sqrt(self.sq)
        blocks: dict[str, list[int]] = {}
        for row, dataset_id in enumerate(self.dataset_ids):
            blocks.setdefault(dataset_id, []).append(row)
        self.blocks = {d: np.array(rows, dtype=np.int64) for d, rows in blocks.items()}

    def __len__(self) -> int:
        return len(self.ids)


def build_index(corpus: Corpus, params: EncoderParams, store: VectorStore) -> EmbeddingIndex:
    """Embed every chart of the corpus in inference mode; all must be finite."""
    return index_encoded(encode_corpus(corpus, store, params.config), params)


def index_encoded(encoded: EncodedCorpus, params: EncoderParams) -> EmbeddingIndex:
    """build_index for a corpus already encoded under params.config."""
    if not len(encoded):
        return EmbeddingIndex((), (), (), (), np.zeros((0, 0)))
    # An overflow shows up as the non-finite embedding reported below.
    with np.errstate(all="ignore"):
        vectors, _ = forward_batch(*encoded.rows(np.arange(len(encoded))), params, train=False)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        first = encoded.chart_ids[int(finite.argmin())]
        raise EvaluationError(f"non-finite embedding for chart {first!r} (values overflow)")
    return EmbeddingIndex(
        encoded.chart_ids, encoded.vis_ids, encoded.positions, encoded.dataset_ids, vectors
    )


_BLOCK_FLOATS = 1 << 20  # bounds one Gram slab and one block of anchor-candidate differences


def _difference_distances(vectors: np.ndarray, points: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Euclidean distances sqrt(sum((b - a)^2)) over the last axis from
    `points`, broadcast, to the charts at `columns`, in the exact difference
    form: one gather, the anchors subtracted in place. The expansion
    |a|^2 + |b|^2 - 2ab can flip near-ties: compute_metrics ranks by it only
    to find each anchor's near-ties (_near_ties), and re-ranks those here."""
    diff = vectors[columns]
    diff -= points
    return np.sqrt(np.einsum("...d,...d->...", diff, diff))


def _nearest_kept(
    vectors: np.ndarray, anchors: np.ndarray, block: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, distance) of each anchor's nearest chart among the block columns
    that its row of `keep` marks, to the bits of _difference_distances; ties
    go to the first column. Rows are padded to the longest row, and tiles
    keep the differences within _BLOCK_FLOATS."""
    rows, cols = np.nonzero(keep)
    counts = np.bincount(rows, minlength=len(keep))
    starts = np.cumsum(counts) - counts
    # Each row's kept columns, ascending, then copies of its first.
    columns = np.repeat(block[cols[starts]][:, None], counts.max(), axis=1)
    columns[rows, np.arange(len(rows)) - starts[rows]] = block[cols]
    width, dim = columns.shape[1], vectors.shape[1]
    dist = np.empty(columns.shape)
    rows_step = max(1, _BLOCK_FLOATS // max(1, width * dim))
    cols_step = max(1, _BLOCK_FLOATS // max(1, rows_step * dim))
    for r in range(0, len(anchors), rows_step):
        points = vectors[anchors[r : r + rows_step]][:, None, :]
        for c in range(0, width, cols_step):
            tile = columns[r : r + rows_step, c : c + cols_step]
            dist[r : r + rows_step, c : c + cols_step] = _difference_distances(vectors, points, tile)
    dist[np.arange(width) >= counts[:, None]] = np.inf
    # argmin takes the first minimum, which has the smallest chart id.
    best = np.argmin(dist, axis=1)
    own = np.arange(len(anchors))
    return columns[own, best], dist[own, best]


def _near_ties(
    gram: np.ndarray, lo: int, sq: np.ndarray, twice_norm: np.ndarray, dim: int, k: int
) -> np.ndarray:
    """Keep mask over the Gram slab of a block's anchors lo, lo + 1, ... (rows)
    and all of its charts (columns), given the block's squared norms, doubled
    norms and the vector length: every candidate whose _difference_distances
    value may tie with or beat the anchor's k-th nearest chart, but not the
    anchor. k is at most the number of candidates, len(sq) - 1.

    Write u = 2^-53, gamma_k = k u / (1 - k u), R = (|a| + |b|)^2 for anchor
    a and candidate b, s = |a - b|^2 exactly, g the Gram value below and e
    the einsum sum that _difference_distances takes the root of. Higham's
    dot-product bound |fl(x.y) - x.y| <= gamma_D |x|.|y| holds for any
    summation order, FMA or not, and so for any BLAS:
    - g: |a|^2, |b|^2 and 2a.b are off by gamma_D R in all (|a|.|b| <=
      |a||b|), and the add and the subtract round twice: |g - s| <= gamma_{D+2} R;
    - e: each b_i - a_i rounds once, which moves the exact sum of squares
      by gamma_2 s, and the einsum adds gamma_D: |e - s| <= gamma_{D+2} R.
    The first minimum retrieves b only if fl(sqrt(e_b)) <= fl(sqrt(e_c)) for
    every c. Round-to-nearest sqrt then gives e_b <= (1 + gamma_4) e_c, that
    is, with both bounds, g_b - 2 gamma_{D+2} R_b <= g_c + (2 gamma_{D+2} +
    gamma_4 + O(D u^2)) R_c. tau = 4 gamma_{D+4} R exceeds the term on either
    side by at least (2D + 8) u R, which covers the rounding of tau, of
    g - tau and of g + tau (a few u R) while D u << 1. So every chart that
    may be retrieved has g_b - tau_b <= min_c (g_c + tau_c), and a re-rank
    of the kept charts in the difference form returns the chart and the
    distance bits of a scan of the whole block. For the k-th nearest: a chart
    b ranked among the first k by a stable sort of that scan has at least
    n - k + 1 candidates c, itself included, at or after it, each with
    g_b - tau_b <= g_c + tau_c; at most n - k candidates have an upper bound
    g_c + tau_c above the k-th smallest, so g_b - tau_b is at most that bound.

    Underflow adds at most D 2^-1075 per dot product; D * finfo.tiny covers it.
    tau is computed as gamma (2|a| + 2|b|)^2, and 4R overflows to inf before
    s or any term of g or e can. An inf tau, or inf - inf = NaN in g, makes
    g - tau -inf or NaN, or the row's bound NaN; the comparison below is then
    false, so the candidate stays, and a row that keeps all is a full scan.
    The partition sorts NaN upper bounds last: with m of them, the k-th
    smallest is NaN when k > n - m, and otherwise at most n - m - k bounds
    that are not NaN exceed it, while at least n - m - k + 1 candidates at
    or after b have one, so the argument above holds. The anchor's own cell
    is inf, which can only raise the k-th smallest.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = (dim + 4) * u / (1 - (dim + 4) * u)
    own = (np.arange(len(gram)), lo + np.arange(len(gram)))
    g = sq[lo : lo + len(gram), None] + sq[None, :]
    g -= 2.0 * gram
    tau = twice_norm[lo : lo + len(gram), None] + twice_norm[None, :]
    np.square(tau, out=tau)
    tau *= gamma
    tau += dim * np.finfo(np.float64).tiny
    upper = g + tau
    upper[own] = np.inf
    g -= tau
    upper.partition(k - 1, axis=1)
    keep = ~(g > upper[:, k - 1 : k])
    keep[own] = False
    return keep


# Scopes with fewer candidates are scanned whole: there the screen's matrix-
# vector product and its dozen numpy calls cost more than the scan they
# save. Measured per query at k = 5 on 540-dim vectors, one BLAS thread, as
# a multiple of the scan's time (median of 15 alternating repeats, random
# and trained vectors). A block of consecutive rows, multiplied in place:
# 1.5x at 23, 0.86-1.05x at 47, 0.73-0.88x at 63, 0.62-0.63x at 79, 0.5x
# at 119. A gathered block: 1.7-1.8x at 23, 1.1-1.2x at 47-63, 0.92-1.01x
# at 71, 0.88-0.97x at 79, 0.77-0.78x at 119, 0.67x at 999. The constant
# sits at the gathered crossover, so both layouts gain above it. On a
# collapsed model, where every candidate is a near-tie, 1.6x at 23.
_SCREEN_MIN_CANDIDATES = 80


def _scan(vectors: np.ndarray, point: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """_difference_distances from point to the candidates, in chunks that
    keep the gathered differences within _BLOCK_FLOATS."""
    dist = np.empty(len(candidates))
    step = max(1, _BLOCK_FLOATS // max(1, vectors.shape[1]))
    for lo in range(0, len(candidates), step):
        dist[lo : lo + step] = _difference_distances(vectors, point, candidates[lo : lo + step])
    return dist


def _screened(index: EmbeddingIndex, row: int, pool: np.ndarray, k: int) -> np.ndarray:
    """The charts of `pool` (ascending, holding row) that _near_ties keeps
    for the anchor row and its k nearest. A pool of consecutive rows, as
    scope "all" always is, is multiplied in place; any other is gathered in
    chunks of _BLOCK_FLOATS values."""
    vectors, first = index.vectors, int(pool[0])
    if pool[-1] - first + 1 == len(pool):
        rows = slice(first, first + len(pool))
        products = vectors[rows] @ vectors[row]
    else:
        rows = pool
        products = np.empty(len(pool))
        step = max(1, _BLOCK_FLOATS // max(1, vectors.shape[1]))
        for lo in range(0, len(pool), step):
            products[lo : lo + step] = vectors[pool[lo : lo + step]] @ vectors[row]
    lo = int(np.searchsorted(pool, row))
    keep = _near_ties(
        products[None, :], lo, index.sq[rows], index.twice_norm[rows], vectors.shape[1], k
    )
    return pool[keep[0]]


def nearest(
    index: EmbeddingIndex,
    anchor: str,
    scope: str = "same-dataset",
    k: int = 1,
) -> list[tuple[str, float]]:
    """Ranked (chart_id, distance) list, ascending; ties break on chart id.

    Scope "same-dataset" restricts candidates to the anchor's dataset;
    "all" considers every other chart. The anchor itself is excluded.
    The ids and distances are those of a scan in the exact difference form
    (_difference_distances). A scope of at least _SCREEN_MIN_CANDIDATES
    candidates is screened by its Gram form first, and only the candidates
    that may rank among the first k are scanned.
    """
    if scope not in ("same-dataset", "all"):
        raise EvaluationError(f"unknown scope {scope!r}")
    if anchor not in index.row:
        raise EvaluationError(f"unknown anchor {anchor!r}")
    if k < 1:
        raise EvaluationError("k must be >= 1")
    row = index.row[anchor]
    pool = np.arange(len(index)) if scope == "all" else index.blocks[index.dataset_ids[row]]
    if len(pool) < 2:
        raise EvaluationError(f"no candidates for anchor {anchor!r} in scope {scope}")
    # A difference beyond the float64 range is an infinite distance; Gram
    # terms that overflow make the screen keep every candidate.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(pool) - 1 < _SCREEN_MIN_CANDIDATES:
            candidates = pool[pool != row]
        else:
            candidates = _screened(index, row, pool, min(k, len(pool) - 1))
        dist = _scan(index.vectors, index.vectors[row], candidates)
    # Candidates are in chart-id order, so a stable sort breaks ties on id.
    ranked = np.argsort(dist, kind="stable")[:k]
    return [(index.ids[candidates[j]], float(dist[j])) for j in ranked]


@dataclass(frozen=True)
class AnchorDetail:
    anchor: str
    retrieved: Optional[str]
    distance: Optional[float]
    same_story: bool
    gap: Optional[int]
    top2: bool
    top3: bool
    cooccurrence: bool
    excluded: bool


@dataclass(frozen=True)
class MetricsReport:
    top2: float
    top3: float
    cooccurrence: float
    n_anchors: int
    n_excluded: int
    gap2: int
    gap3: int
    details: tuple[AnchorDetail, ...]


def compute_metrics(index: EmbeddingIndex, gap2: int = 2, gap3: int = 3) -> MetricsReport:
    """Score every anchor by its nearest same-dataset chart.

    The nearest chart and its distance are those of a scan in the exact
    difference form (_difference_distances), ties broken by chart id: one
    Gram product per chunk of anchors finds each anchor's near-ties, and
    only those are re-ranked. Anchors without a same-dataset candidate
    cannot be scored; they are excluded from the denominators and reported
    in the detail rows. Raises EvaluationError for a negative gap or gap2 > gap3.
    """
    if gap2 < 0 or gap3 < 0:
        raise EvaluationError(f"position gaps must be >= 0, got gap2={gap2} gap3={gap3}")
    if gap2 > gap3:
        raise EvaluationError(f"gap2 must be <= gap3, got gap2={gap2} gap3={gap3}")
    if len(index) == 0:
        raise EvaluationError("empty index")
    vectors = index.vectors
    retrieved = np.full(len(index), -1)
    distance = np.zeros(len(index))
    sq, twice_norm = index.sq, index.twice_norm
    # Large vectors overflow the Gram terms to inf or NaN, which makes
    # _near_ties keep every candidate, and their differences to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in index.blocks.values():
            if len(block) < 2:
                continue
            charts = vectors[block]
            step = max(1, _BLOCK_FLOATS // len(block))
            for lo in range(0, len(block), step):
                gram = charts[lo : lo + step] @ charts.T
                keep = _near_ties(gram, lo, sq[block], twice_norm[block], vectors.shape[1], 1)
                # The anchor is never kept. So when every distance overflows
                # to inf, the nearest is the block's first row, or its second
                # for the first row itself, as in nearest().
                anchors = block[lo : lo + step]
                retrieved[anchors], distance[anchors] = _nearest_kept(vectors, anchors, block, keep)

    details: list[AnchorDetail] = []
    hits2 = hits3 = hits_co = 0
    for row, anchor_id in enumerate(index.ids):
        match = int(retrieved[row])
        scored = match >= 0
        same_story = scored and index.story_ids[row] == index.story_ids[match]
        gap = abs(int(index.positions[row]) - int(index.positions[match])) if same_story else None
        top2 = same_story and gap <= gap2
        top3 = same_story and gap <= gap3
        hits2 += top2
        hits3 += top3
        hits_co += same_story
        details.append(
            AnchorDetail(
                anchor=anchor_id,
                retrieved=index.ids[match] if scored else None,
                distance=float(distance[row]) if scored else None,
                same_story=same_story, gap=gap, top2=top2, top3=top3,
                cooccurrence=same_story, excluded=not scored,
            )
        )
    scored = int((retrieved >= 0).sum())
    if scored == 0:
        raise EvaluationError("no scorable anchors (every dataset has one chart)")
    return MetricsReport(
        top2=hits2 / scored,
        top3=hits3 / scored,
        cooccurrence=hits_co / scored,
        n_anchors=scored,
        n_excluded=len(index) - scored,
        gap2=gap2,
        gap3=gap3,
        details=tuple(details),
    )


# Each ablation variant's EncoderConfig switches and loss mask (interpolation
# loss, hinge loss), in report order.
_VARIANTS: dict[str, tuple[dict, tuple[bool, bool]]] = {
    "full": ({}, (True, True)),
    "no-linear-interpolation": ({}, (False, True)),
    "no-classification": ({}, (True, False)),
    "no-fact-schema": ({"zero_schema": True}, (True, True)),
    "no-fact-semantics": ({"zero_semantics": True}, (True, True)),
    "no-word-pooling": ({"semantic_mode": "none"}, (True, True)),
    "words-avg-pooling": ({"semantic_mode": "words-average"}, (True, True)),
    "word-max-pooling": ({"semantic_mode": "word-max"}, (True, True)),
    "words-max-pooling": ({"semantic_mode": "words-max"}, (True, True)),
    "no-pos": ({"use_locations": False}, (True, True)),
    "no-fc": ({"use_fc": False}, (True, True)),
}
ABLATION_VARIANTS = tuple(_VARIANTS)


def variant_switches(variant: str, base: EncoderConfig) -> tuple[EncoderConfig, tuple[bool, bool]]:
    """Map a variant name to its (encoder config, loss mask) switch set."""
    if variant not in _VARIANTS:
        raise EvaluationError(f"unknown ablation variant {variant!r}")
    switches, loss_mask = _VARIANTS[variant]
    return replace(base, **switches), loss_mask


@dataclass(frozen=True)
class AblationResult:
    variant: str
    metrics: Optional[MetricsReport]
    wall_ms: float
    peak_bytes: Optional[int]  # None unless the run traced memory
    final_l1: Optional[float]
    final_l2: Optional[float]
    error: Optional[str] = None


def run_ablation(
    train_corpus: Corpus,
    eval_corpus: Corpus,
    store: VectorStore,
    hyper: HyperParams,
    variants: Sequence[str],
    seed: int,
    trace_memory: bool = False,
) -> list[AblationResult]:
    """Train and evaluate each variant from the same seed and corpus.

    A failing variant is flagged and the rest continue. With trace_memory,
    each variant runs inside tracemalloc and reports its peak traced bytes;
    tracing slows every allocation, so wall_ms then overstates the time.
    """
    if not variants:
        raise EvaluationError("no variants requested")
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise EvaluationError(f"unknown ablation variant {variant!r}")
    base = EncoderConfig(dropout=hyper.dropout)
    results: list[AblationResult] = []
    for variant in variants:
        started = time.perf_counter()
        if trace_memory:
            tracemalloc.start()
        metrics = final = error = None
        try:
            config, loss_mask = variant_switches(variant, base)
            sample_set = build_samples(train_corpus, store, 1, "same-dataset-first", seed, config)
            params = init_params(seed, config)
            params, history = train(sample_set, hyper, params, loss_mask)
            if eval_corpus is train_corpus:
                index = index_encoded(sample_set.encoded, params)
            else:
                index = build_index(eval_corpus, params, store)
            metrics = compute_metrics(index)
            final = history[-1] if history else None
            log.info(
                "variant %s: top2=%.3f top3=%.3f cooc=%.3f",
                variant, metrics.top2, metrics.top3, metrics.cooccurrence,
            )
        except Exception as exc:  # noqa: BLE001 - variant failures are data
            error = f"{type(exc).__name__}: {exc}"
            log.warning("variant %s failed: %s", variant, exc)
        finally:
            wall_ms = (time.perf_counter() - started) * 1000.0
            peak_bytes = None
            if trace_memory:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        results.append(
            AblationResult(
                variant=variant,
                metrics=metrics,
                wall_ms=wall_ms,
                peak_bytes=peak_bytes,
                final_l1=final.l1 if final and loss_mask[0] else None,
                final_l2=final.l2 if final and loss_mask[1] else None,
                error=error,
            )
        )
    return results


def ablation_csv(results: Sequence[AblationResult]) -> str:
    """CSV with one row per successful variant; the peak_bytes cell is empty
    when the run did not trace memory."""
    lines = ["variant,top2,top3,cooccurrence,wall_ms,peak_bytes"]
    for row in results:
        if row.metrics is None:
            continue
        lines.append(
            f"{row.variant},{row.metrics.top2:.6f},{row.metrics.top3:.6f},"
            f"{row.metrics.cooccurrence:.6f},{row.wall_ms:.1f},"
            f"{'' if row.peak_bytes is None else row.peak_bytes}"
        )
    return "\n".join(lines) + "\n"


def render_ablation_table(results: Sequence[AblationResult]) -> str:
    """Aligned text table; masked loss columns render as an em-free dash."""
    headers = ("variant", "top2", "top3", "cooc", "l1", "l2", "wall_ms", "status")
    rows = []
    for row in results:
        if row.metrics is None:
            rows.append((row.variant, "-", "-", "-", "-", "-", f"{row.wall_ms:.0f}", row.error or "failed"))
            continue
        rows.append(
            (
                row.variant,
                f"{row.metrics.top2:.3f}",
                f"{row.metrics.top3:.3f}",
                f"{row.metrics.cooccurrence:.3f}",
                "-" if row.final_l1 is None else f"{row.final_l1:.3f}",
                "-" if row.final_l2 is None else f"{row.final_l2:.3f}",
                f"{row.wall_ms:.0f}",
                "ok",
            )
        )
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i]) for i in range(len(headers))]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for r in rows:
        out.append("  ".join(str(r[i]).ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(out) + "\n"


def render_metrics(report: MetricsReport) -> str:
    return (
        f"anchors scored  {report.n_anchors}\n"
        f"anchors skipped {report.n_excluded}\n"
        f"top-2 accuracy  {report.top2:.4f}  (gap <= {report.gap2})\n"
        f"top-3 accuracy  {report.top3:.4f}  (gap <= {report.gap3})\n"
        f"co-occurrence   {report.cooccurrence:.4f}\n"
    )


def metrics_json(report: MetricsReport) -> dict:
    return {
        "top2": report.top2,
        "top3": report.top3,
        "cooccurrence": report.cooccurrence,
        "n_anchors": report.n_anchors,
        "n_excluded": report.n_excluded,
        "gap2": report.gap2,
        "gap3": report.gap3,
        "details": [
            {
                "anchor": d.anchor,
                "retrieved": d.retrieved,
                # JSON has no infinity: a distance that overflowed is null.
                "distance": (
                    d.distance if d.distance is not None and math.isfinite(d.distance) else None
                ),
                "same_story": d.same_story,
                "gap": d.gap,
                "top2": d.top2,
                "top3": d.top3,
                "cooccurrence": d.cooccurrence,
                "excluded": d.excluded,
            }
            for d in report.details
        ],
    }


def _cell(negative: bool, exponent: Optional[int], kept: int) -> tuple[bytes, list]:
    """A "\\t%.17g" cell as (prefix, region): constant bytes, then one item
    per byte, the index of one of the 17 significant digits or a constant
    byte. `exponent` is None for a zero; `kept` counts the digits left once
    trailing zeros are stripped. Region byte r holds digit r or, after a
    point, digit r - 1."""
    prefix = b"\t-" if negative else b"\t"
    if exponent is None:
        return prefix + b"0", []
    if exponent < -4:  # d.ddde-0N
        fraction = [b".", *range(1, kept)] if kept > 1 else []
        return prefix, [0, *fraction, b"e", b"-", b"0", str(-exponent).encode()]
    if exponent < 0:  # 0.000ddd
        return prefix + b"0." + b"0" * (-exponent - 1), list(range(kept))
    whole = exponent + 1  # ddd.ddd
    fraction = [b".", *range(whole, kept)] if kept > whole else []
    return prefix, [*range(whole), *fraction]


# _format_rows writes a cell as four little-endian words: word 0 the prefix,
# words 1-3 the region, as (digits & A) | (digits shifted one byte & B) | C,
# with the masks A and B and the constant bytes C looked up by the cell's
# code (sign, exponent slot, kept digits - 1). Exponent slot 0-22 stands for
# -6..16 and slot 23 for a zero. Unused bytes are NUL, which one translate
# drops.
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    cells = [
        _cell(negative, None if slot == 23 else slot - 6, kept)
        for negative in (False, True) for slot in range(24) for kept in range(1, 18)
    ]
    tables = np.zeros((3, len(cells), 32), dtype=np.uint8)  # C, A, B
    for code, (prefix, region) in enumerate(cells):
        tables[0, code, : len(prefix)] = list(prefix)
        for r, item in enumerate(region):
            if isinstance(item, bytes):
                tables[0, code, 8 + r] = item[0]
            else:  # A for digit r, B for digit r - 1
                tables[1 + r - item, code, 8 + r] = 0xFF
    lengths = np.array([len(prefix) + len(region) for prefix, region in cells], dtype=np.intp)
    constants, digits, shifted = tables.view("<u8")
    return constants, digits, shifted, lengths


_CELL_CONSTANTS, _CELL_DIGITS, _CELL_SHIFTED, _CELL_LENGTHS = _cell_tables()
# Four ASCII digits of 0-9999 as the low bytes of a little-endian word, and
# their trailing zeros (4 for 0000).
_GROUP_WORDS = np.array(
    [int.from_bytes(f"{g:04d}".encode(), "little") for g in range(10_000)], dtype=np.uint64
)
_GROUP_ZEROS = np.array([4 - len(f"{g:04d}".rstrip("0")) for g in range(10_000)], dtype=np.intp)
# 10**s for s = 0..22, each an exact double, and its Veltkamp halves.
_SPLITTER = 2.0**27 + 1.0
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_FORMAT_CELLS = 8192  # cells per block of _format_rows: about 3 MB of temporaries


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s exactly, as p + err (Dekker's TwoProduct)."""
    hi, lo = _POW10_HI[s], _POW10_LO[s]
    p = a * _POW10[s]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return p, a_lo * lo - (((p - a_hi * hi) - a_lo * hi) - a_hi * lo)


def _format_rows(vectors: np.ndarray) -> list[memoryview]:
    """Each row's bytes of "\\t%.17g" per cell, for a block whose cells are
    all ±0 or 1e-6 < |x| < 1e17. (The double 1e-6 lies below 10**-6; its
    digits would need 10**23, which is inexact.)

    A nonzero |x| is D * 10**(k - 16), D its 17 significant digits, rounded
    half to even from the exact product |x| * 10**(16 - k)."""
    rows, dim = vectors.shape
    x = vectors.ravel()
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, -6, 16, out=k)
    p, err = _scaled(a, 16 - k)
    # log10 can miss a power of ten by an ulp: move k where the floor of the
    # product is outside [1e16, 1e17).
    low = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        k[wrong] += high[wrong].astype(np.intp) - low[wrong]
        p[wrong], err[wrong] = _scaled(a[wrong], 16 - k[wrong])
    floor = np.floor(err)
    digits = p.astype(np.int64) + floor.astype(np.int64)
    half = floor + 0.5
    digits += (err > half) | ((err == half) & (digits & 1 == 1))
    # No carry to 10**17: 17 digits round up to 10**k only from within a
    # relative 5e-18 of it, closer than any double below it in this range.

    lead, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    zeros = _GROUP_ZEROS[groups[0]]
    for group in groups[1:]:
        zeros = _GROUP_ZEROS[group] + (group == 0) * zeros
    k += 6
    k[zero] = 23
    code = (np.signbit(x) * 24 + k) * 17 + 16 - zeros

    # Words 1-3 of each cell: its 17 digits at region bytes 0-16, and the
    # same shifted one byte up.
    g1, g2, g3, g4 = (_GROUP_WORDS[group] for group in groups)
    digit_words = np.zeros((len(x), 4), dtype=np.uint64)
    digit_words[:, 1] = (lead + ord("0")).astype(np.uint64) | g1 << 8 | g2 << 40
    digit_words[:, 2] = g2 >> 24 | g3 << 8 | g4 << 40
    digit_words[:, 3] = g4 >> 24
    shifted = digit_words << 8
    shifted[:, 2:] |= digit_words[:, 1:3] >> 56
    words = _CELL_CONSTANTS[code]
    for masks, source in ((_CELL_DIGITS, digit_words), (_CELL_SHIFTED, shifted)):
        mask = masks[code]
        mask &= source
        words |= mask
    text = memoryview(words.astype("<u8", copy=False).tobytes().translate(None, b"\0"))
    ends = np.cumsum(_CELL_LENGTHS[code].reshape(rows, dim).sum(axis=1)).tolist()
    return [text[start:end] for start, end in zip([0] + ends, ends)]


def save_index(index: EmbeddingIndex, path: str) -> None:
    """Write the index as TSV with 17-significant-digit floats (lossless):
    each cell holds the bytes of "%.17g".

    Blocks of rows are formatted by _format_rows; a row holding a cell that
    it does not cover (non-finite, |x| <= 1e-6 or |x| >= 1e17) takes one `%`
    of a "\\t%.17g" template instead."""
    dim = index.vectors.shape[1]
    template = "\t%.17g" * dim
    step = max(1, _FORMAT_CELLS // max(dim, 1))
    with open(path, "wb") as fh:
        header = ["chart_id", "story_id", "position", "dataset_id"]
        header += [f"v{i + 1}" for i in range(dim)]
        fh.write(("\t".join(header) + "\n").encode())
        columns = list(zip(index.ids, index.story_ids, index.positions.tolist(), index.dataset_ids))
        for lo in range(0, len(columns), step):
            block = index.vectors[lo : lo + step]
            a = np.abs(block)
            covered = (((a > 1e-6) & (a < 1e17)) | (a == 0.0)).all(axis=1)
            formatted = iter(_format_rows(block[covered]))
            pieces = []
            for cells, vector, fast in zip(columns[lo : lo + step], block, covered.tolist()):
                pieces.append(("%s\t%s\t%d\t%s" % cells).encode())
                pieces.append(next(formatted) if fast else (template % tuple(vector.tolist())).encode())
                pieces.append(b"\n")
            fh.write(b"".join(pieces))


def load_index(path: str) -> EmbeddingIndex:
    """Read an index TSV. Raises EvaluationError, naming the line, for a
    wrong field count, a position that is not an int64, or a vector cell that
    is not a finite number; and for a duplicate chart id or a non-UTF-8 file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:4] != ["chart_id", "story_id", "position", "dataset_id"]:
                raise EvaluationError(f"{path}: not an embedding index file")
            dim = len(header) - 4
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 4 + dim:
                    raise EvaluationError(f"{path}:{lineno}: expected {4 + dim} fields")
                try:
                    position = np.int64(parts[2])  # int() syntax, int64 range
                except (ValueError, OverflowError):
                    raise EvaluationError(
                        f"{path}:{lineno}: position {parts[2]!r} is not an integer within int64"
                    ) from None
                try:
                    vector = np.array(parts[4:], dtype=np.float64)
                except ValueError:
                    raise EvaluationError(f"{path}:{lineno}: non-numeric vector cell") from None
                if not np.isfinite(vector).all():
                    raise EvaluationError(f"{path}:{lineno}: non-finite vector cell")
                rows.append((parts[0], parts[1], position, parts[3], vector))
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"{path}: not a UTF-8 text file: {exc}") from None
    chart_ids, story_ids, positions, dataset_ids, vectors = list(zip(*rows)) or [()] * 5
    return EmbeddingIndex(
        chart_ids, story_ids, positions, dataset_ids, np.array(vectors).reshape(len(rows), dim)
    )

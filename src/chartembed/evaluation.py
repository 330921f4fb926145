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
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, EncodedCorpus, build_samples, encode_corpus
from .encoder import EncoderConfig, EncoderParams, check_setting, forward_batch, init_params
from .learning import HyperParams, train
from .semantics import VectorStore

log = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Raised for unknown anchors, empty indexes, and scope errors."""


class EmbeddingIndex:
    """Charts as columns in chart-id order, with one (N, D) vector matrix.

    `row` maps a chart id to its row; `blocks` maps a dataset id to its rows,
    ascending, so every block is in chart-id order too. `sq` and `twice_norm`
    hold each row's squared norm and twice its norm. The index keeps the
    array it is given, not a copy, when its rows are already in chart-id
    order and it is C-contiguous float64; otherwise it keeps a sorted copy.
    Raises EvaluationError naming the lengths when the four columns and the
    matrix's rows differ, or when the matrix is not 2-D.
    """

    def __init__(
        self,
        chart_ids: Sequence[str],
        story_ids: Sequence[str],
        positions: Sequence[int],
        dataset_ids: Sequence[str],
        vectors: np.ndarray,
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise EvaluationError(f"vectors: expected a 2-D matrix, got {vectors.ndim}-D")
        lengths = (len(chart_ids), len(story_ids), len(positions), len(dataset_ids), len(vectors))
        if len(set(lengths)) > 1:
            raise EvaluationError(
                "index columns differ in length: {} chart ids, {} story ids, {} positions, "
                "{} dataset ids and {} vector rows".format(*lengths)
            )
        order = sorted(range(len(chart_ids)), key=chart_ids.__getitem__)
        self.ids = tuple(chart_ids[i] for i in order)
        self.row = {chart_id: row for row, chart_id in enumerate(self.ids)}
        if len(self.row) != len(self.ids):
            duplicate = next(a for a, b in zip(self.ids, self.ids[1:]) if a == b)
            raise EvaluationError(f"duplicate chart id {duplicate!r}")
        self.story_ids = tuple(story_ids[i] for i in order)
        self.positions = np.asarray(positions, dtype=np.int64)[order]
        self.dataset_ids = tuple(dataset_ids[i] for i in order)
        in_order = order == list(range(len(order)))
        self.vectors = np.ascontiguousarray(vectors if in_order else vectors[order])
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


# index_encoded embeds this many rows per forward, so that its transient
# memory is one chunk's, not the corpus's: on 16,000 charts RSS grows by
# 150 MB at 1,024 rows and 191 MB at 2,048, in the same time. BLAS blocks a
# GEMM by its row count, so the chunk size can move an embedding's last
# bits; at least 600, the benchmark's largest index, keeps its index bytes
# those of one forward.
_EMBED_ROWS = 1024


def index_encoded(encoded: EncodedCorpus, params: EncoderParams) -> EmbeddingIndex:
    """build_index for a corpus already encoded under params.config: one
    inference forward per _EMBED_ROWS consecutive rows, written straight to
    the rows of their chart ids, so that the index keeps the output."""
    if not len(encoded):
        return EmbeddingIndex((), (), (), (), np.zeros((0, 0)))
    order = sorted(range(len(encoded)), key=encoded.chart_ids.__getitem__)
    row = np.empty(len(order), dtype=np.intp)
    row[order] = np.arange(len(order))
    vectors = np.empty((len(encoded), params.config.embedding_dim))
    for lo in range(0, len(encoded), _EMBED_ROWS):
        rows = slice(lo, lo + _EMBED_ROWS)
        # An overflow shows up as the non-finite embedding reported below.
        with np.errstate(all="ignore"):
            chunk, _ = forward_batch(*encoded.rows(rows), params, train=False)
        vectors[row[rows]] = chunk
        finite = np.isfinite(chunk).all(axis=1)
        if not finite.all():
            first = encoded.chart_ids[lo + int(finite.argmin())]
            raise EvaluationError(f"non-finite embedding for chart {first!r} (values overflow)")
    columns = (encoded.chart_ids, encoded.vis_ids, encoded.positions, encoded.dataset_ids)
    return EmbeddingIndex(*([column[i] for i in order] for column in columns), vectors)


_BLOCK_FLOATS = 1 << 20  # bounds one Gram slab and one block of anchor-candidate differences
_U, _TINY = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny  # for _near_ties


def _rows(block: np.ndarray) -> slice | np.ndarray:
    """A block's ascending rows: a slice, read in place, if they are consecutive."""
    first = int(block[0])
    return slice(first, first + len(block)) if block[-1] - first + 1 == len(block) else block


def _difference_distances(charts: np.ndarray, points: np.ndarray, columns) -> np.ndarray:
    """Euclidean distances sqrt(sum((b - a)^2)) over the last axis from
    `points`, broadcast, to the rows at `columns` of `charts`, one block or
    the index matrix, in the exact difference form: an index array is
    gathered once and the anchors subtracted in place; a range of
    consecutive rows is read in place and subtracted into a new array. The
    expansion |a|^2 + |b|^2 - 2ab can flip near-ties: compute_metrics and
    nearest rank by it only to find each anchor's near-ties (_near_ties),
    and re-rank those here."""
    if isinstance(columns, np.ndarray):
        diff = charts[columns]
        diff -= points
    else:
        diff = charts[columns.start : columns.stop] - points
    return np.sqrt(np.einsum("...d,...d->...", diff, diff))


def _nearest_kept(charts: np.ndarray, lo: int, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(column, distance) of the nearest chart of each anchor lo, lo + 1, ...
    of the block `charts` among the columns that its row of `keep` marks, to
    the bits of _difference_distances; ties go to the first column. Rows are
    padded to the longest row, and tiles keep the differences within
    _BLOCK_FLOATS."""
    rows, cols = np.nonzero(keep)
    counts = np.bincount(rows, minlength=len(keep))
    starts = np.cumsum(counts) - counts
    # Each row's kept columns, ascending, then copies of its first.
    columns = np.repeat(cols[starts][:, None], counts.max(), axis=1)
    columns[rows, np.arange(len(rows)) - starts[rows]] = cols
    width, dim = columns.shape[1], charts.shape[1]
    anchors = charts[lo : lo + len(keep), None, :]
    dist = np.empty(columns.shape)
    rows_step = max(1, _BLOCK_FLOATS // max(1, width * dim))
    cols_step = max(1, _BLOCK_FLOATS // max(1, rows_step * dim))
    for r in range(0, len(keep), rows_step):
        points = anchors[r : r + rows_step]
        for c in range(0, width, cols_step):
            tile = columns[r : r + rows_step, c : c + cols_step]
            dist[r : r + rows_step, c : c + cols_step] = _difference_distances(charts, points, tile)
    dist[np.arange(width) >= counts[:, None]] = np.inf
    # argmin takes the first minimum, which has the smallest chart id.
    best = np.argmin(dist, axis=1)
    own = np.arange(len(keep))
    return columns[own, best], dist[own, best]


def _near_ties(
    charts: np.ndarray, lo: int, hi: int, sq: np.ndarray, twice_norm: np.ndarray, k: int
) -> np.ndarray:
    """Keep mask over the block `charts`' anchors lo .. hi - 1 (rows) and all
    of its charts (columns), from their Gram slab and the block's squared and
    doubled norms: every candidate whose _difference_distances value may tie
    with or beat the anchor's k-th nearest chart, but not the anchor. k is at
    most the number of candidates, len(charts) - 1.

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
    gram = charts[lo:hi] @ charts.T
    dim, n = charts.shape[1], len(gram)
    gamma = (dim + 4) * _U / (1 - (dim + 4) * _U)
    own = (0, lo) if n == 1 else (np.arange(n), lo + np.arange(n))
    g = sq[lo : lo + n, None] + sq
    g -= 2.0 * gram
    tau = twice_norm[lo : lo + n, None] + twice_norm
    np.square(tau, out=tau)
    tau *= gamma
    tau += dim * _TINY
    upper = g + tau
    upper[own] = np.inf
    g -= tau
    upper.partition(k - 1, axis=1)
    keep = ~(g > upper[:, k - 1 : k])
    keep[own] = False
    return keep


# Scopes with fewer candidates are scanned whole: there the screen's one-row
# Gram product and its dozen numpy calls cost more than the scan they save.
# Measured per query at k = 5 on 540-dim vectors, one BLAS thread, as a
# multiple of the scan's time (median of 15 alternating repeats, random and
# trained vectors, two runs each). A block of consecutive rows, read in place
# on both paths: 1.1-1.3x at 23, 0.81-0.93x at 47, 0.60-0.80x at 63, 0.55-
# 0.65x at 79, 0.40-0.47x at 119. A gathered block, copied whole for the
# screen: 1.2-1.4x at 23, 0.98-1.08x at 47, 0.84-1.00x at 63, 0.77-0.82x at
# 79, 0.71-0.75x at 119. The constant sits at the gathered crossover, so both
# layouts gain above it. On a collapsed model, where every candidate is a
# near-tie, 1.2-1.5x on consecutive and 1.5-1.8x on gathered blocks at every
# size.
_SCREEN_MIN_CANDIDATES = 48


def _scan(vectors: np.ndarray, point: np.ndarray, columns) -> np.ndarray:
    """_difference_distances from point to the charts at `columns`, an index
    array or a slice of consecutive rows, one call per chunk that keeps the
    differences within _BLOCK_FLOATS."""
    step = max(1, _BLOCK_FLOATS // max(1, vectors.shape[1]))
    span = range(len(vectors))[columns] if isinstance(columns, slice) else columns
    if len(span) <= step:
        return _difference_distances(vectors, point, span)
    dist = np.empty(len(span))
    for lo in range(0, len(span), step):
        dist[lo : lo + step] = _difference_distances(vectors, point, span[lo : lo + step])
    return dist


QUERY_RULES = {
    "k": (int, ">= 1", lambda v: v >= 1),
    **dict.fromkeys(("gap2", "gap3"), (int, ">= 0", lambda v: v >= 0)),
}


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
    that may rank among the first k are scanned. A scope of consecutive rows,
    as "all" always is, is read in place.
    """
    if scope not in ("same-dataset", "all"):
        raise EvaluationError(f"unknown scope {scope!r}")
    if anchor not in index.row:
        raise EvaluationError(f"unknown anchor {anchor!r}")
    k = check_setting("k", k, QUERY_RULES["k"], EvaluationError)
    row = index.row[anchor]
    rows = slice(0, len(index)) if scope == "all" else _rows(index.blocks[index.dataset_ids[row]])
    if isinstance(rows, slice):
        n, own = rows.stop - rows.start, row - rows.start
    else:
        n, own = len(rows), int(np.searchsorted(rows, row))
    if n < 2:
        raise EvaluationError(f"no candidates for anchor {anchor!r} in scope {scope}")
    k = min(k, n - 1)
    # A difference beyond the float64 range is an infinite distance; Gram
    # terms that overflow make the screen keep every candidate. Candidates
    # are in chart-id order, so a stable sort breaks ties on id.
    with np.errstate(over="ignore", invalid="ignore"):
        if n - 1 < _SCREEN_MIN_CANDIDATES:
            dist = _scan(index.vectors, index.vectors[row], rows)
            order = np.argsort(dist, kind="stable")
            # Dropped after the stable sort, the anchor moves no tie.
            order = order[order != own][:k]
            hits = order + rows.start if isinstance(rows, slice) else rows[order]
        else:
            # The screen's copy of a gathered scope is freed before the scan
            # gathers the kept charts: holding both cost 3-4x when all are kept.
            keep = _near_ties(
                index.vectors[rows], own, own + 1, index.sq[rows], index.twice_norm[rows], k
            )[0]
            kept = np.flatnonzero(keep) + rows.start if isinstance(rows, slice) else rows[keep]
            dist = _scan(index.vectors, index.vectors[row], kept)
            order = np.argsort(dist, kind="stable")[:k]
            hits = kept[order]
    return [(index.ids[h], d) for h, d in zip(hits.tolist(), dist[order].tolist())]


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
    in the detail rows. Raises EvaluationError for a bad gap or gap2 > gap3.
    """
    gap2 = check_setting("gap2", gap2, QUERY_RULES["gap2"], EvaluationError)
    gap3 = check_setting("gap3", gap3, QUERY_RULES["gap3"], EvaluationError)
    if gap2 > gap3:
        raise EvaluationError(f"gap2: must be <= gap3 ({gap3}), got {gap2}")
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
            # A block of consecutive rows is read in place, as in nearest().
            rows = _rows(block)
            charts, block_sq, block_twice_norm = vectors[rows], sq[rows], twice_norm[rows]
            step = max(1, _BLOCK_FLOATS // len(block))
            for lo in range(0, len(block), step):
                keep = _near_ties(charts, lo, lo + step, block_sq, block_twice_norm, 1)
                # The anchor is never kept. So when every distance overflows
                # to inf, the nearest is the block's first row, or its second
                # for the first row itself, as in nearest().
                anchors = block[lo : lo + step]
                best, distance[anchors] = _nearest_kept(charts, lo, keep)
                retrieved[anchors] = block[best]

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
    out = asdict(report)
    for detail in out["details"]:
        # JSON has no infinity: a distance that overflowed is null.
        if detail["distance"] is not None and not math.isfinite(detail["distance"]):
            detail["distance"] = None
    return out


def _cell(negative: bool, exponent: Optional[int], kept: int) -> tuple[bytes, list]:
    """A "\\t%.17g" cell as (prefix, region): constant bytes, then one item
    per byte, the index of one of the 17 significant digits or a constant
    byte. `exponent` is None for a zero; `kept` counts the digits left once
    trailing zeros are stripped. Region byte r holds digit r or, after a
    point, digit r - 1."""
    prefix = b"\t-" if negative else b"\t"
    if exponent is None:
        return prefix + b"0", []
    if exponent < -4:  # d.ddde-NN, at least two exponent digits
        fraction = [b".", *range(1, kept)] if kept > 1 else []
        return prefix, [0, *fraction, b"e", b"-", *(bytes([c]) for c in b"%02d" % -exponent)]
    if exponent < 0:  # 0.000ddd
        return prefix + b"0." + b"0" * (-exponent - 1), list(range(kept))
    whole = exponent + 1  # ddd.ddd
    fraction = [b".", *range(whole, kept)] if kept > whole else []
    return prefix, [*range(whole), *fraction]


# The decimal exponents that _format_rows writes and _read_cells proves:
# ±0 and 1e-22 <= |x| < 1e17 (the double 1e-22 lies above 10**-22).
_MIN_EXPONENT, _MAX_EXPONENT = -22, 16
_EXPONENTS = _MAX_EXPONENT - _MIN_EXPONENT + 1
_ZERO_SLOT = _EXPONENTS
# _read_cells finds a cell's template by one lookup of its dense key: its
# sign; its length with the leading tab (25 for any longer); the offset of
# its first "." (its length if none); NN + 1 when it ends in "e-NN" with
# NN <= 22, else 0; and 0 unless it starts "0." after the sign, else 1 plus
# the "0"s that follow, at most 3. The key fixes every constant byte of a
# template.
_KEY_LENGTHS, _KEY_TAILS, _KEY_ZEROS = 26, 24, 5


def _key(sign, length, dot, tail, zeros):
    """The key of a template's features (ints) or, elementwise, of arrays of cells'."""
    key = sign * _KEY_LENGTHS
    key += length
    key *= _KEY_LENGTHS
    key += dot
    key *= _KEY_TAILS
    key += tail
    key *= _KEY_ZEROS
    key += zeros
    return key


# _format_rows writes a cell as four little-endian words: word 0 the prefix,
# words 1-3 the region, as (digits & A) | (digits shifted one byte & B) | C,
# with the masks A and B and the constant bytes C looked up by the cell's
# code (sign, exponent slot, kept digits - 1). Exponent slot 0-38 stands for
# -22..16 and slot 39 for a zero. Unused bytes are NUL, which one translate
# drops. _read_cells looks the code up by key, shifts the prefix out, takes
# the digits of A in place and the others from one byte up, "0" past the
# digits (mask S: byte i set for digit i), and scales by 16 - exponent.
def _cell_tables() -> tuple[np.ndarray, ...]:
    cells = [
        (negative, None if slot == _ZERO_SLOT else slot + _MIN_EXPONENT, kept)
        for negative in (False, True) for slot in range(_EXPONENTS + 1) for kept in range(1, 18)
    ]
    size = 32 * len(cells)
    tables = bytearray(4 * size)  # C, A, B, S
    lengths, shift, scale = (np.zeros(len(cells), dtype=dtype) for dtype in (np.intp, np.uint64, np.intp))
    code_of = np.full(2 * _KEY_LENGTHS * _KEY_LENGTHS * _KEY_TAILS * _KEY_ZEROS, -1, dtype=np.int16)
    reads = {}
    for code, (negative, exponent, kept) in enumerate(cells):
        prefix, region = _cell(negative, exponent, kept)
        tables[32 * code : 32 * code + len(prefix)] = prefix
        for r, item in enumerate(region):
            if isinstance(item, bytes):
                tables[32 * code + 8 + r] = item[0]
            else:  # A for digit r, B for digit r - 1
                tables[(1 + r - item) * size + 32 * code + 8 + r] = 0xFF
                tables[3 * size + 32 * code + 8 + item] = 0xFF
        lengths[code] = len(prefix) + len(region)
        if exponent is None:  # a zero has the key of "d", which reads it
            continue
        shift[code], scale[code] = 8 * len(prefix), 16 - exponent
        text = prefix + b"".join(item if isinstance(item, bytes) else b"1" for item in region)
        key = _key(negative, len(text), (text + b".").index(b"."),
                   1 - exponent if exponent < -4 else 0, -exponent if -4 <= exponent < 0 else 0)
        # Templates that share a key are one template, so they read alike.
        assert reads.setdefault(key, (prefix, region, exponent)) == (prefix, region, exponent), text
        code_of[key] = code
    constants, digits, shifted, every = np.frombuffer(bytes(tables), dtype="<u8").reshape(
        4, len(cells), 4).transpose(0, 2, 1).copy()
    return constants, digits[1:], shifted[1:], lengths, code_of, shift, scale, every[1:]


# By code: _CELL_CONSTANTS[j] is C of word j; _CELL_DIGITS, _CELL_SHIFTED and
# _READ_DIGITS [j - 1] are A, B and S of word j (all zero in word 0).
(_CELL_CONSTANTS, _CELL_DIGITS, _CELL_SHIFTED, _CELL_LENGTHS,
 _CODE_OF_KEY, _READ_SHIFT, _READ_SCALE, _READ_DIGITS) = _cell_tables()
# Four ASCII digits of 0-9999 as the low bytes of a little-endian word, and
# their trailing zeros (4 for 0000).
_GROUP_WORDS = np.array(
    [int.from_bytes(f"{g:04d}".encode(), "little") for g in range(10_000)], dtype=np.uint64
)
_GROUP_ZEROS = np.array([4 - len(f"{g:04d}".rstrip("0")) for g in range(10_000)], dtype=np.intp)
# 10**n = 2**n * 5**n for n = 0..38. 5**n is _FIVE_HI + _FIVE_LO exactly:
# 5**38 has 89 bits, so the low part holds at most 36, and it is 0 up to
# 5**22. _FIVE_HI is split in Veltkamp halves for Dekker's TwoProduct.
_SPLITTER = 2.0**27 + 1.0
_MAX_SCALE = 16 - _MIN_EXPONENT
_FIVE_HI = np.array([float(5**n) for n in range(_MAX_SCALE + 1)])
_FIVE_LO = np.array([float(5**n - int(float(5**n))) for n in range(_MAX_SCALE + 1)])
_FIVE_HH = _FIVE_HI * _SPLITTER - (_FIVE_HI * _SPLITTER - _FIVE_HI)
_FIVE_HL = _FIVE_HI - _FIVE_HH
_TWO_POW = 2.0 ** np.arange(_MAX_SCALE + 1)
# Where 5**n is inexact (n > 22), the computed remainder of _scaled may be
# off by a few 1e-15: a rounding within _TIE_MARGIN of a half is not decided.
_EXACT_SCALE = 22
_TIE_MARGIN = 2.0**-30
_FORMAT_CELLS = 8192  # cells per block of _format_rows: a traced peak of 0.98 MB


def _two_product(a: np.ndarray, s: np.ndarray, five: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * five exactly, as p + err, where five is _FIVE_HI[s] (Dekker's
    TwoProduct, its sums in his order)."""
    p = a * five
    a_hi = a * _SPLITTER
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    five_part = np.take(_FIVE_HH, s)
    err = a_hi * five_part
    err -= p
    five_part *= a_lo
    err += five_part
    np.take(_FIVE_HL, s, out=five_part, mode="clip")  # s is in range: _FIVE_HH took it
    a_hi *= five_part
    err += a_hi
    a_lo *= five_part
    err += a_lo
    return p, err


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s as p + err, p the rounded product and err the remainder:
    exact for s <= 22, within a few 1e-15 above. a * 2**s is exact, then
    a * 5**s takes one TwoProduct on its high part and a Fast2Sum with its
    low part, whose own rounding is the only error."""
    a = a * np.take(_TWO_POW, s)
    p, err = _two_product(a, s, np.take(_FIVE_HI, s))
    if s.max(initial=0) > _EXACT_SCALE:
        low = a * np.take(_FIVE_LO, s)
        total = p + low
        p -= total
        p += low
        err += p
        p = total
    return p, err


def _decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, decided) for doubles 1e-22 <= a < 1e17: a is D * 10**(k - 16)
    once D, its 17 significant digits, is rounded half to even from the
    exact product a * 10**(16 - k). `decided` is false where 10**(16 - k) is
    not a double and the product lies within _TIE_MARGIN of a half; D is
    then unproven. `%.17g` prints D and k, and each double has one such
    (D, k), so a cell whose text has the value D * 10**(k - 16) reads back
    as a itself: the writer's digits prove the reader's double."""
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    np.maximum(k, _MIN_EXPONENT, out=k)
    np.minimum(k, _MAX_EXPONENT, out=k)
    s = 16 - k
    p, err = _scaled(a, s)
    # log10 can miss a power of ten by an ulp: move k where the floor of the
    # product is outside [1e16, 1e17).
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if near.size:
        p_near, err_near = p[near], err[near]
        low = (p_near < 1e16) | ((p_near == 1e16) & (err_near < 0.0))
        high = (p_near > 1e17) | ((p_near == 1e17) & (err_near >= 0.0))
        move = high.astype(np.intp) - low
        wrong = near[move != 0]
        if wrong.size:
            k[wrong] += move[move != 0]
            s[wrong] = 16 - k[wrong]
            p[wrong], err[wrong] = _scaled(a[wrong], s[wrong])
    half = np.floor(err)
    digits = half.astype(np.int64)
    digits += p.astype(np.int64)
    half += 0.5
    up = err > half
    ties = np.flatnonzero(err == half)
    up[ties] = digits[ties] & 1 == 1
    digits += up
    if s.max(initial=0) > _EXACT_SCALE:
        err -= half
        decided = (np.abs(err) > _TIE_MARGIN) | (s <= _EXACT_SCALE)
    else:
        decided = np.ones(len(a), dtype=bool)
    # 17 digits round up to 10**17 only from within a relative 5e-18 of a
    # power of ten: in this range, from the double 1e-14 alone.
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    k[carry] += 1
    return digits, k, decided


def _format_rows(vectors: np.ndarray) -> list[Optional[memoryview]]:
    """Each row's bytes of "\\t%.17g" per cell, or None for a row holding a
    cell that _decimal_digits does not prove: one that is not ±0 or
    1e-22 <= |x| < 1e17, or an undecided one. Each temporary is dropped
    when it dies."""
    rows, dim = vectors.shape
    x = vectors.ravel()
    a = np.abs(x)
    zero = a == 0.0
    covered = (a >= 1e-22) & (a < 1e17)
    covered |= zero
    a[~covered | zero] = 1.0
    digits, k, decided = _decimal_digits(a)
    del a
    decided |= zero
    covered &= decided
    proven = covered.reshape(rows, dim).all(axis=1)
    del covered, decided

    # The lead digit and four groups of four, by floor division and a
    # multiply-subtract in place (np.divmod takes about three times as long).
    lead = digits // 10**16
    digits -= lead * 10**16
    upper = digits // 10**8
    digits -= upper * 10**8
    groups = []
    for part in (upper, digits):
        high = part // 10**4
        part -= high * 10**4
        groups += [high, part]
    del upper, digits, high, part
    zeros = np.take(_GROUP_ZEROS, groups[0])
    for group in groups[1:]:
        zeros *= group == 0
        zeros += np.take(_GROUP_ZEROS, group)
    code = k
    code -= _MIN_EXPONENT
    code[zero] = _ZERO_SLOT
    code *= 17
    code += 16
    code -= zeros
    code += np.signbit(x) * ((_EXPONENTS + 1) * 17)
    del k, zeros

    # Words 1-3 of each cell, one contiguous column each: its 17 digits at
    # region bytes 0-16, and the same digits shifted one byte up.
    g1, g2, g3, g4 = (np.take(_GROUP_WORDS, group) for group in groups)
    del groups
    w1 = g1 << 8
    w1 |= (lead + ord("0")).astype(np.uint64)
    w1 |= g2 << 40
    w2 = g2 >> 24
    w2 |= g3 << 8
    w2 |= g4 << 40
    w3 = g4 >> 24
    del lead, g1, g2, g3, g4
    s1, s2, s3 = w1 << 8, w2 << 8, w3 << 8
    s2 |= w1 >> 56
    s3 |= w2 >> 56
    # Codes are in range, so mode="clip" takes into `table` without a buffer.
    # Each word's last OR writes its column of the interleaved cells.
    table = np.empty_like(w1)
    words = np.empty((len(x), 4), dtype=np.uint64)
    words[:, 0] = np.take(_CELL_CONSTANTS[0], code, out=table, mode="clip")
    for j, (word, shifted) in enumerate(((w1, s1), (w2, s2), (w3, s3))):
        word &= np.take(_CELL_DIGITS[j], code, out=table, mode="clip")
        shifted &= np.take(_CELL_SHIFTED[j], code, out=table, mode="clip")
        word |= shifted
        np.bitwise_or(word, np.take(_CELL_CONSTANTS[j + 1], code, out=table, mode="clip"),
                      out=words[:, j + 1])
    del table, w1, w2, w3, s1, s2, s3, shifted
    text = memoryview(words.astype("<u8", copy=False).tobytes().translate(None, b"\0"))
    ends = np.cumsum(np.take(_CELL_LENGTHS, code).reshape(rows, dim).sum(axis=1)).tolist()
    return [
        text[start:end] if ok else None
        for start, end, ok in zip([0] + ends, ends, proven.tolist())
    ]


def save_index(index: EmbeddingIndex, path: str) -> None:
    """Write the index as TSV with 17-significant-digit floats (lossless):
    each cell holds the bytes of "%.17g".

    Blocks of rows are formatted by _format_rows; a row that it does not
    prove takes one `%` of a "\\t%.17g" template instead."""
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
            pieces = []
            for cells, vector, text in zip(columns[lo : lo + step], block, _format_rows(block)):
                pieces.append(("%s\t%s\t%d\t%s" % cells).encode())
                pieces.append(text if text is not None else (template % tuple(vector.tolist())).encode())
                pieces.append(b"\n")
            fh.write(b"".join(pieces))


def _every_byte(value: int) -> np.uint64:
    """A word with `value` in each of its eight bytes. (numpy before 2 turns
    a uint64 scalar times a Python int into a float.)"""
    return np.uint64(0x0101010101010101 * value)


_SIGNS = np.array([1.0, -1.0])
_READ_CELLS = 1 << 14  # cells per block of _read_cells
_READ_BYTES = 1 << 18  # bytes per chunk of whole rows that load_index reads


def _first_dot(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Offset of the first "." in the 24 bytes of each cell, or 64 if none:
    each word's bytes that equal "." flag their high bit, the flags are
    gathered into 24 bits, and the lowest set bit t is the exponent of the
    double 2**(t + 1) - 1."""
    bits = None
    for j, word in enumerate((c0, c1, c2)):
        word = word ^ _every_byte(ord("."))
        flags = ~(((word & _every_byte(0x7F)) + _every_byte(0x7F)) | word) & _every_byte(0x80)
        flags >>= 7
        flags *= np.uint64(0x0102040810204080)
        flags >>= 56
        flags <<= np.uint64(8 * j)
        bits = flags if bits is None else bits | flags
    below = (bits ^ (bits - np.uint64(1))).astype(np.float64)
    return np.frexp(below)[1] - 1


def _funnel(low: np.ndarray, high: np.ndarray, shift: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The word that starts `shift` bits into `low` and continues into
    `high`; `rest` is 64 - shift. numpy shifts a uint64 by 64 to 0."""
    word = low >> shift
    word |= high << rest
    return word


def _cell_words(words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """Each cell's 24 bytes from its tab as three words, and its last four
    bytes in the low half of a fourth, each word funnelled from two aligned
    8-byte loads."""
    base = starts >> 3
    shift = ((starts & 7) << 3).astype(np.uint64)
    rest = np.uint64(64) - shift
    low = np.take(words, base)
    cells = []
    for _ in range(3):
        base += 1
        high = np.take(words, base)
        cells.append(_funnel(low, high, shift, rest))
        low = high
    base = ends - 4
    shift = ((base & 7) << 3).astype(np.uint64)
    base >>= 3
    cells.append(_funnel(np.take(words, base), np.take(words, base + 1), shift, np.uint64(64) - shift))
    return cells


def _template_codes(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, tail: np.ndarray, length: np.ndarray):
    """(sign, code) of each cell: its key's features (_key) and the code of
    the writer's template with that key, or -1 if none."""
    sign = (c0 >> 8) & np.uint64(0xFF) == ord("-")
    dot = np.minimum(_first_dot(c0, c1, c2), length)
    tens = (tail >> 16) & np.uint64(0xFF)
    tens -= np.uint64(ord("0"))
    ones = tail >> 24 & np.uint64(0xFF)
    ones -= np.uint64(ord("0"))
    marked = (tail & np.uint64(0xFFFF)) == 0x2D65  # "e-"
    marked &= (tens < 10) & (ones < 10)
    tens *= np.uint64(10)
    tens += ones
    marked &= tens < _KEY_TAILS - 1
    tens += np.uint64(1)
    # "0." after the sign, then up to three "0"s.
    body = sign.astype(np.uint64)
    body <<= np.uint64(3)
    body += np.uint64(8)
    np.right_shift(c0, body, out=body)
    zeros = ((body & np.uint64(0xFFFF)) == 0x2E30).astype(np.intp)
    for mask, start in ((0xFFFFFF, 0x302E30), (0xFFFFFFFF, 0x30302E30), (0xFFFFFFFFFF, 0x3030302E30)):
        zeros += (body & np.uint64(mask)) == start
    del body
    key = _key(sign, length, dot, marked * tens.astype(np.intp), zeros)
    return sign, np.take(_CODE_OF_KEY, key).astype(np.intp)


def _read_cells(words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, proven) of the cells whose bytes run from the tab at `starts`
    to the separator at `ends`, in the little-endian `words` of their text
    (padded by four words). A proven value is the double that float() reads.

    Each cell's 24 bytes are built from aligned 8-byte loads and its writer
    template is looked up by key (_cell_tables), which checks every constant
    byte. Every digit must be an ASCII digit; SWAR arithmetic makes the 17
    digits D, "0" past the template's. The candidate is D / 10**scale,
    nearly correctly rounded: the quotient by 5**scale is corrected by its
    remainder, then scaled by 2**-scale. It is proven only if
    _decimal_digits gives back D and the template's exponent: the writer
    then prints this very text for it, and 17 significant digits
    round-trip. All digits "0" read as a zero.

    The words are worked in place and each temporary is dropped when it
    dies, so a block holds about a dozen arrays of one word per cell."""
    c0, c1, c2, tail = _cell_words(words, starts, ends)
    sign, code = _template_codes(c0, c1, c2, tail, np.minimum(ends - starts, _KEY_LENGTHS - 1))
    del tail
    proven = code >= 0  # code -1 reads through the last code's tables, unproven
    # The digits to the low bytes: c0..c2 become the region.
    shift = np.take(_READ_SHIFT, code)
    rest = np.uint64(64) - shift
    for word, following in ((c0, c1), (c1, c2)):
        word >>= shift
        word |= following << rest
    c2 >>= shift
    del shift, rest
    zeros = _every_byte(ord("0"))
    high = _every_byte(0xF0)
    bad = np.zeros(len(code), dtype=np.uint64)
    region = (c0, c1, c2)
    for j, word in enumerate(region):
        # Digits of A in place, the others from one byte up (read before
        # region[j + 1] itself changes); "0" past them.
        up = word >> np.uint64(8)
        if j < 2:
            up |= region[j + 1] << np.uint64(56)
        word ^= up
        word &= np.take(_CELL_DIGITS[j], code)
        word ^= up
        del up
        word ^= zeros
        word &= np.take(_READ_DIGITS[j], code)
        word ^= zeros
        check = word + _every_byte(6)
        check &= high
        check >>= 4
        check |= word & high
        check ^= _every_byte(0x33)  # zero where each byte is "0".."9"
        bad |= check
    proven &= bad == 0
    del check, bad, region
    # Eight ASCII digits, the first in the low byte, to their value.
    for word in (c0, c1):
        word &= _every_byte(0x0F)
        word *= np.uint64(2561)
        word >>= 8
        word &= np.uint64(0x00FF00FF00FF00FF)
        word *= np.uint64(6553601)
        word >>= 16
        word &= np.uint64(0x0000FFFF0000FFFF)
        word *= np.uint64(42949672960001)
        word >>= 32
    m = c0
    m *= np.uint64(10**9)
    c1 *= np.uint64(10)
    m += c1
    c2 &= np.uint64(0x0F)
    m += c2
    del c1, c2

    scale = np.take(_READ_SCALE, code)
    del code
    m_hi = m.astype(np.float64)
    five = np.take(_FIVE_HI, scale)
    value = m_hi / five
    p, err = _two_product(value, scale, five)
    rem = m_hi
    rem -= p
    rem -= err
    del err
    np.multiply(value, np.take(_FIVE_LO, scale), out=p)
    rem -= p
    del p
    rem += m.view(np.int64) - m.astype(np.float64).astype(np.int64)  # D - m_hi
    rem /= five
    del five
    value += rem
    del rem
    value /= np.take(_TWO_POW, scale)

    covered = (value >= 1e-22) & (value < 1e17)
    digits17, k, decided = _decimal_digits(np.where(covered, value, 1.0))
    # The writer prints the value as D with the template's exponent, 16 - scale.
    k += scale
    match = k == 16
    del k
    match &= digits17.view(np.uint64) == m
    match &= decided
    match &= covered
    match |= m == 0
    proven &= match
    value *= np.take(_SIGNS, sign.view(np.uint8))
    return value, proven


def _read_lines(path: str, lines: bytes, first_lineno: int, dim: int) -> tuple:
    """(ids, positions, vectors) of `lines`, which end at LF, CR or CRLF,
    one line at a time, each converted by numpy. An error names the file and
    the line, the first of `lines` being line `first_lineno`."""
    ids, positions, vectors = [], [], []
    for lineno, line in enumerate(lines.splitlines(), start=first_lineno):
        try:
            parts = line.decode("utf-8").split("\t")
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"{path}:{lineno}: not a UTF-8 text file: {exc}") from None
        if len(parts) != 4 + dim:
            raise EvaluationError(f"{path}:{lineno}: expected {4 + dim} fields")
        try:
            positions.append(np.int64(parts[2]))  # int() syntax, int64 range
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
        ids.append((parts[0], parts[1], parts[3]))
        vectors.append(vector)
    return ids, positions, np.array(vectors).reshape(len(ids), dim)


def _read_chunk(chunk: bytes, size: int, dim: int) -> Optional[tuple]:
    """(ids, positions, vectors) of the whole lines in the first `size`
    bytes of `chunk`, or None if _read_lines must read them: a line is
    irregular or holds a cell that _read_cells does not prove."""
    if chunk.find(b"\r", 0, size) >= 0:
        return None
    text = np.frombuffer(chunk, dtype=np.uint8, count=size)
    # Tabs and newlines, and any control byte below them, which no valid row holds.
    separators = np.flatnonzero(text <= ord("\n"))
    rows = len(separators) // (4 + dim)
    if len(separators) != rows * (4 + dim):
        return None
    grid = separators.reshape(rows, 4 + dim)
    marks = text[separators].reshape(grid.shape)
    if not ((marks[:, :-1] == ord("\t")).all() and (marks[:, -1] == ord("\n")).all()):
        return None  # the chunk ends in a newline, so these are all of its lines
    ids, positions = [], []
    try:
        for start, end in zip([0] + (grid[:-1, -1] + 1).tolist(), grid[:, 3].tolist()):
            chart_id, story_id, position, dataset_id = chunk[start:end].decode("utf-8").split("\t")
            ids.append((chart_id, story_id, dataset_id))
            positions.append(np.int64(position))  # int() syntax, int64 range
    except (UnicodeDecodeError, ValueError, OverflowError):
        return None
    words = np.zeros(size // 8 + 5, dtype=np.uint64)
    words.view(np.uint8)[:size] = text
    vectors = np.empty((rows, dim))
    step = max(1, _READ_CELLS // dim)
    for lo in range(0, rows, step):
        cells = grid[lo : lo + step]
        values, proven = _read_cells(words, cells[:, 3:-1].ravel(), cells[:, 4:].ravel())
        if not proven.all():
            return None
        vectors[lo : lo + step] = values.reshape(len(cells), dim)
    return ids, positions, vectors


def load_index(path: str) -> EmbeddingIndex:
    """Read an index TSV, whose lines end at LF, CR or CRLF, in chunks of
    whole lines of about _READ_BYTES from a file or a pipe alike: _read_chunk
    reads a chunk whose every cell _read_cells proves, and _read_lines any
    other chunk, and a last line without a newline, with the same result.
    Raises EvaluationError naming the file, for a header that is not an
    index's; and naming the file and the line, for a line that is not UTF-8,
    a wrong field count, a position that is not an int64, a vector cell that
    is not a finite number, or a repeated chart id."""
    with open(path, "rb") as fh:
        head, *rest = fh.readline().splitlines(keepends=True) or [b""]
        try:
            header = head.rstrip(b"\r\n").decode("utf-8").split("\t")
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"{path}:1: not a UTF-8 text file: {exc}") from None
        if header[:4] != ["chart_id", "story_id", "position", "dataset_id"]:
            raise EvaluationError(f"{path}: not an embedding index file")
        dim = len(header) - 4
        ids, positions, blocks = [], [], []
        carry = b"".join(rest)
        while True:
            data = fh.read(_READ_BYTES)
            chunk = carry + data
            size = chunk.rfind(b"\n") + 1 if data else len(chunk)
            carry = chunk[size:]
            if size:
                read = _read_chunk(chunk, size, dim) if dim and data else None
                if read is None:  # every line is one row, so the first is line len(positions) + 2
                    read = _read_lines(path, chunk[:size], len(positions) + 2, dim)
                ids += read[0]
                positions += read[1]
                blocks.append(read[2])
            if not data:
                break
    chart_ids, story_ids, dataset_ids = list(zip(*ids)) or [()] * 3
    first_line = {}  # after every other fault of the file, the first repeated id
    for lineno, chart_id in enumerate(chart_ids, start=2):
        if first_line.setdefault(chart_id, lineno) != lineno:
            raise EvaluationError(f"{path}:{lineno}: duplicate chart id {chart_id!r}")
    vectors = np.concatenate(blocks) if blocks else np.zeros((0, dim))
    blocks.clear()  # the index keeps `vectors` if its rows are in chart-id order, as save_index writes them
    return EmbeddingIndex(chart_ids, story_ids, positions, dataset_ids, vectors)

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
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, build_samples, encode_corpus
from .encoder import EncoderConfig, EncoderParams, forward_batch, init_params
from .learning import HyperParams, train
from .semantics import VectorStore

log = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Raised for unknown anchors, empty indexes, and scope errors."""


class EmbeddingIndex:
    """Charts as columns in chart-id order, with one (N, D) vector matrix.

    `row` maps a chart id to its row; `blocks` maps a dataset id to its rows,
    ascending, so every block is in chart-id order too.
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
        blocks: dict[str, list[int]] = {}
        for row, dataset_id in enumerate(self.dataset_ids):
            blocks.setdefault(dataset_id, []).append(row)
        self.blocks = {d: np.array(rows, dtype=np.int64) for d, rows in blocks.items()}

    def __len__(self) -> int:
        return len(self.ids)


def build_index(corpus: Corpus, params: EncoderParams, store: VectorStore) -> EmbeddingIndex:
    """Embed every chart of the corpus in inference mode; all must be finite."""
    if not corpus.chart_count:
        return EmbeddingIndex((), (), (), (), np.zeros((0, 0)))
    encoded = encode_corpus(corpus, store, params.config)
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


_BLOCK_FLOATS = 1 << 20  # bounds the memory of one block of anchor-candidate differences


def _distances(vectors: np.ndarray, anchors: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(len(anchors), len(candidates)) Euclidean distances in the exact
    difference form; the expansion |a|^2 + |b|^2 - 2ab can flip near-ties.
    Candidates go in chunks that keep the differences within _BLOCK_FLOATS."""
    points = vectors[anchors][:, None, :]
    dist = np.empty((len(anchors), len(candidates)))
    step = max(1, _BLOCK_FLOATS // max(1, points.size))
    for lo in range(0, len(candidates), step):
        diff = vectors[candidates[lo : lo + step]][None, :, :] - points
        dist[:, lo : lo + step] = np.sqrt(np.einsum("abd,abd->ab", diff, diff))
    return dist


def nearest(
    index: EmbeddingIndex,
    anchor: str,
    scope: str = "same-dataset",
    k: int = 1,
) -> list[tuple[str, float]]:
    """Ranked (chart_id, distance) list, ascending; ties break on chart id.

    Scope "same-dataset" restricts candidates to the anchor's dataset;
    "all" considers every other chart. The anchor itself is excluded.
    """
    if scope not in ("same-dataset", "all"):
        raise EvaluationError(f"unknown scope {scope!r}")
    if anchor not in index.row:
        raise EvaluationError(f"unknown anchor {anchor!r}")
    if k < 1:
        raise EvaluationError("k must be >= 1")
    row = index.row[anchor]
    if scope == "all":
        candidates = np.arange(len(index))
    else:
        candidates = index.blocks[index.dataset_ids[row]]
    candidates = candidates[candidates != row]
    if not len(candidates):
        raise EvaluationError(f"no candidates for anchor {anchor!r} in scope {scope}")
    dist = _distances(index.vectors, np.array([row]), candidates)[0]
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

    Anchors without a same-dataset candidate cannot be scored; they are
    excluded from the denominators and reported in the detail rows.
    """
    if len(index) == 0:
        raise EvaluationError("empty index")
    retrieved = np.full(len(index), -1)
    distance = np.zeros(len(index))
    for block in index.blocks.values():
        if len(block) < 2:
            continue
        step = max(1, _BLOCK_FLOATS // max(1, len(block) * index.vectors.shape[1]))
        for lo in range(0, len(block), step):
            anchors = block[lo : lo + step]
            own = np.arange(len(anchors))
            dist = _distances(index.vectors, anchors, block)
            dist[own, lo + own] = np.inf
            # argmin takes the first minimum, which has the smallest chart id.
            # It takes the anchor itself only when the anchor is the block's
            # first row and every distance overflows to inf; then the
            # second row is the nearest, as in nearest().
            best = np.argmin(dist, axis=1)
            best[best == lo + own] = 1
            retrieved[anchors] = block[best]
            distance[anchors] = dist[own, best]

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


ABLATION_VARIANTS = (
    "full",
    "no-linear-interpolation",
    "no-classification",
    "no-fact-schema",
    "no-fact-semantics",
    "no-word-pooling",
    "words-avg-pooling",
    "word-max-pooling",
    "words-max-pooling",
    "no-pos",
    "no-fc",
)

# Variants differing from the full model by exactly one switch; the
# words-max variant flips both the pooling scope and the operator.
SINGLE_SWITCH_VARIANTS = tuple(
    v for v in ABLATION_VARIANTS if v not in ("full", "words-max-pooling")
)


def variant_switches(variant: str, base: EncoderConfig) -> tuple[EncoderConfig, tuple[bool, bool]]:
    """Map a variant name to its (encoder config, loss mask) switch set."""
    if variant == "full":
        return base, (True, True)
    if variant == "no-linear-interpolation":
        return base, (False, True)
    if variant == "no-classification":
        return base, (True, False)
    if variant == "no-fact-schema":
        return replace(base, zero_schema=True), (True, True)
    if variant == "no-fact-semantics":
        return replace(base, zero_semantics=True), (True, True)
    if variant == "no-word-pooling":
        return replace(base, semantic_mode="none"), (True, True)
    if variant == "words-avg-pooling":
        return replace(base, semantic_mode="words-average"), (True, True)
    if variant == "word-max-pooling":
        return replace(base, semantic_mode="word-max"), (True, True)
    if variant == "words-max-pooling":
        return replace(base, semantic_mode="words-max"), (True, True)
    if variant == "no-pos":
        return replace(base, use_locations=False), (True, True)
    if variant == "no-fc":
        return replace(base, use_fc=False), (True, True)
    raise EvaluationError(f"unknown ablation variant {variant!r}")


@dataclass(frozen=True)
class AblationResult:
    variant: str
    metrics: Optional[MetricsReport]
    wall_ms: float
    peak_bytes: int
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
    negatives_per_window: int = 1,
    policy: str = "same-dataset-first",
    base_config: Optional[EncoderConfig] = None,
) -> list[AblationResult]:
    """Train and evaluate each variant from the same seed and corpus.

    A failing variant is flagged and the rest continue.
    """
    if not variants:
        raise EvaluationError("no variants requested")
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise EvaluationError(f"unknown ablation variant {variant!r}")
    base = base_config or EncoderConfig(dropout=hyper.dropout)
    results: list[AblationResult] = []
    for variant in variants:
        started = time.perf_counter()
        tracemalloc.start()
        try:
            config, loss_mask = variant_switches(variant, base)
            sample_set = build_samples(
                train_corpus, store, negatives_per_window, policy, seed, config
            )
            params = init_params(seed, config)
            params, history = train(sample_set, hyper, params, loss_mask)
            index = build_index(eval_corpus, params, store)
            metrics = compute_metrics(index)
            final = history[-1] if history else None
            results.append(
                AblationResult(
                    variant=variant,
                    metrics=metrics,
                    wall_ms=(time.perf_counter() - started) * 1000.0,
                    peak_bytes=tracemalloc.get_traced_memory()[1],
                    final_l1=final.l1 if final and loss_mask[0] else None,
                    final_l2=final.l2 if final and loss_mask[1] else None,
                )
            )
            log.info(
                "variant %s: top2=%.3f top3=%.3f cooc=%.3f",
                variant, metrics.top2, metrics.top3, metrics.cooccurrence,
            )
        except Exception as exc:  # noqa: BLE001 - variant failures are data
            results.append(
                AblationResult(
                    variant=variant,
                    metrics=None,
                    wall_ms=(time.perf_counter() - started) * 1000.0,
                    peak_bytes=tracemalloc.get_traced_memory()[1],
                    final_l1=None,
                    final_l2=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            log.warning("variant %s failed: %s", variant, exc)
        finally:
            tracemalloc.stop()
    return results


def ablation_csv(results: Sequence[AblationResult]) -> str:
    """CSV with one row per successful variant."""
    lines = ["variant,top2,top3,cooccurrence,wall_ms,peak_bytes"]
    for row in results:
        if row.metrics is None:
            continue
        lines.append(
            f"{row.variant},{row.metrics.top2:.6f},{row.metrics.top3:.6f},"
            f"{row.metrics.cooccurrence:.6f},{row.wall_ms:.1f},{row.peak_bytes}"
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
                "distance": d.distance,
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


def save_index(index: EmbeddingIndex, path: str) -> None:
    """Write the index as TSV with 17-significant-digit floats (lossless)."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["chart_id", "story_id", "position", "dataset_id"]
        header += [f"v{i + 1}" for i in range(index.vectors.shape[1])]
        fh.write("\t".join(header) + "\n")
        for row, chart_id in enumerate(index.ids):
            cells = [chart_id, index.story_ids[row], str(index.positions[row]), index.dataset_ids[row]]
            cells += [format(x, ".17g") for x in index.vectors[row].tolist()]
            fh.write("\t".join(cells) + "\n")


def load_index(path: str) -> EmbeddingIndex:
    """Read an index TSV. Raises EvaluationError, naming the line, for a
    wrong field count, a non-integer position, or a vector cell that is not
    a finite number; and for a duplicate chart id or a non-UTF-8 file."""
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
                    position = int(parts[2])
                except ValueError:
                    raise EvaluationError(
                        f"{path}:{lineno}: position {parts[2]!r} is not an integer"
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

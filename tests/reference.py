"""Reference implementations the tests compare the package against.

`encode_semantics` is the per-chart semantic encoder: one store lookup, one
pooling and one concatenation per token. The package encodes a whole corpus
through a table of its distinct words; its blocks must equal these bit for
bit in every mode.

`nearest_by_difference` is the same-dataset retrieval of `compute_metrics`
as a full scan: every anchor-candidate distance in the difference form. The
package ranks each block by its Gram form and re-ranks only the near-ties;
its retrieved charts and distances must equal these bit for bit.
`ranking_by_difference` is `nearest` with k = every candidate, ranked by a
stable sort of the same distances; the package's ids and distance bits must
equal it.

`extract_tokens` splits and wraps every string of one fact anew. The
package splits each distinct (text, location) once per corpus; its token
lists must equal these.

`load_vector_store` converts every line of a word-vector file as it reads
it. The package checks a line of plain decimals by its form and converts it
on its word's first lookup; both must raise the same error, or hold the
same words with bit-identical vectors.

`save_index` writes the index TSV one `format(x, ".17g")` cell at a time.
The package formats blocks of rows with a numpy kernel, and the rest with
one `%` of a template per row; its bytes must equal these.

`load_index` reads the index TSV one line at a time, every cell converted
by numpy. The package proves the cells that its own writer prints with a
numpy kernel and reads only the other rows this way; both must raise the
same error, or give the same ids, positions and vector bits.

`SINGLE_SWITCH_VARIANTS` and the derivation-length bounds are facts about
the package's tables that only the tests check.

`decode_skeleton` parses rule ids as a leftmost derivation over `RULES`; it
inverts `derive_rules` onto `fact_skeleton`, which proves the grammar
invertible. `one_hot` is the schema matrix that the model's rule ids stand
for. `interpolation_loss` and `triplet_loss` are the scalar loss formulas,
and `euclidean_grad` the distance gradient, that the batched loss and its
gradients must match sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chartembed.evaluation import ABLATION_VARIANTS, EmbeddingIndex, EvaluationError
from chartembed.facts import (
    Aggregation,
    ChartFact,
    ChartType,
    FactType,
    FieldType,
    MetaAssociation,
    MetaCategorization,
    MetaDifference,
    MetaExtreme,
    MetaNone,
    MetaRank,
    MetaTrend,
    fact_to_dict,
)
from chartembed.grammar import RULES, GrammarError
from chartembed.semantics import (
    LOC_BREAKDOWN_FIELD,
    LOC_FOCUS_FIELD,
    LOC_FOCUS_VALUE,
    LOC_MEASURE_FIELD,
    LOC_META,
    LOC_SUBSPACE_FIELD,
    LOC_SUBSPACE_VALUE,
    LOCATION_COUNT,
    POOLED_DIM,
    SEMANTIC_SLOTS,
    WORD_DIM,
    Token,
    VectorStore,
    VectorStoreError,
    semantic_shape,
    split_words,
)

# Variants differing from the full model by exactly one switch; the
# words-max variant flips both the pooling scope and the operator.
SINGLE_SWITCH_VARIANTS = tuple(
    v for v in ABLATION_VARIANTS if v not in ("full", "words-max-pooling")
)

# The rule count of the shortest and the longest derivation of a fact.
MIN_DERIVATION_LENGTH = 8
MAX_DERIVATION_LENGTH = 13


def meta_words(meta) -> list[str]:
    """The words of a meta variant's semantic text."""
    if isinstance(meta, MetaNone):
        return []
    if isinstance(meta, MetaTrend):
        return split_words(meta.direction.value)
    if isinstance(meta, MetaCategorization):
        return split_words(f"{meta.count} categories")
    if isinstance(meta, MetaDifference):
        return split_words(meta.relation.value)
    if isinstance(meta, MetaRank):
        return [w for entry in meta.top3 for w in split_words(entry)]
    if isinstance(meta, MetaExtreme):
        return split_words(meta.extreme.value)
    if isinstance(meta, MetaAssociation):
        return split_words(meta.sign.value)
    raise TypeError(f"unknown meta variant {type(meta).__name__}")


def extract_tokens(fact: ChartFact) -> list[Token]:
    """All semantic words of one fact in location order 1..7, each string
    split and each word wrapped anew."""
    texts = [(f.field, LOC_SUBSPACE_FIELD) for f in fact.subspace]
    texts += [(f.value, LOC_SUBSPACE_VALUE) for f in fact.subspace]
    if fact.breakdown is not None:
        texts.append((fact.breakdown.name, LOC_BREAKDOWN_FIELD))
    if fact.measure is not None:
        texts.append((fact.measure.field, LOC_MEASURE_FIELD))
    if fact.focus is not None:
        texts.append((fact.focus.field.name, LOC_FOCUS_FIELD))
        texts.append((fact.focus.value, LOC_FOCUS_VALUE))
    tokens = [Token(word, location) for text, location in texts for word in split_words(text)]
    return tokens + [Token(word, LOC_META) for word in meta_words(fact.meta)]


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


def load_vector_store(path: str) -> VectorStore:
    """The store of a word-vector file, every line split, converted with
    `np.array` and finiteness-checked as it is read."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != WORD_DIM + 1:
                    raise VectorStoreError(
                        f"{path}:{lineno}: expected a word and {WORD_DIM} components, "
                        f"got {len(parts)} fields"
                    )
                try:
                    vec = np.array(parts[1:], dtype=np.float64)
                except ValueError as exc:
                    raise VectorStoreError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise VectorStoreError(f"{path}:{lineno}: non-finite component")
                vectors.setdefault(parts[0].lower(), vec)
        except UnicodeDecodeError as exc:
            raise VectorStoreError(f"{path}: not a UTF-8 text file: {exc}") from None
    return VectorStore(vectors)


def save_index(index: EmbeddingIndex, path: str) -> None:
    """The index TSV, one format(x, ".17g") per vector cell."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["chart_id", "story_id", "position", "dataset_id"]
        header += [f"v{i + 1}" for i in range(index.vectors.shape[1])]
        fh.write("\t".join(header) + "\n")
        for row, chart_id in enumerate(index.ids):
            cells = [chart_id, index.story_ids[row], str(index.positions[row]), index.dataset_ids[row]]
            cells += [format(x, ".17g") for x in index.vectors[row].tolist()]
            fh.write("\t".join(cells) + "\n")


def load_index(path: str) -> EmbeddingIndex:
    """The index TSV, every line split and converted with `np.array`."""
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


def ranking_by_difference(index: EmbeddingIndex, anchor: str, scope: str) -> tuple[list[str], np.ndarray]:
    """(chart ids, distances) of every candidate of `anchor` in `scope`,
    nearest first. Candidates are in chart-id order, so the stable sort
    breaks ties on id; a difference that overflows is an infinite distance."""
    row = index.row[anchor]
    pool = np.arange(len(index)) if scope == "all" else index.blocks[index.dataset_ids[row]]
    pool = pool[pool != row]
    with np.errstate(over="ignore", invalid="ignore"):
        dist = difference_distances(index.vectors, np.array([row]), pool)[0]
    order = np.argsort(dist, kind="stable")
    return [index.ids[pool[j]] for j in order], dist[order]


@dataclass(frozen=True)
class FactSkeleton:
    """The structural part of a fact: everything the grammar can express."""

    chart_type: ChartType
    fact_type: FactType
    filter_field_types: tuple[FieldType, ...]
    breakdown: FieldType | None
    aggregation: Aggregation
    focus: FieldType | None
    meta: str


def _meta_label(fact: ChartFact) -> str:
    """The right-hand side of the fact's Meta rule, read off its dict form.
    Categorization and rank collapse their unbounded descriptors."""
    meta = fact_to_dict(fact)["meta"]
    if meta is None:
        return "<none>"
    kind = meta.pop("kind")
    if kind == "categorization":
        return "categorization count"
    if kind == "rank":
        return "rank top3"
    (value,) = meta.values()
    return f"{kind} {value}"


def fact_skeleton(fact: ChartFact) -> FactSkeleton:
    """Project a fact onto its structural skeleton (semantics dropped)."""
    return FactSkeleton(
        chart_type=fact.type_c,
        fact_type=fact.type_f,
        filter_field_types=tuple(f.field_type for f in fact.subspace),
        breakdown=fact.breakdown.field_type if fact.breakdown else None,
        aggregation=fact.measure.aggregation if fact.measure else Aggregation.COUNT,
        focus=fact.focus.field.field_type if fact.focus else None,
        meta=_meta_label(fact),
    )


class _SequenceReader:
    """Rule ids read one derivation step at a time."""

    def __init__(self, ids):
        self.ids = tuple(ids)
        self.pos = 0

    def at(self, lhs: str) -> bool:
        """Whether the next rule expands `lhs`."""
        if self.pos >= len(self.ids):
            return False
        rule_id = self.ids[self.pos]
        return 0 <= rule_id < len(RULES) and RULES[rule_id].lhs == lhs

    def take(self, lhs: str) -> str:
        """The right-hand side of the next rule, which must expand `lhs`."""
        if self.pos >= len(self.ids):
            raise GrammarError(f"ill-formed sequence: ended while expecting {lhs}")
        if not self.at(lhs):
            raise GrammarError(
                f"ill-formed sequence: rule {self.ids[self.pos]} where {lhs} was expected"
            )
        self.pos += 1
        return RULES[self.ids[self.pos - 1]].rhs

    def done(self) -> None:
        if self.pos != len(self.ids):
            raise GrammarError(f"ill-formed sequence: {len(self.ids) - self.pos} trailing rule(s)")


def decode_skeleton(rule_ids) -> FactSkeleton:
    """Invert derive_rules: parse the ids as the leftmost derivation from
    Root, in the seven-part order of its right-hand side."""
    reader = _SequenceReader(rule_ids)
    reader.take("Root")
    chart_type = ChartType(reader.take("ChartType"))
    fact_type = FactType(reader.take("FactType"))
    subspace = reader.take("Subspace")
    filters: list[FieldType] = []
    if subspace != "<empty>":
        filters.append(FieldType(reader.take("Filter")))
    if subspace == "Filter Filter+":
        filters.append(FieldType(reader.take("Filter")))
        while reader.at("Filter"):
            filters.append(FieldType(reader.take("Filter")))
    breakdown = None
    if reader.take("Breakdown") == "BreakdownField":
        breakdown = FieldType(reader.take("BreakdownField"))
    aggregation = Aggregation(reader.take("Measure"))
    focus = None
    if reader.take("Focus") == "FocusField":
        focus = FieldType(reader.take("FocusField"))
    meta = reader.take("Meta")
    reader.done()
    return FactSkeleton(chart_type, fact_type, tuple(filters), breakdown, aggregation, focus, meta)


def one_hot(rule_ids) -> np.ndarray:
    """The (..., L, 60) one-hot schema that L rule ids stand for; a -1
    padding id is a zero row."""
    return (np.asarray(rule_ids)[..., None] == np.arange(len(RULES))).astype(np.float64)


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64) - y))


def euclidean_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d distance / d x; zero at coincident points (subgradient choice)."""
    diff = np.asarray(x, dtype=np.float64) - y
    dist = np.linalg.norm(diff)
    if dist == 0.0:
        return np.zeros_like(diff)
    return diff / dist


def interpolation_loss(
    x_prev: np.ndarray, x_mid: np.ndarray, x_next: np.ndarray, alpha: float
) -> tuple[float, tuple[float, float]]:
    """Midpoint distance plus alpha times the three pairwise distances.

    Returns (value, (midpoint_term, pair_sum)).
    """
    midpoint = (np.asarray(x_prev, dtype=np.float64) + x_next) / 2.0
    interp = euclidean(x_mid, midpoint)
    pairs = euclidean(x_prev, x_mid) + euclidean(x_mid, x_next) + euclidean(x_prev, x_next)
    return interp + alpha * pairs, (interp, pairs)


def triplet_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, margin: float
) -> float:
    """Hinge on d(anchor, positive) - d(anchor, negative) + margin."""
    return max(0.0, euclidean(anchor, positive) - euclidean(anchor, negative) + margin)

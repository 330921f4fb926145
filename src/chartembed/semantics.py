"""Word-level semantics of a chart fact.

Seven fact fields carry dataset-specific text: subspace fields (1), subspace
values (2), the breakdown field (3), the measure field (4), the focus field
(5), the focus value (6), and meta descriptors (7). Words extracted from
these locations are mapped to pretrained 100-dim vectors, pooled to 10 dims
by interval averaging, tagged with a 7-dim location one-hot, and packed into
a fixed 25x17 block.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .facts import (
    ChartFact,
    MetaAssociation,
    MetaCategorization,
    MetaDifference,
    MetaExtreme,
    MetaInfo,
    MetaNone,
    MetaRank,
    MetaTrend,
)

WORD_DIM = 100
POOLED_DIM = 10
LOCATION_COUNT = 7
SEMANTIC_SLOTS = 25
TOKEN_DIM = POOLED_DIM + LOCATION_COUNT

LOC_SUBSPACE_FIELD = 1
LOC_SUBSPACE_VALUE = 2
LOC_BREAKDOWN_FIELD = 3
LOC_MEASURE_FIELD = 4
LOC_FOCUS_FIELD = 5
LOC_FOCUS_VALUE = 6
LOC_META = 7


@dataclass(frozen=True)
class Token:
    word: str
    location: int


class VectorStoreError(ValueError):
    """Raised for malformed vector-store files or dimension mismatches."""


# camelCase boundaries: lower/digit followed by upper, or an acronym end
# (HTTPServer -> HTTP Server).
_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_SEPARATORS = re.compile(r"[^0-9A-Za-z]+")


def split_words(text: str) -> list[str]:
    """Split a field string into words.

    Whitespace, underscores, hyphens, and all other punctuation separate
    words; camelCase boundaries split too. Pure-number tokens survive.
    """
    out: list[str] = []
    for chunk in _SEPARATORS.split(text):
        if not chunk:
            continue
        out.extend(p for p in _CAMEL.split(chunk) if p)
    return out


def meta_words(meta: MetaInfo) -> list[str]:
    """The semantic text carried by a meta variant."""
    if isinstance(meta, MetaNone):
        return []
    if isinstance(meta, MetaTrend):
        return split_words(meta.direction.value)
    if isinstance(meta, MetaCategorization):
        return split_words(f"{meta.count} categories")
    if isinstance(meta, MetaDifference):
        return split_words(meta.relation.value)
    if isinstance(meta, MetaRank):
        out: list[str] = []
        for entry in meta.top3:
            out.extend(split_words(entry))
        return out
    if isinstance(meta, MetaExtreme):
        return split_words(meta.extreme.value)
    if isinstance(meta, MetaAssociation):
        return split_words(meta.sign.value)
    raise TypeError(f"unknown meta variant {type(meta).__name__}")


def extract_tokens(fact: ChartFact) -> list[Token]:
    """All semantic words of a fact, visited in location order 1..7.

    Chart type and fact type are structural and contribute nothing here.
    Duplicate words are kept.
    """
    tokens: list[Token] = []

    def emit(text: str, location: int) -> None:
        for word in split_words(text):
            tokens.append(Token(word, location))

    for filt in fact.subspace:
        emit(filt.field, LOC_SUBSPACE_FIELD)
    for filt in fact.subspace:
        emit(filt.value, LOC_SUBSPACE_VALUE)
    if fact.breakdown is not None:
        emit(fact.breakdown.name, LOC_BREAKDOWN_FIELD)
    if fact.measure is not None:
        emit(fact.measure.field, LOC_MEASURE_FIELD)
    if fact.focus is not None:
        emit(fact.focus.field.name, LOC_FOCUS_FIELD)
        emit(fact.focus.value, LOC_FOCUS_VALUE)
    for word in meta_words(fact.meta):
        tokens.append(Token(word, LOC_META))
    return tokens


def _oov_vector(word: str, dim: int) -> np.ndarray:
    # Deterministic unit vector seeded by the lowercase word bytes, so
    # out-of-vocabulary words stay distinguishable and stable across runs.
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


class VectorStore:
    """Immutable word -> vector mapping with a deterministic OOV fallback.

    Lookups are case-insensitive: keys are folded to lowercase at load and
    query words are folded at lookup.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        for word, vec in vectors.items():
            if vec.shape != (WORD_DIM,):
                raise VectorStoreError(
                    f"vector for {word!r} has shape {vec.shape}, expected ({WORD_DIM},)"
                )
        self._vectors = {w.lower(): np.asarray(v, dtype=np.float64) for w, v in vectors.items()}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._vectors

    def lookup(self, word: str) -> np.ndarray:
        key = word.lower()
        hit = self._vectors.get(key)
        if hit is not None:
            return hit
        return _oov_vector(key, WORD_DIM)


def load_vector_store(path: str) -> VectorStore:
    """Load a plain-text store: one `word v1 .. v100` entry per line.

    Every line is checked: the embedding width is fixed at 100, and a
    component that is not a finite number is rejected. The first occurrence
    of a word wins.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
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
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise VectorStoreError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(vec).all():
                raise VectorStoreError(f"{path}:{lineno}: non-finite component")
            vectors.setdefault(parts[0].lower(), vec)
    return VectorStore(vectors)


def pool_word(vec: np.ndarray) -> np.ndarray:
    """Average over 10 fixed windows of width 10: (100,) to (10,), (U, 100) to (U, 10)."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape[-1:] != (WORD_DIM,):
        raise ValueError(f"expected (..., {WORD_DIM}) vectors, got {vec.shape}")
    return vec.reshape(*vec.shape[:-1], POOLED_DIM, WORD_DIM // POOLED_DIM).mean(axis=-1)


SEMANTIC_MODES = (
    "interval-average",
    "none",
    "words-average",
    "word-max",
    "words-max",
)


def semantic_shape(mode: str) -> tuple[int, int]:
    """Block shape produced by each pooling mode."""
    if mode in ("interval-average", "word-max"):
        return (SEMANTIC_SLOTS, TOKEN_DIM)
    if mode == "none":
        return (SEMANTIC_SLOTS, WORD_DIM + LOCATION_COUNT)
    if mode in ("words-average", "words-max"):
        return (1, WORD_DIM + LOCATION_COUNT)
    raise ValueError(f"unknown semantic mode {mode!r}")


def encode_semantics(
    token_lists: list[list[Token]], store: VectorStore, mode: str = "interval-average",
    use_locations: bool = True,
) -> np.ndarray:
    """The semantic blocks (N, rows, cols) of N charts' token lists.

    Each chart keeps its first 25 tokens. Each distinct lower-cased word is
    looked up once into a word table, which is pooled once; one gather then
    fills the rows of all kept tokens (pooled or raw vector plus location
    one-hot). Per-word modes place one row per slot; across-word modes
    reduce each chart's rows to a single 107-dim row.
    """
    rows, cols = semantic_shape(mode)
    kept = [tokens[:SEMANTIC_SLOTS] for tokens in token_lists]
    flat = [t for tokens in kept for t in tokens]
    row_of: dict[str, int] = {}
    word = np.array([row_of.setdefault(t.word.lower(), len(row_of)) for t in flat], dtype=np.intp)
    location = np.array([t.location for t in flat], dtype=np.intp)
    counts = np.array([len(tokens) for tokens in kept], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    chart = np.repeat(np.arange(len(kept)), counts)
    slot = np.arange(len(word)) - np.repeat(starts, counts)

    table = np.array([store.lookup(w) for w in row_of], dtype=np.float64).reshape(-1, WORD_DIM)
    if mode == "interval-average":
        table = pool_word(table)
    elif mode == "word-max":
        table = table.reshape(-1, POOLED_DIM, WORD_DIM // POOLED_DIM).max(axis=2)
    width = cols - LOCATION_COUNT
    token_rows = np.zeros((len(word), cols))
    token_rows[:, :width] = table[word]
    if use_locations:
        token_rows[np.arange(len(word)), width + location - 1] = 1.0

    blocks = np.zeros((len(kept), rows, cols))
    if rows == SEMANTIC_SLOTS:
        blocks[chart, slot] = token_rows
    else:
        reduce = np.mean if mode == "words-average" else np.max
        for i in np.flatnonzero(counts):
            blocks[i, 0] = reduce(token_rows[starts[i] : starts[i] + counts[i]], axis=0)
    return blocks

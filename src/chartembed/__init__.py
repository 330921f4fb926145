"""Chart embeddings from declarative chart facts.

Charts are described as seven-part "chart facts"; their structure derives a
fixed 60-rule grammar sequence and their text maps to pooled word vectors.
A small convolutional encoder fuses both into one fixed-size vector whose
geometry reflects chart context inside multi-view visualizations.
"""

__version__ = "0.1.0"

from .facts import (
    Aggregation,
    ChartFact,
    ChartType,
    FactType,
    FieldRef,
    FieldType,
    Filter,
    Focus,
    MeasureSpec,
    validate_fact,
)
from .grammar import derive_rules, grammar_dump
from .semantics import VectorStore, extract_tokens, load_vector_store, pool_word
from .encoder import EncoderConfig, EncoderParams, init_params, load_checkpoint, save_checkpoint
from .learning import HyperParams, adam_step, combined_loss, grad_check, train
from .corpus import Corpus, MultiViewVis, build_samples, encode_corpus, load_corpus, split_corpus
from .evaluation import (
    EmbeddingIndex,
    MetricsReport,
    build_index,
    compute_metrics,
    nearest,
    run_ablation,
)

__all__ = [
    "Aggregation",
    "ChartFact",
    "ChartType",
    "Corpus",
    "EmbeddingIndex",
    "EncoderConfig",
    "EncoderParams",
    "FactType",
    "FieldRef",
    "FieldType",
    "Filter",
    "Focus",
    "HyperParams",
    "MeasureSpec",
    "MetricsReport",
    "MultiViewVis",
    "VectorStore",
    "adam_step",
    "build_index",
    "build_samples",
    "combined_loss",
    "compute_metrics",
    "derive_rules",
    "encode_corpus",
    "extract_tokens",
    "grad_check",
    "grammar_dump",
    "init_params",
    "load_checkpoint",
    "load_corpus",
    "load_vector_store",
    "nearest",
    "pool_word",
    "run_ablation",
    "save_checkpoint",
    "split_corpus",
    "train",
    "validate_fact",
]

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import settings

from chartembed.corpus import Corpus, load_corpus
from chartembed.encoder import EncoderConfig
from chartembed.facts import (
    Aggregation,
    ChartFact,
    ChartType,
    DifferenceRelation,
    FactType,
    FieldRef,
    FieldType,
    Filter,
    MeasureSpec,
    MetaDifference,
)
from chartembed.semantics import VectorStore, load_vector_store

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Every run draws the same examples, with no database of earlier failures,
# so two runs of the suite on the same code give the same results. Each
# test's own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_corpus_path() -> str:
    return str(DATA_DIR / "fixture_corpus.json")


@pytest.fixture(scope="session")
def fixture_vectors_path() -> str:
    return str(DATA_DIR / "vectors_fixture.txt")


@pytest.fixture(scope="session")
def fixture_corpus(fixture_corpus_path) -> Corpus:
    return load_corpus(fixture_corpus_path)


@pytest.fixture(scope="session")
def store(fixture_vectors_path) -> VectorStore:
    return load_vector_store(fixture_vectors_path)


@pytest.fixture(scope="session")
def empty_store() -> VectorStore:
    return VectorStore({})


@pytest.fixture(scope="session")
def base_config() -> EncoderConfig:
    return EncoderConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# The worked example fact used throughout: a vertical bar chart comparing
# summed population between two locations inside China/Guizhou.
@pytest.fixture(scope="session")
def example_fact() -> ChartFact:
    return ChartFact(
        type_c=ChartType.VERTICAL_BAR,
        type_f=FactType.DIFFERENCE,
        subspace=(
            Filter("Country", "China", FieldType.GEOGRAPHICAL),
            Filter("City", "Guizhou", FieldType.GEOGRAPHICAL),
        ),
        breakdown=FieldRef("Location", FieldType.CATEGORICAL),
        measure=MeasureSpec("Population", Aggregation.SUM),
        focus=None,
        meta=MetaDifference(DifferenceRelation.LOWER),
    )


@pytest.fixture(scope="session")
def minimal_fact() -> ChartFact:
    return ChartFact(type_c=ChartType.TABLE, type_f=FactType.VALUE)

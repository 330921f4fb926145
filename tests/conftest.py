from __future__ import annotations

import os
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

# By default every run draws the same examples, with no database of earlier
# failures, so two runs of the suite on the same code give the same results.
# Each test's own max_examples still applies. HYPOTHESIS_PROFILE=explore
# draws new examples on every run instead, EXPLORE_FACTOR times as many; it
# stops with a usage error rather than run a @given test at its own count.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(items):
    if os.environ.get("HYPOTHESIS_PROFILE") != "explore":
        return
    rescaled = set()  # a parametrized test is one function behind many items
    for item in items:
        test = getattr(item, "obj", None)
        if not getattr(test, "is_hypothesis_test", False) or test in rescaled:
            continue
        # The settings that @given and @settings attached, read when the test runs.
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None:
            raise pytest.UsageError(f"{item.nodeid}: no Hypothesis settings to scale for explore")
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=EXPLORE_FACTOR * own.max_examples
        )
        rescaled.add(test)
    if items and not rescaled:
        raise pytest.UsageError("explore found no Hypothesis test to scale")


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

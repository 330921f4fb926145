from __future__ import annotations

import numpy as np
import pytest
import reference

import chartembed
from chartembed.corpus import Corpus, MultiViewVis, encode_corpus
from chartembed.encoder import EncoderConfig
from chartembed.factgen import random_fact
from chartembed.facts import ChartFact, ChartType, FactType, FieldRef, FieldType, Filter, Focus
from chartembed.semantics import (
    LOC_BREAKDOWN_FIELD,
    LOC_FOCUS_FIELD,
    LOC_FOCUS_VALUE,
    LOC_MEASURE_FIELD,
    LOC_META,
    LOC_SUBSPACE_FIELD,
    LOC_SUBSPACE_VALUE,
    SEMANTIC_SLOTS,
    Token,
    VectorStore,
    VectorStoreError,
    SEMANTIC_MODES,
    encode_semantics,
    extract_tokens,
    load_vector_store,
    pool_word,
    split_words,
)

# The canonical segmentation example: raw field strings on the left, the
# flattened word list on the right.
RAW_FIELDS = ["Country name", "City name", "Year", "Student population", "Year", "2018"]
SPLIT_WORDS = ["Country", "name", "City", "name", "Year", "Student", "population", "Year", "2018"]


def test_field_segmentation_example_verbatim():
    out: list[str] = []
    for raw in RAW_FIELDS:
        out.extend(split_words(raw))
    assert out == SPLIT_WORDS


@pytest.mark.parametrize(
    "text,expected",
    [
        ("snake_case_name", ["snake", "case", "name"]),
        ("camelCaseName", ["camel", "Case", "Name"]),
        ("GDPGrowth", ["GDP", "Growth"]),
        ("year-over-year", ["year", "over", "year"]),
        ("U.S. total", ["U", "S", "total"]),
        ("Q1-2020", ["Q1", "2020"]),
        ("2018", ["2018"]),
        ("", []),
        ("   ", []),
    ],
)
def test_split_words_rules(text, expected):
    assert split_words(text) == expected


def test_extract_tokens_example(example_fact):
    tokens = extract_tokens(example_fact)
    assert [(t.word, t.location) for t in tokens] == [
        ("Country", LOC_SUBSPACE_FIELD),
        ("City", LOC_SUBSPACE_FIELD),
        ("China", LOC_SUBSPACE_VALUE),
        ("Guizhou", LOC_SUBSPACE_VALUE),
        ("Location", LOC_BREAKDOWN_FIELD),
        ("Population", LOC_MEASURE_FIELD),
        ("lower", LOC_META),
    ]


def test_extract_tokens_empty_fact(minimal_fact):
    assert extract_tokens(minimal_fact) == []


def test_extract_tokens_keeps_duplicates_and_focus_locations():
    fact = ChartFact(
        type_c=ChartType.LINE,
        type_f=FactType.VALUE,
        subspace=(Filter("Country name", "China", FieldType.GEOGRAPHICAL),),
        breakdown=FieldRef("Year", FieldType.TEMPORAL),
        focus=Focus(FieldRef("Year", FieldType.TEMPORAL), "2018"),
    )
    tokens = extract_tokens(fact)
    assert [(t.word, t.location) for t in tokens] == [
        ("Country", LOC_SUBSPACE_FIELD),
        ("name", LOC_SUBSPACE_FIELD),
        ("China", LOC_SUBSPACE_VALUE),
        ("Year", LOC_BREAKDOWN_FIELD),
        ("Year", LOC_FOCUS_FIELD),
        ("2018", LOC_FOCUS_VALUE),
    ]


def test_structural_words_never_leak_into_tokens():
    fact = ChartFact(type_c=ChartType.PIE, type_f=FactType.TREND)
    assert extract_tokens(fact) == []


def test_store_lookup_verbatim_and_case_insensitive(store):
    hit = store.lookup("country")
    assert hit.shape == (100,)
    assert np.array_equal(store.lookup("Country"), hit)
    assert np.array_equal(store.lookup("COUNTRY"), hit)


def test_oov_vectors_deterministic_and_unit_norm():
    a = VectorStore({})
    b = VectorStore({})
    v1 = a.lookup("2018")
    v2 = b.lookup("2018")
    assert np.array_equal(v1, v2)
    assert np.isclose(np.linalg.norm(v1), 1.0)
    assert not np.array_equal(a.lookup("2018"), a.lookup("2019"))


def test_store_rejects_bad_dimensions(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("word 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(VectorStoreError, match="expected a word and 100"):
        load_vector_store(str(path))


def test_store_first_occurrence_wins(tmp_path):
    path = tmp_path / "vectors.txt"
    first = "dup " + " ".join(["1.0"] * 100)
    second = "DUP " + " ".join(["2.0"] * 100)
    path.write_text(first + "\n" + second + "\n", encoding="utf-8")
    store = load_vector_store(str(path))
    assert len(store) == 1
    assert store.lookup("dup")[0] == 1.0
    # A later occurrence is still parsed and checked before it is dropped.
    for component, error in (("nan", "non-finite component"),
                             ("abc", "could not convert string to float: 'abc'")):
        damaged = "Dup " + " ".join(["3.0"] * 50 + [component] + ["3.0"] * 49)
        path.write_text(first + "\n" + second + "\n" + damaged + "\n", encoding="utf-8")
        with pytest.raises(VectorStoreError) as info:
            load_vector_store(str(path))
        assert str(info.value) == f"{path}:3: {error}"


def test_pool_word_constant():
    assert np.allclose(pool_word(np.full(100, 0.4)), np.full(10, 0.4))


def test_pool_word_arange():
    expected = np.arange(4.5, 100, 10.0)
    assert np.allclose(pool_word(np.arange(100.0)), expected)
    assert expected[0] == 4.5 and expected[-1] == 94.5


def test_pool_word_linearity(rng):
    for _ in range(20):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        a, b = rng.normal(size=2)
        assert np.allclose(pool_word(a * x + b * y), a * pool_word(x) + b * pool_word(y))


def test_pool_word_rejects_wrong_shape():
    with pytest.raises(ValueError):
        pool_word(np.zeros(99))


def block(tokens, store, mode="interval-average", use_locations=True):
    """The semantic block of one chart, through the corpus-at-once encoder."""
    return encode_semantics([tokens], store, mode, use_locations)[0]


def test_block_empty(empty_store):
    out = block([], empty_store)
    assert out.shape == (25, 17)
    assert not out.any()


def test_block_nine_token_example(empty_store):
    locations = [1, 1, 1, 1, 3, 4, 4, 5, 6]
    tokens = [Token(w, loc) for w, loc in zip(SPLIT_WORDS, locations)]
    out = block(tokens, empty_store)
    populated = np.abs(out).sum(axis=1) > 0
    assert populated[:9].all()
    assert not populated[9:].any()
    for i, token in enumerate(tokens):
        onehot = out[i, 10:]
        assert onehot.sum() == 1.0
        assert onehot[token.location - 1] == 1.0
        assert np.allclose(out[i, :10], pool_word(empty_store.lookup(token.word)))


def test_block_truncates_to_first_25(empty_store):
    tokens = [Token(f"word{i}", 1 + i % 7) for i in range(30)]
    out = block(tokens, empty_store)
    assert (np.abs(out).sum(axis=1) > 0).all()
    expected_last = np.concatenate(
        [
            pool_word(empty_store.lookup("word24")),
            np.eye(7)[tokens[24].location - 1],
        ]
    )
    assert np.allclose(out[SEMANTIC_SLOTS - 1], expected_last)


def test_block_deterministic(empty_store):
    tokens = [Token("alpha", 1), Token("beta", 4)]
    assert np.array_equal(block(tokens, empty_store), block(tokens, empty_store))


def test_encode_semantics_mode_shapes(empty_store):
    tokens = [Token("alpha", 1), Token("beta", 4), Token("gamma", 7)]
    assert block(tokens, empty_store, "interval-average").shape == (25, 17)
    assert block(tokens, empty_store, "word-max").shape == (25, 17)
    assert block(tokens, empty_store, "none").shape == (25, 107)
    assert block(tokens, empty_store, "words-average").shape == (1, 107)
    assert block(tokens, empty_store, "words-max").shape == (1, 107)
    for mode in SEMANTIC_MODES:
        assert encode_semantics([tokens, [], tokens], empty_store, mode).shape[0] == 3
        assert encode_semantics([], empty_store, mode).shape[0] == 0


def test_encode_semantics_aggregate_modes(empty_store):
    tokens = [Token("alpha", 1), Token("beta", 4)]
    vecs = np.stack([empty_store.lookup("alpha"), empty_store.lookup("beta")])
    avg = block(tokens, empty_store, "words-average")[0]
    assert np.allclose(avg[:100], vecs.mean(axis=0))
    assert np.allclose(avg[100:], np.array([0.5, 0, 0, 0.5, 0, 0, 0]))
    mx = block(tokens, empty_store, "words-max")[0]
    assert np.allclose(mx[:100], vecs.max(axis=0))
    assert np.allclose(mx[100:], np.array([1, 0, 0, 1, 0, 0, 0]))


def test_encode_semantics_no_locations(empty_store):
    out = block([Token("alpha", 2)], empty_store, "interval-average", use_locations=False)
    assert not out[:, 10:].any()
    assert out[0, :10].any()


def test_word_max_pooling_is_windowed_max(empty_store):
    vec = empty_store.lookup("alpha")
    out = block([Token("alpha", 1)], empty_store, "word-max")
    assert np.allclose(out[0, :10], vec.reshape(10, 10).max(axis=1))


def test_pool_word_table_rows_equal_single_vectors(rng):
    table = rng.normal(size=(6, 100))
    pooled = pool_word(table)
    assert pooled.shape == (6, 10)
    for row, vec in zip(pooled, table):
        assert row.tobytes() == pool_word(vec).tobytes()


# --- the word-table path against the per-chart oracle -----------------------


def one_vis_corpus(facts):
    charts = tuple((f"c{i}", fact) for i, fact in enumerate(facts))
    return Corpus((MultiViewVis("v", "d", "economy", "data-story", charts),))


def edge_corpus():
    """A chart with no tokens, one past the 25-token cut, one word in three
    spellings, and words outside the fixture store."""
    long = tuple(
        Filter(field, f"{field} {field}x one two", FieldType.CATEGORICAL)
        for field in ("year region trade", "zone match index", "rate lower west")
    )
    return one_vis_corpus([
        ChartFact(type_c=ChartType.TABLE, type_f=FactType.VALUE),
        ChartFact(type_c=ChartType.TABLE, type_f=FactType.VALUE, subspace=long),
        ChartFact(type_c=ChartType.LINE, type_f=FactType.VALUE,
                  subspace=(Filter("Country", "COUNTRY", FieldType.CATEGORICAL),),
                  breakdown=FieldRef("zzNotAWord", FieldType.TEMPORAL),
                  focus=Focus(FieldRef("country", FieldType.TEMPORAL), "qqq 2018")),
        ChartFact(type_c=ChartType.PIE, type_f=FactType.TREND),
    ])


def random_fact_corpus(seed, size=120):
    rng = np.random.default_rng(seed)
    return one_vis_corpus([random_fact(rng) for _ in range(size)])


def oracle_blocks(corpus, store, mode, use_locations):
    return np.stack([
        reference.encode_semantics(extract_tokens(fact), store, mode, use_locations)
        for vis in corpus.visualizations
        for _, fact in vis.charts
    ])


@pytest.mark.parametrize("use_locations", [True, False])
@pytest.mark.parametrize("mode", SEMANTIC_MODES)
@pytest.mark.parametrize("corpus_name", ["fixture", "random_fact", "edge"])
def test_word_table_blocks_bit_equal_per_chart_oracle(
    fixture_corpus, store, corpus_name, mode, use_locations
):
    corpus = {
        "fixture": fixture_corpus, "random_fact": random_fact_corpus(3), "edge": edge_corpus()
    }[corpus_name]
    config = EncoderConfig(semantic_mode=mode, use_locations=use_locations)
    got = encode_corpus(corpus, store, config).semantics
    expected = oracle_blocks(corpus, store, mode, use_locations)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_edge_corpus_covers_its_cases(store):
    tokens = [extract_tokens(fact) for _, fact in edge_corpus().visualizations[0].charts]
    assert tokens[0] == [] and tokens[3] == []
    assert len(tokens[1]) > SEMANTIC_SLOTS
    words = [t.word for t in tokens[2]]
    assert {"Country", "COUNTRY", "country"} <= set(words)
    assert any(w not in store for w in words) and any(w in store for w in words)


@pytest.mark.parametrize("mode", SEMANTIC_MODES)
def test_corpus_without_tokens_has_an_empty_table(store, mode):
    empty = ChartFact(type_c=ChartType.TABLE, type_f=FactType.VALUE)
    corpus = one_vis_corpus([empty] * 4)
    blocks = encode_corpus(corpus, store, EncoderConfig(semantic_mode=mode)).semantics
    assert blocks.shape == (4, *EncoderConfig(semantic_mode=mode).semantic_shape)
    assert not blocks.any()


class CountingStore(VectorStore):
    def __init__(self, base):
        super().__init__(dict(base._vectors))
        self.calls: list[str] = []

    def lookup(self, word):
        self.calls.append(word)
        return super().lookup(word)


def test_encode_corpus_looks_up_each_distinct_word_once(fixture_corpus, store):
    for corpus in (fixture_corpus, random_fact_corpus(5), edge_corpus()):
        counting = CountingStore(store)
        encode_corpus(corpus, counting, EncoderConfig())
        kept = {
            t.word.lower()
            for vis in corpus.visualizations
            for _, fact in vis.charts
            for t in extract_tokens(fact)[:SEMANTIC_SLOTS]
        }
        assert len(counting.calls) == len(kept)
        assert {w.lower() for w in counting.calls} == kept


def test_all_names_resolve():
    for name in chartembed.__all__:
        assert getattr(chartembed, name, None) is not None, name
    assert "build_semantic_block" not in chartembed.__all__


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400", "NaN"])
def test_store_rejects_non_finite_components(tmp_path, component):
    path = tmp_path / "vectors.txt"
    good = "good " + " ".join(["0.5"] * 100)
    bad = "bad " + " ".join(["0.5"] * 40 + [component] + ["0.5"] * 59)
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(VectorStoreError) as info:
        load_vector_store(str(path))
    assert str(info.value) == f"{path}:2: non-finite component"
    # The same damage on a repeated word's line.
    path.write_text(good + "\n" + bad.replace("bad", "GOOD", 1) + "\n", encoding="utf-8")
    with pytest.raises(VectorStoreError) as info:
        load_vector_store(str(path))
    assert str(info.value) == f"{path}:2: non-finite component"

from __future__ import annotations

import gc
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartembed import corpus as corpus_mod
from chartembed import facts, grammar, semantics
from chartembed.corpus import (
    NEGATIVE_POLICIES,
    Corpus,
    CorpusError,
    MultiViewVis,
    build_samples,
    corpus_from_dict,
    corpus_to_dict,
    encode_corpus,
    import_calliope,
    load_corpus,
    save_corpus,
    split_corpus,
)
from chartembed.encoder import EncoderConfig
from chartembed.semantics import VectorStore
from reference import random_corpus, reference_id_quadruples


def minimal_fact_obj(**overrides):
    obj = {
        "type_c": "table",
        "type_f": "value",
        "subspace": [],
        "breakdown": None,
        "measure": None,
        "focus": None,
        "meta": None,
    }
    obj.update(overrides)
    return obj


def make_vis(vis_id, dataset_id="ds0", n_charts=3, domain="economy", prefix=None):
    prefix = prefix or vis_id
    return {
        "id": vis_id,
        "dataset_id": dataset_id,
        "domain": domain,
        "kind": "data-story",
        "charts": [
            {"chart_id": f"{prefix}-c{i}", "fact": minimal_fact_obj()}
            for i in range(n_charts)
        ],
    }


def test_load_fixture_corpus(fixture_corpus):
    assert len(fixture_corpus) == 10
    assert fixture_corpus.chart_count >= 30
    assert len(fixture_corpus.dataset_ids()) == 5


def test_loading_is_idempotent(fixture_corpus_path):
    assert load_corpus(fixture_corpus_path) == load_corpus(fixture_corpus_path)


def test_save_load_roundtrip(fixture_corpus, tmp_path):
    path = str(tmp_path / "copy.json")
    save_corpus(fixture_corpus, path)
    assert load_corpus(path) == fixture_corpus


def test_load_corpus_rejects_a_file_that_is_not_utf8(tmp_path, fixture_corpus_path):
    path = tmp_path / "corpus.json"
    text = open(fixture_corpus_path, encoding="utf-8").read()
    path.write_bytes(text.replace('"economy"', '"\u00e9conomie"', 1).encode("latin-1"))
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: not a UTF-8 text file: "):
        load_corpus(str(path))


_SURROGATE_TEXTS = [
    # (JSON text, the location and code point its message names, or None)
    ('{"a": [{"b": "caf\\ud800e"}]}', "a[0].b: lone surrogate U+D800"),
    ('{"a": "\\uDFFF"}', "a: lone surrogate U+DFFF"),
    ('{"a": "\\udc00\\ud800"}', "a: lone surrogate U+DC00"),
    ('{"a": "ok", "b": ["x", "\\ud801"], "c": "\\ud802"}', "b[1]: lone surrogate U+D801"),
    ('{"k\\ud800": 1}', "a key of the top-level object: lone surrogate U+D800"),
    ('{"a": {"ok": 1, "k\\udbff": 2}}', "a key of a: lone surrogate U+DBFF"),
    ('"\\ud800"', "the top-level value: lone surrogate U+D800"),
    ('{"a": "\\ud83d\\ude00"}', None),  # a pair is one character
    ('{"a": "\\\\ud800"}', None),  # an escaped backslash, then the text ud800
    ('{"a": "\\ud55c"}', None),  # U+D55C is a Hangul syllable
]


@pytest.mark.parametrize("text, message", _SURROGATE_TEXTS)
def test_read_json_names_a_lone_surrogate(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="ascii")
    if message is None:
        assert corpus_mod.read_json(str(path)) == json.loads(text)
        return
    expected = f"{path}: {message}, which UTF-8 cannot encode"
    with pytest.raises(CorpusError, match=f"^{re.escape(expected)}$"):
        corpus_mod.read_json(str(path))


def test_a_surrogate_in_utf8_bytes_is_not_utf8(tmp_path):
    # Strict UTF-8 decoding rejects an encoded surrogate, so only an escape
    # can put one in a decoded string.
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\xed\xa0\x80"}')
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: not a UTF-8 text file: "):
        corpus_mod.read_json(str(path))


def _invalid_fact_corpus() -> Corpus:
    # Built directly, so encode_corpus checks its facts and raises.
    fact = facts.ChartFact(type_c=facts.ChartType.LINE, type_f=facts.FactType.TREND,
                           meta=facts.MetaExtreme(facts.ExtremeKind.MAX))
    charts = tuple((f"c{i}", fact) for i in range(3))
    return Corpus((MultiViewVis("v", "d", "economy", "data-story", charts),))


def _strict_invalid_chart() -> dict:
    vis = make_vis("v0", n_charts=4)
    vis["charts"][0]["fact"]["type_c"] = "3d chart"
    return {"visualizations": [vis]}


# name -> (call on the paths of a valid corpus, invalid JSON and an invalid
# chart; the exception it raises, or None)
_GC_CALLS = {
    "read_json": (lambda p: corpus_mod.read_json(p["valid"]), None),
    "read_json, invalid JSON": (lambda p: corpus_mod.read_json(p["not JSON"]), CorpusError),
    "corpus_from_dict": (lambda p: corpus_from_dict({"visualizations": [make_vis("v0")]}), None),
    "corpus_from_dict, invalid chart": (lambda p: corpus_from_dict(_strict_invalid_chart()),
                                        CorpusError),
    "load_corpus": (lambda p: load_corpus(p["valid"]), None),
    "load_corpus, invalid chart": (lambda p: load_corpus(p["invalid chart"]), CorpusError),
    "load_corpus, invalid JSON": (lambda p: load_corpus(p["not JSON"]), CorpusError),
    "encode_corpus": (lambda p: encode_corpus(
        load_corpus(p["valid"]), VectorStore({}), EncoderConfig()), None),
    "encode_corpus, invalid fact": (lambda p: encode_corpus(
        _invalid_fact_corpus(), VectorStore({}), EncoderConfig()), grammar.GrammarError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("name", list(_GC_CALLS))
def test_cyclic_gc_state_is_restored(tmp_path, fixture_corpus_path, name, enabled):
    """Reading and encoding a corpus pause the cyclic collector and leave it
    as the caller had it, on success and on error."""
    paths = {"valid": fixture_corpus_path, "not JSON": str(tmp_path / "bad.json"),
             "invalid chart": str(tmp_path / "invalid.json")}
    (tmp_path / "bad.json").write_text('{"visualizations": [', encoding="utf-8")
    (tmp_path / "invalid.json").write_text(json.dumps(_strict_invalid_chart()), encoding="utf-8")
    call, raises = _GC_CALLS[name]
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if raises is None:
            call(paths)
        else:
            with pytest.raises(raises):
                call(paths)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_cyclic_gc_is_paused_while_a_corpus_is_built(monkeypatch, fixture_corpus_path):
    seen = []

    def probe(fn):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(corpus_mod, "fact_from_dict", probe(corpus_mod.fact_from_dict))
    monkeypatch.setattr(semantics, "extract_tokens", probe(semantics.extract_tokens))
    assert gc.isenabled()
    encode_corpus(load_corpus(fixture_corpus_path), VectorStore({}), EncoderConfig())
    assert gc.isenabled()
    assert {name for name, _ in seen} == {"fact_from_dict", "extract_tokens"}
    assert not any(enabled for _, enabled in seen)


def test_two_chart_story_rejected():
    with pytest.raises(CorpusError, match="minimum chart number"):
        corpus_from_dict({"visualizations": [make_vis("v0", n_charts=2)]})


def test_duplicate_chart_id_across_stories_rejected():
    obj = {
        "visualizations": [
            make_vis("v0", prefix="shared"),
            make_vis("v1", prefix="shared"),
        ]
    }
    with pytest.raises(CorpusError, match="globally unique"):
        corpus_from_dict(obj)


def test_duplicate_chart_id_within_story_rejected():
    vis = make_vis("v0")
    vis["charts"][1]["chart_id"] = vis["charts"][0]["chart_id"]
    with pytest.raises(CorpusError, match="duplicate chart id"):
        corpus_from_dict({"visualizations": [vis]})


def test_unknown_domain_and_kind_rejected():
    vis = make_vis("v0", domain="astrology")
    with pytest.raises(CorpusError, match="unknown domain"):
        corpus_from_dict({"visualizations": [vis]})
    vis = make_vis("v0")
    vis["kind"] = "poster"
    with pytest.raises(CorpusError, match="unknown kind"):
        corpus_from_dict({"visualizations": [vis]})


def test_strict_mode_rejects_invalid_chart():
    vis = make_vis("v0", n_charts=4)
    vis["charts"][0]["fact"]["type_c"] = "3d chart"
    with pytest.raises(CorpusError, match="invalid charts"):
        corpus_from_dict({"visualizations": [vis]})


def test_lenient_mode_drops_invalid_chart(caplog):
    vis = make_vis("v0", n_charts=4)
    vis["charts"][0]["fact"]["type_c"] = "3d chart"
    corpus = corpus_from_dict({"visualizations": [vis]}, strict=False)
    assert corpus.chart_count == 3


def test_lenient_mode_drops_underfilled_visualization():
    vis = make_vis("v0", n_charts=3)
    vis["charts"][0]["fact"]["type_c"] = "3d chart"
    corpus = corpus_from_dict({"visualizations": [vis]}, strict=False)
    assert len(corpus) == 0


def test_split_is_dataset_disjoint_and_deterministic(fixture_corpus):
    a_train, a_test = split_corpus(fixture_corpus, 0.2, seed=3)
    b_train, b_test = split_corpus(fixture_corpus, 0.2, seed=3)
    assert a_train == b_train and a_test == b_test
    train_sets = set(a_train.dataset_ids())
    test_sets = set(a_test.dataset_ids())
    assert train_sets and test_sets
    assert not train_sets & test_sets
    assert len(a_train) + len(a_test) == len(fixture_corpus)
    # 0.2 of 10 visualizations, with 2 per dataset, lands exactly one dataset.
    assert len(a_test) == 2


def test_split_fraction_bounds(fixture_corpus):
    with pytest.raises(ValueError):
        split_corpus(fixture_corpus, 0.0, 0)
    with pytest.raises(ValueError):
        split_corpus(fixture_corpus, 1.0, 0)


def test_split_extreme_fraction_keeps_one_train_dataset(fixture_corpus):
    train, test = split_corpus(fixture_corpus, 0.999, 0)
    assert len(set(train.dataset_ids())) == 1
    assert len(set(test.dataset_ids())) == 4


def test_split_single_dataset_rejected():
    corpus = corpus_from_dict(
        {"visualizations": [make_vis("v0"), make_vis("v1", prefix="x")]}
    )
    with pytest.raises(CorpusError, match="too small to split"):
        split_corpus(corpus, 0.5, 0)


def test_window_count(fixture_corpus, store, base_config):
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    expected_windows = sum(
        max(0, len(v.charts) - 2) for v in fixture_corpus.visualizations
    )
    assert expected_windows == 30
    assert len(samples) == 30


def test_each_fact_is_validated_once_before_training(
    monkeypatch, fixture_corpus_path, store, base_config
):
    # load_corpus validates every fact; encode_corpus, inside build_samples,
    # derives its rule ids without a second check, also for the parts that
    # split_corpus makes.
    calls = []

    def counting(fact):
        calls.append(fact)
        return facts.validate_fact(fact)

    monkeypatch.setattr(corpus_mod, "validate_fact", counting)
    monkeypatch.setattr(grammar, "validate_fact", counting)
    corpus = load_corpus(fixture_corpus_path)
    build_samples(corpus, store, 1, "same-dataset-first", 0, base_config)
    train_part, _ = split_corpus(corpus, 0.3, 0)
    build_samples(train_part, store, 1, "same-dataset-first", 0, base_config)
    assert len(calls) == corpus.chart_count == 50


def test_five_chart_story_gives_three_windows(store, base_config):
    obj = {
        "visualizations": [
            make_vis("v0", n_charts=5),
            make_vis("v1", n_charts=3, prefix="w"),
        ]
    }
    corpus = corpus_from_dict(obj)
    samples = build_samples(corpus, store, 1, "any", 0, base_config)
    vis_ids = samples.encoded.vis_ids
    from_v0 = [mid for _, mid, _, _ in samples.quads if vis_ids[mid] == "v0"]
    assert len(from_v0) == 3


def test_no_duplicate_quadruples_and_no_self_negatives(fixture_corpus, store, base_config):
    samples = build_samples(fixture_corpus, store, 3, "same-dataset-first", 1, base_config)
    assert len(np.unique(samples.quads, axis=0)) == len(samples.quads)
    vis_ids = samples.encoded.vis_ids
    for _, mid, _, neg in samples.quads:
        assert vis_ids[neg] != vis_ids[mid]


def test_same_dataset_first_policy(fixture_corpus, store, base_config):
    # Every fixture dataset holds two stories, so a same-dataset negative
    # always exists and the first preference tier always wins.
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    dataset_ids = samples.encoded.dataset_ids
    for _, mid, _, neg in samples.quads:
        assert dataset_ids[neg] == dataset_ids[mid]


def test_sampling_deterministic_per_seed(fixture_corpus, store, base_config):
    a = build_samples(fixture_corpus, store, 1, "same-dataset-first", 5, base_config)
    b = build_samples(fixture_corpus, store, 1, "same-dataset-first", 5, base_config)
    assert np.array_equal(a.quads, b.quads)


def test_tier_arrays_match_per_window_reference(fixture_corpus, empty_store, base_config):
    for corpus in (fixture_corpus, random_corpus(0)):
        for negatives in (1, 3, 5):
            for policy in NEGATIVE_POLICIES:
                for seed in (0, 7):
                    samples = build_samples(
                        corpus, empty_store, negatives, policy, seed, base_config
                    )
                    expected = reference_id_quadruples(corpus, negatives, policy, seed)
                    ids = samples.encoded.chart_ids
                    got = tuple(tuple(ids[row] for row in quad) for quad in samples.quads.tolist())
                    assert got == expected, (negatives, policy, seed)


def _layout_corpus(layout, names):
    """A corpus of one visualization per (dataset, domain, charts) of layout,
    every chart a plain table, named by the numbers of `names` in turn."""
    names = iter(names)
    fact = facts.ChartFact(type_c=facts.ChartType.TABLE, type_f=facts.FactType.VALUE)
    return Corpus(tuple(
        MultiViewVis(
            f"v{i}", f"d{dataset}", domain, "data-story",
            tuple((f"c{next(names):02d}", fact) for _ in range(charts)),
        )
        for i, (dataset, domain, charts) in enumerate(layout)
    ))


@st.composite
def sampling_corpora(draw):
    """Two to eight visualizations in up to three datasets and three domains.
    A dataset may sit in two domains, a visualization holds one to five
    charts (so a tier may hold one chart or none), and chart ids are shuffled
    against corpus order."""
    layout = draw(st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(("economy", "sports", "health")),
                  st.integers(1, 5)),
        min_size=2, max_size=8,
    ))
    return _layout_corpus(layout, draw(st.permutations(range(sum(n for *_, n in layout)))))


# Dataset d0 sits in two domains; v3's first tier and v1's second are empty,
# and the second tiers of v0 and v3 are one chart each (v2's and v4's).
_EVERY_TIER_SHAPE = _layout_corpus(
    [(0, "economy", 4), (0, "sports", 3), (1, "economy", 1), (2, "health", 3), (1, "health", 1)],
    range(11, -1, -1),
)


@settings(max_examples=200, deadline=None)
@given(sampling_corpora(), st.integers(1, 5), st.sampled_from(NEGATIVE_POLICIES),
       st.integers(0, 2**32))
@example(_EVERY_TIER_SHAPE, 1, "same-dataset-first", 0)
@example(_EVERY_TIER_SHAPE, 5, "same-dataset-first", 0)
def test_sampler_matches_per_window_reference(corpus, negatives, policy, seed):
    samples = build_samples(corpus, VectorStore({}), negatives, policy, seed)
    ids = samples.encoded.chart_ids
    got = tuple(tuple(ids[row] for row in quad) for quad in samples.quads.tolist())
    assert got == reference_id_quadruples(corpus, negatives, policy, seed)


def test_integers_takes_the_numbers_of_one_draw_choices():
    # build_samples draws a run of one-chart picks with one integers call; its
    # quadruples equal those of one choice per pick only while this holds.
    sizes = [1, 2, 3, 7, 1, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 1, 5]
    for seed in (0, 1, 501):
        looped, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [looped.choice(n, size=1, replace=False).item() for n in sizes]
        assert batched.integers(0, np.array(sizes, dtype=np.int64)).tolist() == expected
        assert batched.bit_generator.state == looped.bit_generator.state
        assert batched.random() == looped.random()


# (keyword, value, message) for build_samples, whose other settings stay valid.
_BAD_SAMPLING = [
    ("negatives_per_window", 1.5, "negatives_per_window: expected an integer, got 1.5"),
    ("negatives_per_window", 2.0, "negatives_per_window: expected an integer, got 2.0"),
    ("negatives_per_window", True, "negatives_per_window: expected an integer, got true"),
    ("negatives_per_window", "1", 'negatives_per_window: expected an integer, got "1"'),
    ("negatives_per_window", 0, "negatives_per_window: must be >= 1, got 0"),
    ("policy", "nearest",
     "policy: must be one of ['same-dataset-first', 'any'], got \"nearest\""),
    ("policy", None, "policy: expected a string, got null"),
    ("seed", -1, "seed: must be >= 0, got -1"),
    ("seed", 1.5, "seed: expected an integer, got 1.5"),
    ("seed", False, "seed: expected an integer, got false"),
]


@pytest.mark.parametrize("keyword, value, message", _BAD_SAMPLING)
def test_bad_sampling_setting_is_named(fixture_corpus, empty_store, keyword, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_samples(fixture_corpus, empty_store, **{keyword: value})


# (keyword, value, message) for split_corpus, whose other setting stays valid.
_BAD_SPLIT = [
    ("test_fraction", 0.0, "test_fraction: must be in (0, 1), got 0.0"),
    ("test_fraction", 1, "test_fraction: must be in (0, 1), got 1"),
    ("test_fraction", float("nan"), "test_fraction: expected a finite number, got nan"),
    ("test_fraction", "0.5", 'test_fraction: expected a number, got "0.5"'),
    ("test_fraction", True, "test_fraction: expected a number, got true"),
    ("seed", -1, "seed: must be >= 0, got -1"),
    ("seed", 1.5, "seed: expected an integer, got 1.5"),
]


@pytest.mark.parametrize("keyword, value, message", _BAD_SPLIT)
def test_bad_split_setting_is_named(fixture_corpus, keyword, value, message):
    kwargs = {"test_fraction": 0.2, "seed": 0, keyword: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_corpus(fixture_corpus, **kwargs)


def test_single_visualization_corpus_rejected(store, base_config):
    corpus = corpus_from_dict({"visualizations": [make_vis("v0", n_charts=4)]})
    with pytest.raises(CorpusError, match="eligible negatives"):
        build_samples(corpus, store, 1, "any", 0, base_config)


def test_import_calliope_sample(data_dir, tmp_path):
    with open(data_dir / "calliope_sample.json", encoding="utf-8") as fh:
        converted = import_calliope(json.load(fh))
    corpus = corpus_from_dict(converted)
    assert len(corpus) == 3
    assert corpus.chart_count == 9
    vis = corpus.visualizations[0]
    chart_id, fact = vis.charts[0]
    assert fact.type_f.value == "trend"
    assert fact.meta.kind == "trend"
    assert fact.measure.aggregation.value == "average"
    assert fact.subspace[0].field_type.value == "geographical"
    assert fact.breakdown.field_type.value == "temporal"

    # Converted output must survive the normal save/load cycle.
    path = str(tmp_path / "imported.json")
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_corpus_to_dict_roundtrip(fixture_corpus):
    assert corpus_from_dict(corpus_to_dict(fixture_corpus)) == fixture_corpus

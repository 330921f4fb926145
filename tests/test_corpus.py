from __future__ import annotations

import json
import re

import numpy as np
import pytest

from chartembed import corpus as corpus_mod
from chartembed import facts, grammar
from chartembed.corpus import (
    NEGATIVE_POLICIES,
    Corpus,
    CorpusError,
    MultiViewVis,
    build_samples,
    corpus_from_dict,
    corpus_to_dict,
    import_calliope,
    load_corpus,
    save_corpus,
    split_corpus,
)
from chartembed.factgen import random_fact


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


def reference_id_quadruples(corpus, negatives_per_window, policy, seed):
    """Negative sampling as a plain per-window loop over every chart: the
    reference that build_samples' per-visualization tier arrays must match."""
    refs = sorted(
        (chart_id, vis.id, vis.dataset_id, vis.domain)
        for vis in corpus.visualizations
        for chart_id, _ in vis.charts
    )
    rng = np.random.default_rng(seed)
    quads, seen = [], set()
    for vis in corpus.visualizations:
        ids = [chart_id for chart_id, _ in vis.charts]
        for i in range(1, len(ids) - 1):
            others = [r for r in refs if r[1] != vis.id]
            if policy == "same-dataset-first":
                tiers = [
                    [r for r in others if r[2] == vis.dataset_id],
                    [r for r in others if r[2] != vis.dataset_id and r[3] == vis.domain],
                    [r for r in others if r[2] != vis.dataset_id and r[3] != vis.domain],
                ]
            else:
                tiers = [others]
            chosen = []
            for tier in tiers:
                if len(chosen) >= negatives_per_window:
                    break
                want = min(negatives_per_window - len(chosen), len(tier))
                if want == 0:
                    continue
                picks = rng.choice(len(tier), size=want, replace=False)
                chosen.extend(tier[int(j)][0] for j in sorted(picks))
            for negative in chosen:
                quad = (ids[i - 1], ids[i], ids[i + 1], negative)
                if quad not in seen:
                    seen.add(quad)
                    quads.append(quad)
    return tuple(quads)


def random_corpus(seed):
    """Several datasets per domain, single-visualization datasets and a
    single-dataset domain, so every negative tier can come up empty; chart ids
    are shuffled, so chart-id order differs from corpus order."""
    rng = np.random.default_rng(seed)
    layout = [  # (dataset, domain, visualizations)
        ("d0", "economy", 2), ("d1", "economy", 1), ("d2", "economy", 3),
        ("d3", "sports", 1), ("d4", "sports", 2), ("d5", "health", 1),
    ]
    sizes = [int(rng.integers(3, 7)) for _, _, n in layout for _ in range(n)]
    names = iter(rng.permutation(sum(sizes)).tolist())
    sizes = iter(sizes)
    visualizations = []
    for dataset, domain, n in layout:
        for v in range(n):
            charts = tuple(
                (f"c{next(names):03d}", random_fact(rng)) for _ in range(next(sizes))
            )
            visualizations.append(
                MultiViewVis(f"{dataset}-v{v}", dataset, domain, "data-story", charts)
            )
    return Corpus(tuple(visualizations))


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

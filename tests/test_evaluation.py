from __future__ import annotations

import math
import re

import numpy as np
import pytest

from chartembed.cli import main
from chartembed.corpus import Corpus, corpus_from_dict
from chartembed.encoder import init_params
from chartembed.evaluation import (
    ABLATION_VARIANTS,
    AblationResult,
    EmbeddingIndex,
    EvaluationError,
    ablation_csv,
    build_index,
    compute_metrics,
    load_index,
    nearest,
    render_ablation_table,
    run_ablation,
    save_index,
    variant_switches,
)
from chartembed.learning import HyperParams
from reference import SINGLE_SWITCH_VARIANTS, ranking_by_difference


def entry(chart_id, vec, story_id, position, dataset_id="ds"):
    return chart_id, story_id, position, dataset_id, np.asarray(vec, dtype=np.float64)


def index_of(entries):
    chart_ids, story_ids, positions, dataset_ids, vectors = zip(*entries)
    return EmbeddingIndex(chart_ids, story_ids, positions, dataset_ids, np.array(vectors))


# ---------------------------------------------------------------------------
# Independent brute-force oracles, kept deliberately dumb: plain loops,
# math.dist, and explicit tie handling.

def brute_force_ranking(index, anchor_id, scope):
    a = index.row[anchor_id]
    rows = []
    for c, cid in enumerate(index.ids):
        if cid == anchor_id:
            continue
        if scope == "same-dataset" and index.dataset_ids[c] != index.dataset_ids[a]:
            continue
        rows.append((math.dist(index.vectors[a], index.vectors[c]), cid))
    rows.sort()
    return [(cid, d) for d, cid in rows]


def brute_force_metrics(index, gap2=2, gap3=3):
    t2 = t3 = co = scored = 0
    for anchor_id in index.ids:
        ranking = brute_force_ranking(index, anchor_id, "same-dataset")
        if not ranking:
            continue
        scored += 1
        retrieved_id, _ = ranking[0]
        a = index.row[anchor_id]
        r = index.row[retrieved_id]
        if index.story_ids[a] == index.story_ids[r]:
            co += 1
            gap = abs(index.positions[a] - index.positions[r])
            if gap <= gap2:
                t2 += 1
            if gap <= gap3:
                t3 += 1
    return t2 / scored, t3 / scored, co / scored, scored


# ---------------------------------------------------------------------------


def planted_index():
    # Two stories in one dataset plus a singleton dataset, hand-placed in 2-d.
    return index_of(
        [
            entry("a0", [0.0, 0.0], "storyA", 0),
            entry("a1", [1.0, 0.0], "storyA", 1),
            entry("a2", [2.0, 0.0], "storyA", 2),
            entry("b0", [10.0, 0.0], "storyB", 0),
            entry("b1", [11.0, 0.0], "storyB", 1),
            entry("lone", [5.0, 5.0], "storyC", 0, dataset_id="solo"),
        ]
    )


def test_build_index_counts_and_determinism(fixture_corpus, store, base_config):
    params = init_params(0, base_config)
    index_a = build_index(fixture_corpus, params, store)
    index_b = build_index(fixture_corpus, params, store)
    assert len(index_a) == fixture_corpus.chart_count == 50
    assert index_a.ids == index_b.ids
    assert np.array_equal(index_a.vectors, index_b.vectors)
    assert index_a.vectors.shape == (50, 540)


def test_build_index_empty_corpus(store, base_config):
    params = init_params(0, base_config)
    assert len(build_index(Corpus(()), params, store)) == 0


def test_nearest_matches_brute_force_oracle(rng):
    # Ids against the math.dist loop; ids and distance bits against the
    # difference-form oracle.
    entries = [
        entry(f"c{i}", rng.normal(size=4), f"story{i % 3}", i, dataset_id=f"ds{i % 2}")
        for i in range(12)
    ]
    index = index_of(entries)
    for anchor_id in index.ids:
        for scope in ("same-dataset", "all"):
            expected = brute_force_ranking(index, anchor_id, scope)
            got = nearest(index, anchor_id, scope, k=len(expected))
            ids, distances = ranking_by_difference(index, anchor_id, scope)
            assert [cid for cid, _ in got] == ids == [cid for cid, _ in expected]
            got_bits = np.array([d for _, d in got]).view(np.uint64)
            assert np.array_equal(got_bits, distances.view(np.uint64))


def test_nearest_tie_breaks_lexicographically():
    index = index_of(
        [
            entry("anchor", [0.0, 0.0], "s", 0),
            entry("zeta", [1.0, 0.0], "s", 1),
            entry("alpha", [-1.0, 0.0], "s", 2),
        ]
    )
    ranked = nearest(index, "anchor", "same-dataset", k=2)
    assert [cid for cid, _ in ranked] == ["alpha", "zeta"]


def test_nearest_scope_and_errors():
    index = planted_index()
    with pytest.raises(EvaluationError, match="unknown anchor"):
        nearest(index, "nope")
    with pytest.raises(EvaluationError, match="no candidates"):
        nearest(index, "lone", "same-dataset")
    with pytest.raises(EvaluationError, match="unknown scope"):
        nearest(index, "a0", "galaxy")
    for k, message in [(0, "k: must be >= 1, got 0"), (2.5, "k: expected an integer, got 2.5"),
                       (True, "k: expected an integer, got true")]:
        with pytest.raises(EvaluationError, match=re.escape(message)):
            nearest(index, "a0", k=k)
    ranked = nearest(index, "a0", "same-dataset", k=99)
    assert len(ranked) == 4  # k larger than the candidate pool returns all
    assert all(index.dataset_ids[index.row[cid]] == "ds" for cid, _ in ranked)


def test_nearest_overflowing_distances_are_infinite():
    index = index_of(
        [entry("a", [1e308], "s", 0), entry("b", [-1e308], "s", 1), entry("c", [0.0], "s", 2)]
    )
    # Under the suite's error::RuntimeWarning filter, a numpy warning fails here.
    assert nearest(index, "a", k=2) == [("b", math.inf), ("c", math.inf)]


def test_nearest_distances_non_decreasing(rng):
    entries = [entry(f"c{i}", rng.normal(size=3), "s", i) for i in range(9)]
    index = index_of(entries)
    ranked = nearest(index, "c0", "all", k=8)
    distances = [d for _, d in ranked]
    assert distances == sorted(distances)


def test_metrics_on_planted_index_match_hand_and_oracle():
    index = planted_index()
    report = compute_metrics(index)
    # Hand check: a0..a2 and b0,b1 retrieve within their own story except a2,
    # whose nearest neighbour a1 is still same-story; everything co-occurs.
    assert report.n_excluded == 1  # the singleton dataset cannot be scored
    assert report.n_anchors == 5
    t2, t3, co, scored = brute_force_metrics(index)
    assert report.top2 == t2
    assert report.top3 == t3
    assert report.cooccurrence == co
    assert report.n_anchors == scored


def test_metrics_match_oracle_on_trained_fixture(fixture_corpus, store, base_config):
    params = init_params(1, base_config)
    index = build_index(fixture_corpus, params, store)
    report = compute_metrics(index)
    t2, t3, co, scored = brute_force_metrics(index)
    assert report.top2 == t2
    assert report.top3 == t3
    assert report.cooccurrence == co
    assert report.n_anchors == scored == 50


def test_metric_bounds_and_subset_conditions(fixture_corpus, store, base_config):
    params = init_params(1, base_config)
    report = compute_metrics(build_index(fixture_corpus, params, store))
    assert 0.0 <= report.top2 <= report.top3 <= 1.0
    assert report.top2 <= report.cooccurrence
    assert report.top3 <= report.cooccurrence


def test_single_story_per_dataset_has_full_cooccurrence(rng):
    entries = []
    for ds in range(3):
        for pos in range(4):
            entries.append(
                entry(f"d{ds}p{pos}", rng.normal(size=5), f"story{ds}", pos, dataset_id=f"ds{ds}")
            )
    report = compute_metrics(index_of(entries))
    assert report.cooccurrence == 1.0


def test_metrics_gap_thresholds():
    # Anchor a0 retrieves a3 (gap 3): counts for top-3 but not top-2.
    index = index_of(
        [
            entry("a0", [0.0, 0.0], "s", 0),
            entry("a3", [0.5, 0.0], "s", 3),
            entry("a9", [9.0, 0.0], "s", 9),
        ]
    )
    report = compute_metrics(index)
    detail = {d.anchor: d for d in report.details}
    assert detail["a0"].gap == 3
    assert not detail["a0"].top2
    assert detail["a0"].top3
    wide = compute_metrics(index, gap2=3)
    assert {d.anchor: d for d in wide.details}["a0"].top2


def test_metrics_empty_index_rejected():
    with pytest.raises(EvaluationError, match="empty"):
        compute_metrics(EmbeddingIndex((), (), (), (), np.zeros((0, 0))))


def test_metrics_reject_an_index_of_one_chart_datasets():
    index = EmbeddingIndex(("a", "b"), ("s", "s"), (0, 1), ("d1", "d2"), np.eye(2))
    with pytest.raises(EvaluationError, match="no scorable anchors"):
        compute_metrics(index)


_FIVE = [f"c{i}" for i in range(5)]
_BAD_COLUMNS = {
    # case: (chart ids, positions, vectors, message)
    "3 ids, 5 rows": (_FIVE[:3], [0] * 3, np.zeros((5, 2)),
                      "3 chart ids, 3 story ids, 3 positions, 3 dataset ids and 5 vector rows"),
    "5 ids, 3 rows": (_FIVE, [0] * 5, np.zeros((3, 2)),
                      "5 chart ids, 5 story ids, 5 positions, 5 dataset ids and 3 vector rows"),
    "1-D vector": (_FIVE, [0] * 5, np.zeros(5), "vectors: expected a 2-D matrix, got 1-D"),
    "2 positions": (_FIVE, [0] * 2, np.zeros((5, 2)),
                    "5 chart ids, 5 story ids, 2 positions, 5 dataset ids and 5 vector rows"),
}


@pytest.mark.parametrize("case", _BAD_COLUMNS)
def test_index_rejects_columns_that_disagree(case):
    ids, positions, vectors, message = _BAD_COLUMNS[case]
    with pytest.raises(EvaluationError, match=re.escape(message)):
        EmbeddingIndex(ids, ["s"] * len(ids), positions, ["d"] * len(ids), vectors)


def test_index_io_roundtrip(tmp_path, fixture_corpus, store, base_config):
    params = init_params(4, base_config)
    index = build_index(fixture_corpus, params, store)
    path = str(tmp_path / "index.tsv")
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.ids == index.ids
    assert np.array_equal(loaded.vectors, index.vectors)
    assert loaded.story_ids == index.story_ids
    assert np.array_equal(loaded.positions, index.positions)
    assert loaded.dataset_ids == index.dataset_ids


def test_load_index_rejects_garbage(tmp_path, capsys):
    header = "chart_id\tstory_id\tposition\tdataset_id\tv1\tv2\n"
    good = "a\ts\t0\tds\t1.0\t2.0\n"
    cases = [
        ("not\tan\tindex\n", "not an embedding index"),
        (header + good + "b\ts\t1\tds\t1.0\n", ":3: expected 6 fields"),
        (header + good + "b\ts\t1\tds\tabc\t2.0\n", ":3: non-numeric"),
        (header + "b\ts\tx\tds\t1.0\t2.0\n" + good, ":2: position 'x' is not an integer"),
        (header + "b\ts\t1.5\tds\t1.0\t2.0\n" + good, ":2: position '1.5' is not an integer"),
        (header + good + f"b\ts\t{'9' * 40}\tds\t1.0\t2.0\n", ":3: position '9999"),
        (header + "b\ts\t-9223372036854775809\tds\t1.0\t2.0\n" + good, "not an integer within int64"),
        (header + good + "b\ts\t1\tds\tnan\t2.0\n", ":3: non-finite"),
        (header + good + "b\ts\t1\tds\t1.0\t-inf\n", ":3: non-finite"),
        (header + good + "a\ts\t1\tds\t1.0\t2.0\n", "duplicate chart id 'a'"),
        (header + good + "b\ts\t1\tds\t1.0\t2.0\n" + "a\ts\t2\tds\t1.0\t2.0\n",
         "bad.tsv:4: duplicate chart id 'a'"),
    ]
    path = tmp_path / "bad.tsv"
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EvaluationError, match=message):
            load_index(str(path))
        for argv in (["eval", str(path)], ["nearest", str(path), "a"]):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(EvaluationError, match="not a UTF-8 text file"):
        load_index(str(path))
    path.write_bytes((header + good).encode() + b"b\ts\t1\tds\t1.0\t2.\xff\n")
    with pytest.raises(EvaluationError, match="bad.tsv:3: not a UTF-8 text file: .* position 15"):
        load_index(str(path))


def test_variant_registry():
    assert len(ABLATION_VARIANTS) == 11
    assert len(SINGLE_SWITCH_VARIANTS) == 9
    assert "full" not in SINGLE_SWITCH_VARIANTS
    assert "words-max-pooling" not in SINGLE_SWITCH_VARIANTS


def test_variant_switches_mapping(base_config):
    config, mask = variant_switches("no-classification", base_config)
    assert mask == (True, False) and config == base_config
    config, mask = variant_switches("no-linear-interpolation", base_config)
    assert mask == (False, True)
    config, _ = variant_switches("no-fact-schema", base_config)
    assert config.zero_schema
    config, _ = variant_switches("no-fact-semantics", base_config)
    assert config.zero_semantics
    config, _ = variant_switches("no-word-pooling", base_config)
    assert config.semantic_mode == "none"
    config, _ = variant_switches("no-pos", base_config)
    assert not config.use_locations
    config, _ = variant_switches("no-fc", base_config)
    assert not config.use_fc
    with pytest.raises(EvaluationError, match="unknown ablation variant"):
        variant_switches("bogus", base_config)


def test_run_ablation_full_equals_plain_run(fixture_corpus, store, base_config):
    from chartembed.corpus import build_samples, split_corpus
    from chartembed.learning import train

    hyper = HyperParams(epochs=2, seed=3, dropout=0.1)
    config, _ = variant_switches("full", base_config)
    # Evaluated on the training corpus, whose encoding run_ablation reuses,
    # and on a held-out split, which it encodes.
    for train_corpus, eval_corpus in [
        (fixture_corpus, fixture_corpus),
        split_corpus(fixture_corpus, 0.3, 3),
    ]:
        results = run_ablation(train_corpus, eval_corpus, store, hyper, ["full"], seed=3)
        assert results[0].error is None
        assert results[0].peak_bytes is None  # memory is traced only on request

        samples = build_samples(train_corpus, store, 1, "same-dataset-first", 3, config)
        params, history = train(samples, hyper, init_params(3, config))
        report = compute_metrics(build_index(eval_corpus, params, store))
        assert results[0].metrics == report  # every retrieved id and distance too
        assert results[0].final_l1 == history[-1].l1
        assert results[0].final_l2 == history[-1].l2


def test_run_ablation_masked_loss_column(fixture_corpus, store):
    hyper = HyperParams(epochs=1, seed=0)
    results = run_ablation(
        fixture_corpus, fixture_corpus, store, hyper, ["no-classification"], seed=0,
        trace_memory=True,
    )
    row = results[0]
    assert row.error is None
    assert isinstance(row.peak_bytes, int) and row.peak_bytes > 0
    assert row.final_l2 is None
    assert row.final_l1 is not None
    table = render_ablation_table(results)
    cells = table.splitlines()[1].split()
    assert cells[5] == "-"  # the masked l2 column


def test_run_ablation_flags_failures_and_continues(store):
    # A single-visualization corpus cannot produce negatives: the variant
    # fails, is flagged, and does not raise.
    vis = {
        "id": "only",
        "dataset_id": "ds",
        "domain": "economy",
        "kind": "data-story",
        "charts": [
            {
                "chart_id": f"c{i}",
                "fact": {
                    "type_c": "table",
                    "type_f": "value",
                    "subspace": [],
                    "breakdown": None,
                    "measure": None,
                    "focus": None,
                    "meta": None,
                },
            }
            for i in range(3)
        ],
    }
    corpus = corpus_from_dict({"visualizations": [vis]})
    results = run_ablation(corpus, corpus, store, HyperParams(epochs=1), ["full"], seed=0)
    assert results[0].metrics is None
    assert "negatives" in results[0].error


def test_run_ablation_rejects_unknown_variant(fixture_corpus, store):
    with pytest.raises(EvaluationError, match="unknown ablation variant"):
        run_ablation(fixture_corpus, fixture_corpus, store, HyperParams(epochs=1), ["nope"], 0)


def test_ablation_csv_layout():
    results = [
        AblationResult(
            variant=variant,
            metrics=compute_metrics(planted_index()),
            wall_ms=12.0,
            peak_bytes=peak_bytes,
            final_l1=1.0,
            final_l2=2.0,
        )
        for variant, peak_bytes in (("full", None), ("no-pos", 1000))
    ]
    lines = ablation_csv(results).strip().splitlines()
    assert lines[0] == "variant,top2,top3,cooccurrence,wall_ms,peak_bytes"
    assert lines[1].startswith("full,") and lines[1].endswith(",12.0,")  # not traced
    assert lines[2].startswith("no-pos,") and lines[2].endswith(",12.0,1000")

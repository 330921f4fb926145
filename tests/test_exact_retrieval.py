"""compute_metrics ranks each dataset block by its Gram form and re-ranks
the near-ties in the difference form. Its retrieved charts and distances
must equal a full difference-form scan (`reference.nearest_by_difference`)
bit for bit, on trained and collapsed models and on planted near-ties.
`nearest` screens a scope of at least `_SCREEN_MIN_CANDIDATES` candidates
by the same Gram bound and scans only the kept ones; smaller scopes are
scanned whole. On both paths its ranking, for every k, must equal
`reference.ranking_by_difference`: the nearest checks run at the real
threshold and again at 0, where every scope is screened."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed import evaluation
from chartembed.corpus import build_samples
from chartembed.encoder import init_params
from chartembed.evaluation import (
    EmbeddingIndex,
    EvaluationError,
    build_index,
    compute_metrics,
    nearest,
)
from chartembed.learning import HyperParams, train
from reference import nearest_by_difference, ranking_by_difference


def index_of(vectors, datasets=None):
    """One chart per row, ids in row order, one story per dataset."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    datasets = datasets or ["ds"] * n
    return EmbeddingIndex(
        [f"c{i:03d}" for i in range(n)], [f"s-{d}" for d in datasets], list(range(n)),
        datasets, vectors,
    )


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_matches_difference_scan(index):
    report = compute_metrics(index)
    rows, distances = nearest_by_difference(index)
    expected_ids = [index.ids[r] if r >= 0 else None for r in rows]
    assert [d.retrieved for d in report.details] == expected_ids
    scored = rows >= 0
    got = [d.distance for d, s in zip(report.details, scored) if s]
    assert np.array_equal(bits(got), bits(distances[scored]))


# The real threshold, then 0, at which every scope is screened.
SCREEN_THRESHOLDS = (evaluation._SCREEN_MIN_CANDIDATES, 0)


def assert_nearest_matches_ranking(index, anchors=None, ks=(1, 2, 5)):
    """Every anchor (or the given ones), both scopes, at both screen
    thresholds, each k in ks and k = every candidate: ids and distance bits
    of the first k."""
    for threshold in SCREEN_THRESHOLDS:
        with mock.patch.object(evaluation, "_SCREEN_MIN_CANDIDATES", threshold):
            for anchor in index.ids if anchors is None else anchors:
                for scope in ("same-dataset", "all"):
                    ids, distances = ranking_by_difference(index, anchor, scope)
                    if not ids:
                        with pytest.raises(EvaluationError, match="no candidates"):
                            nearest(index, anchor, scope)
                        continue
                    for k in sorted({*ks, len(ids)}):
                        got = nearest(index, anchor, scope, k=k)
                        assert [chart_id for chart_id, _ in got] == ids[:k]
                        assert np.array_equal(bits([d for _, d in got]), bits(distances[:k]))


def assert_matches_nearest(index):
    details = compute_metrics(index).details
    for threshold in SCREEN_THRESHOLDS:
        with mock.patch.object(evaluation, "_SCREEN_MIN_CANDIDATES", threshold):
            for detail in details:
                [(chart_id, distance)] = nearest(index, detail.anchor, "same-dataset", k=1)
                assert (chart_id, bits(distance)) == (detail.retrieved, bits(detail.distance))


@pytest.fixture(scope="module")
def fixture_models(fixture_corpus, store, base_config):
    """Untrained, trained, and collapsed (weak hinge: 25 distinct of 50 vectors)."""
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    trained, _ = train(samples, HyperParams(epochs=4, seed=0), init_params(0, base_config))
    collapsed, _ = train(
        samples, HyperParams(epochs=20, seed=0, beta=0.1), init_params(0, base_config)
    )
    return {"untrained": init_params(0, base_config), "trained": trained, "collapsed": collapsed}


@pytest.mark.parametrize("model", ["untrained", "trained", "collapsed"])
def test_fixture_details_equal_difference_scan(fixture_corpus, store, fixture_models, model):
    index = build_index(fixture_corpus, fixture_models[model], store)
    if model == "collapsed":
        assert len(np.unique(index.vectors, axis=0)) < len(index)  # exact ties to break
    assert_matches_difference_scan(index)


@pytest.mark.parametrize("model", ["untrained", "collapsed"])
def test_metrics_distance_equals_nearest_k1(fixture_corpus, store, fixture_models, model):
    assert_matches_nearest(build_index(fixture_corpus, fixture_models[model], store))


def test_collapsed_fixture_rankings_equal_difference_scan(fixture_corpus, store, fixture_models):
    # 25 distinct of 50 vectors: exact ties at every k.
    assert_nearest_matches_ranking(build_index(fixture_corpus, fixture_models["collapsed"], store))


def _offset_cloud(rng, n=40, dim=16, offset=1e4, scale=1e-4):
    # |a|^2 + |b|^2 - 2ab cancels about 16 digits here: its rounding is far
    # larger than the gaps between distances, so only the re-rank orders them.
    return offset + scale * rng.normal(size=(n, dim))


def _planted(rng):
    base = rng.normal(size=(8, 5))
    ulp = np.nextafter(base[0], np.inf)
    return {
        "duplicates": np.vstack([base[[3, 1, 3, 0, 1, 3]], base[2:6]]),
        "one-ulp-apart": np.vstack([ulp, base[0], np.nextafter(ulp, np.inf), base[1], base[0]]),
        "zero-rows": np.vstack([np.zeros((3, 5)), base[:2], np.zeros((2, 5))]),
        # Squared norms overflow to inf; the differences do not.
        "norm-overflow": 1e160 + 1e150 * rng.integers(-4, 5, size=(7, 5)),
        # Squared norms and distances are subnormal, and many distances tie at 0.
        "norm-underflow": 1e-160 * rng.integers(-3, 4, size=(9, 5)),
        "offset-cloud": _offset_cloud(rng),
        "mixed-scales": np.vstack([base, 1e-8 * base, 1e8 * base[:3]]),
    }


PLANTED = _planted(np.random.default_rng(7))


@pytest.mark.parametrize("case", [*PLANTED, "difference-overflow"])
def test_planted_nearest_rankings_equal_difference_scan(case):
    # Two datasets, so that the scopes differ. The differences of the last
    # case overflow to inf distances, which tie and break on chart id.
    if case == "difference-overflow":
        vectors = np.array([[0.0, 1.0], [1e308, 0.0], [-1e308, 0.0], [1e308, 1.0], [0.0, 1.0]])
    else:
        vectors = PLANTED[case]
    datasets = ["a", "b", "a"] * len(vectors)
    assert_nearest_matches_ranking(index_of(vectors, datasets[: len(vectors)]))


@pytest.mark.parametrize("case", list(PLANTED))
def test_planted_near_ties_equal_difference_scan(case):
    index = index_of(PLANTED[case])
    assert_matches_difference_scan(index)
    assert_matches_nearest(index)


def test_duplicates_retrieve_the_first_by_chart_id():
    v = np.array([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0], [1.0, 2.0]])
    detail = {d.anchor: d for d in compute_metrics(index_of(v)).details}
    assert detail["c000"].retrieved == "c002"
    assert detail["c002"].retrieved == "c000"
    assert detail["c003"].retrieved == "c000"
    assert detail["c003"].distance == 0.0


def test_all_distances_overflow_keeps_documented_answer():
    # Every pairwise difference squared overflows: the first row retrieves
    # the second, every other row the first, all at distance inf.
    v = np.array([[0.0], [1e200], [2e200], [-1e200]])
    details = compute_metrics(index_of(v)).details
    assert [d.retrieved for d in details] == ["c001", "c000", "c000", "c000"]
    assert all(d.distance == np.inf for d in details)
    assert_matches_difference_scan(index_of(v))
    assert_nearest_matches_ranking(index_of(v))


def test_all_overflow_scope_is_screened_whole():
    # Past the threshold too, every norm overflows: the screen keeps every
    # candidate, and all distances tie at inf in chart-id order.
    v = 1e200 * np.arange(-41, 41, dtype=np.float64)[:, None]
    index = index_of(v)
    assert len(index) - 1 >= evaluation._SCREEN_MIN_CANDIDATES
    ranked = nearest(index, "c003", "all", k=len(v))
    assert [chart_id for chart_id, _ in ranked] == [c for c in index.ids if c != "c003"]
    assert all(d == np.inf for _, d in ranked)
    assert_nearest_matches_ranking(index, anchors=index.ids[:3])


def _ties_at_place(rng, k, offset):
    """An anchor (c000 after sorting) and 80 candidates: k - 1 nearer ones,
    then a group at the k-th place (three copies of one unit point, which
    tie exactly and rank by chart id, its negation and a permutation of it)
    and one a single ulp beyond it, then far ones. With an offset the Gram
    form cancels most digits and the screen keeps many candidates; without,
    its bound is tight and the exact ties decide."""
    dim = 6
    near = 0.1 * rng.normal(size=(k - 1, dim))
    tie = rng.normal(size=dim)
    tie *= 1.0 / np.linalg.norm(tie)
    mirrored = np.vstack([tie, tie, tie, -tie, tie[::-1]])
    beyond = np.nextafter(tie, 2 * tie)[None, :]
    far = 3.0 + rng.random(size=(80 - len(near) - len(mirrored) - 1, dim))
    candidates = np.vstack([near, mirrored, beyond, far])
    return offset + np.vstack([np.zeros(dim), candidates[rng.permutation(len(candidates))]])


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_planted_ties_at_the_kth_place(rng, k, offset):
    index = index_of(_ties_at_place(rng, k, offset))
    _, distances = ranking_by_difference(index, "c000", "all")
    assert distances[k - 1] == distances[k] or offset  # the tie straddles place k
    assert_nearest_matches_ranking(index, anchors=index.ids[:4], ks=(k, k + 1, k + 5))


def test_scope_all_and_gathered_blocks_equal_difference_scan(rng):
    # 150 charts in three interleaved datasets: scope "all" multiplies the
    # whole matrix in place, and each 50-chart block, whose rows are not
    # consecutive, is gathered where it is screened (at threshold 0);
    # duplicates tie at every k.
    pool = _offset_cloud(rng, n=60, dim=12)
    vectors = pool[rng.integers(0, len(pool), size=150)]
    index = index_of(vectors, ["a", "b", "c"] * 50)
    assert_nearest_matches_ranking(index, anchors=index.ids[::7])


def test_screen_is_chosen_by_candidate_count(monkeypatch, rng):
    # Scopes of _SCREEN_MIN_CANDIDATES - 1 candidates are scanned whole,
    # scopes of _SCREEN_MIN_CANDIDATES screened.
    calls = []
    near_ties = evaluation._near_ties
    monkeypatch.setattr(
        evaluation, "_near_ties", lambda *a: calls.append(a[0].shape) or near_ties(*a)
    )
    threshold = evaluation._SCREEN_MIN_CANDIDATES
    datasets = ["a"] * threshold + ["b"] * (threshold + 1)
    index = index_of(rng.normal(size=(len(datasets), 4)), datasets)
    nearest(index, index.ids[0], "same-dataset", k=3)
    assert calls == []
    nearest(index, index.ids[-1], "same-dataset", k=3)
    nearest(index, index.ids[0], "all", k=3)
    assert calls == [(1, threshold + 1), (1, 2 * threshold + 1)]


def test_small_blocks_chunk_and_tile_the_same(monkeypatch, rng):
    # A 64-value budget splits the anchors into chunks of one or two rows and
    # the re-rank into one-row, few-column tiles.
    vectors = np.vstack([_offset_cloud(rng, n=30, dim=8), np.zeros((4, 8)) + 1e4])
    datasets = ["a"] * 20 + ["b"] * 13 + ["c"]
    index = index_of(vectors, datasets)
    expected = compute_metrics(index)
    monkeypatch.setattr(evaluation, "_BLOCK_FLOATS", 64)
    assert compute_metrics(index) == expected
    assert_matches_difference_scan(index)


def test_nearest_walks_small_chunks_the_same(monkeypatch, rng):
    # A 64-value budget gathers eight 8-d candidates per chunk: scope "all"
    # walks five chunks of the 34 charts, "same-dataset" up to three.
    vectors = np.vstack([_offset_cloud(rng, n=30, dim=8), np.zeros((4, 8)) + 1e4])
    index = index_of(vectors, ["a"] * 20 + ["b"] * 13 + ["c"])
    expected = {a: nearest(index, a, "all", k=len(index)) for a in index.ids}
    monkeypatch.setattr(evaluation, "_BLOCK_FLOATS", 64)
    assert {a: nearest(index, a, "all", k=len(index)) for a in index.ids} == expected
    assert_nearest_matches_ranking(index)


def test_nearest_holds_one_chunk_of_differences(rng):
    # Each chunk of candidates is gathered once and the anchor subtracted in
    # place, so a query holds one chunk of differences plus O(n) indices and
    # distances; a separate broadcast difference would double the chunk.
    n, dim = 3000, 540
    index = index_of(rng.normal(size=(n, dim)))
    chunk_bytes = min(n - 1, evaluation._BLOCK_FLOATS // dim) * dim * 8
    tracemalloc.start()
    try:
        nearest(index, index.ids[5], k=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk_bytes + 10 * 8 * n


@pytest.mark.parametrize("collapsed", [False, True])
def test_memory_stays_within_the_block_budget(monkeypatch, rng, collapsed):
    # One 3,000-chart dataset: an (n x n) distance matrix would take 72 MB.
    # Each Gram slab, keep mask and re-rank tile holds at most _BLOCK_FLOATS
    # values; a collapsed block, where every candidate is a near-tie, is the
    # re-rank's widest case.
    monkeypatch.setattr(evaluation, "_BLOCK_FLOATS", 1 << 14)
    vectors = np.ones((3000, 8)) if collapsed else rng.normal(size=(3000, 8))
    index = index_of(vectors)
    tracemalloc.start()
    try:
        report = compute_metrics(index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (1 << 14) + 4 * vectors.nbytes
    if collapsed:
        assert {d.retrieved for d in report.details} == {"c000", "c001"}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 6),
    scale=st.sampled_from([1e-160, 1e-5, 1.0, 1e160]),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_random_indexes_with_planted_duplicates(data, dim, scale, offset):
    # Rows drawn from a small pool of points tie exactly; an offset makes the
    # Gram form cancel, and the extreme scales overflow or underflow it. At
    # the real threshold these small scopes are scanned; at 0, screened.
    coords = st.lists(st.integers(-30, 30), min_size=dim, max_size=dim)
    pool = np.array(data.draw(st.lists(coords, min_size=2, max_size=8))) * scale + offset
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=24))
    datasets = data.draw(st.lists(st.sampled_from("abc"), min_size=len(picks), max_size=len(picks)))
    datasets[1] = datasets[0]  # some anchor can be scored
    index = index_of(pool[picks], datasets)
    assert_matches_difference_scan(index)
    assert_nearest_matches_ranking(index)


_BAD_GAPS = [
    ({"gap2": 5, "gap3": 2}, "gap2"),
    ({"gap2": -1}, "gap"),
    ({"gap3": -4}, "gap"),
]


@pytest.mark.parametrize("gaps, word", _BAD_GAPS)
def test_compute_metrics_rejects_bad_gaps(gaps, word):
    with pytest.raises(EvaluationError, match=word):
        compute_metrics(index_of([[0.0], [1.0]]), **gaps)

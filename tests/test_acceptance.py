"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here, not tuned elsewhere: gradient fidelity 1e-4,
exact loss identities, derivation lengths 8..13, exact metric-oracle
equality, co-occurrence 0.8 plus a 2x analytic retrieval baseline on the
bundled corpus, a 7-of-9 ablation direction bar, and bit-exact
reproducibility. The full-scale criterion only runs when a full corpus is
supplied via CHARTEMBED_FULL_CORPUS (and CHARTEMBED_FULL_VECTORS).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from chartembed.cli import _gradcheck_batch, main
from chartembed.corpus import build_samples, load_corpus, split_corpus
from chartembed.encoder import (
    EncoderConfig,
    init_params,
    load_checkpoint,
    params_equal,
    save_checkpoint,
)
from chartembed.evaluation import (
    SINGLE_SWITCH_VARIANTS,
    build_index,
    compute_metrics,
    run_ablation,
)
from chartembed.factgen import random_fact
from chartembed.grammar import (
    MAX_DERIVATION_LENGTH,
    MIN_DERIVATION_LENGTH,
    RULE_COUNT,
    RULES,
    decode_skeleton,
    derive_rules,
    encode_one_hot,
    fact_skeleton,
)
from chartembed.learning import (
    HyperParams,
    batch_loss_from_embeddings,
    grad_check,
    interpolation_loss,
    train,
    triplet_loss,
)
from chartembed.semantics import load_vector_store, pool_word, split_words


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_gradient_fidelity():
    config = EncoderConfig()
    params = init_params(0, config)
    batch = _gradcheck_batch(0, config)
    started = time.perf_counter()
    error = grad_check(
        batch, params, HyperParams(), epsilon=1e-5, n_coords=200, seed=0
    )
    elapsed = time.perf_counter() - started
    report(
        1,
        "gradient fidelity",
        error < 1e-4 and elapsed < 60.0,
        f"max rel error {error:.3e} over 200 coords in {elapsed:.1f}s",
    )


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(2)
    checks = []
    # Exactly zero interpolation term for midpoint-collinear embeddings.
    for _ in range(25):
        p = rng.normal(size=16)
        n = rng.normal(size=16)
        _, (interp, _) = interpolation_loss(p, (p + n) / 2.0, n, alpha=rng.random())
        checks.append(interp == 0.0)
    # Triplet loss is zero whenever d(a,n) >= d(a,p) + m.
    for _ in range(25):
        a = rng.normal(size=8)
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        m = 0.5 + rng.random()
        d_ap = rng.random() * 2.0
        d_an = d_ap + m + rng.random() * 3.0
        checks.append(triplet_loss(a, a + d_ap * direction, a + d_an * direction, m) == 0.0)
    # beta = 0 collapses the combined objective onto the first task exactly.
    for _ in range(25):
        prev, mid, nxt, neg = (rng.normal(size=(3, 6)) for _ in range(4))
        breakdown = batch_loss_from_embeddings(
            prev, mid, nxt, neg, HyperParams(alpha=0.7, beta=0.0)
        )
        checks.append(breakdown.total == breakdown.l1)
    report(2, "loss identities", all(checks), f"{len(checks)} exact checks")


def test_criterion_3_grammar():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = len(RULES) == RULE_COUNT == 60
    for _ in range(1000):
        fact = random_fact(rng)
        seq = derive_rules(fact)
        ok = ok and MIN_DERIVATION_LENGTH <= len(seq) <= MAX_DERIVATION_LENGTH
        ok = ok and decode_skeleton(seq) == fact_skeleton(fact)
        matrix = encode_one_hot(seq)
        row_sums = matrix.sum(axis=1)
        ok = ok and set(np.unique(matrix)) <= {0.0, 1.0}
        ok = ok and all(s in (0.0, 1.0) for s in row_sums)
        ok = ok and matrix.sum() == len(seq)
    elapsed = time.perf_counter() - started
    report(
        3,
        "grammar",
        ok and elapsed < 10.0,
        f"60 rules; 1000 facts derive 8..13 and roundtrip in {elapsed:.1f}s",
    )


def test_criterion_4_semantics():
    raw = ["Country name", "City name", "Year", "Student population", "Year", "2018"]
    split = []
    for text in raw:
        split.extend(split_words(text))
    ok = split == [
        "Country", "name", "City", "name", "Year", "Student", "population",
        "Year", "2018",
    ]
    pooled = pool_word(np.arange(100.0))
    ok = ok and np.array_equal(pooled, np.arange(4.5, 100.0, 10.0))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        a, b = rng.normal(size=2)
        ok = ok and np.allclose(
            pool_word(a * x + b * y), a * pool_word(x) + b * pool_word(y)
        )
    report(4, "semantics", ok, "verbatim token split, pooling values, linearity")


def _brute_force_metrics(index, gap2=2, gap3=3):
    import math

    t2 = t3 = co = scored = 0
    for a, anchor_id in enumerate(index.ids):
        rows = []
        for c, cid in enumerate(index.ids):
            if cid == anchor_id or index.dataset_ids[c] != index.dataset_ids[a]:
                continue
            rows.append((math.dist(index.vectors[a], index.vectors[c]), cid))
        if not rows:
            continue
        rows.sort()
        r = index.row[rows[0][1]]
        scored += 1
        if index.story_ids[a] == index.story_ids[r]:
            co += 1
            gap = abs(index.positions[a] - index.positions[r])
            t2 += gap <= gap2
            t3 += gap <= gap3
    return t2 / scored, t3 / scored, co / scored


def test_criterion_5_metric_oracle_equivalence(fixture_corpus, store):
    ok = True
    for seed in (0, 1):
        params = init_params(seed, EncoderConfig())
        index = build_index(fixture_corpus, params, store)
        assert len(index) == 50
        report_metrics = compute_metrics(index)
        oracle = _brute_force_metrics(index)
        ok = ok and (
            report_metrics.top2,
            report_metrics.top3,
            report_metrics.cooccurrence,
        ) == oracle
    report(5, "metric oracle equivalence", ok, "exact match on 50-chart corpora")


def _analytic_top3_baseline(index, gap3=3):
    """Mean over anchors of P(random same-dataset candidate is same-story
    within the gap bound)."""
    rates = []
    for a, anchor_id in enumerate(index.ids):
        candidates = [
            c
            for c, cid in enumerate(index.ids)
            if cid != anchor_id and index.dataset_ids[c] == index.dataset_ids[a]
        ]
        if not candidates:
            continue
        hits = sum(
            1
            for c in candidates
            if index.story_ids[c] == index.story_ids[a]
            and abs(index.positions[c] - index.positions[a]) <= gap3
        )
        rates.append(hits / len(candidates))
    return float(np.mean(rates))


def test_criterion_6_learning_signal(fixture_corpus, store):
    started = time.perf_counter()
    config = EncoderConfig()
    hyper = HyperParams(epochs=200, seed=0)
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, config)
    params, _ = train(samples, hyper, init_params(0, config))
    index = build_index(fixture_corpus, params, store)
    metrics = compute_metrics(index)
    baseline = _analytic_top3_baseline(index)
    elapsed = time.perf_counter() - started
    report(
        6,
        "learning signal at desk scale",
        metrics.cooccurrence >= 0.8
        and metrics.top3 >= 2.0 * baseline
        and elapsed < 300.0,
        f"cooc {metrics.cooccurrence:.2f} (>=0.8), top3 {metrics.top3:.2f} "
        f">= 2x baseline {baseline:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_ablation_direction(fixture_corpus, store):
    started = time.perf_counter()
    hyper = HyperParams(epochs=200, seed=0)
    variants = ["full", *SINGLE_SWITCH_VARIANTS]
    results = run_ablation(fixture_corpus, fixture_corpus, store, hyper, variants, seed=0)
    elapsed = time.perf_counter() - started
    by_variant = {r.variant: r for r in results}
    failures = [r.variant for r in results if r.metrics is None]
    assert not failures, f"variants failed: {failures}"
    full_cooc = by_variant["full"].metrics.cooccurrence
    wins = sum(
        full_cooc >= by_variant[v].metrics.cooccurrence for v in SINGLE_SWITCH_VARIANTS
    )
    report(
        7,
        "ablation direction",
        wins >= 7 and elapsed < 2700.0,
        f"full cooc {full_cooc:.2f} wins {wins}/9 comparisons, "
        f"{len(variants)} variants in {elapsed:.0f}s",
    )


def test_criterion_8_reproducibility(
    tmp_path, fixture_corpus_path, fixture_vectors_path
):
    args = ["--epochs", "3", "--seed", "5", "--test-fraction", "0"]
    out_a = tmp_path / "a.ckpt"
    out_b = tmp_path / "b.ckpt"
    assert main(["train", fixture_corpus_path, fixture_vectors_path, str(out_a)] + args) == 0
    assert main(["train", fixture_corpus_path, fixture_vectors_path, str(out_b)] + args) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    params, _ = load_checkpoint(str(out_a))
    path = tmp_path / "copy.ckpt"
    save_checkpoint(params, path=str(path))
    loaded, _ = load_checkpoint(str(path))
    roundtrip = (
        params_equal(loaded, params) and loaded.values.tobytes() == params.values.tobytes()
    )
    report(
        8,
        "reproducibility",
        identical and roundtrip,
        "bit-identical checkpoints across runs; bit-exact save/load",
    )


def test_criterion_9_full_scale_stretch(tmp_path):
    corpus_path = os.environ.get("CHARTEMBED_FULL_CORPUS")
    vectors_path = os.environ.get("CHARTEMBED_FULL_VECTORS")
    if not corpus_path:
        print(
            "ACCEPTANCE 9 full-scale stretch: SKIP "
            "(set CHARTEMBED_FULL_CORPUS and CHARTEMBED_FULL_VECTORS to run)",
            flush=True,
        )
        pytest.skip("full-scale corpus not supplied")

    started = time.perf_counter()
    corpus = load_corpus(corpus_path)
    store = load_vector_store(vectors_path)
    hyper = HyperParams(epochs=10, seed=0)
    train_corpus, test_corpus = split_corpus(
        corpus, test_fraction=104 / 1098, seed=hyper.seed
    )
    config = EncoderConfig()
    samples = build_samples(
        train_corpus, store, 1, "same-dataset-first", hyper.seed, config
    )
    n_samples = len(samples)
    steps = -(-n_samples // hyper.batch_size) * hyper.epochs
    params, _ = train(samples, hyper, init_params(hyper.seed, config))
    index = build_index(test_corpus, params, store)
    metrics = compute_metrics(index)
    elapsed = time.perf_counter() - started
    ok = (
        abs(n_samples - 42222) <= 0.05 * 42222
        and abs(steps - 3300) <= 300
        and abs(metrics.top2 - 0.63) <= 0.10
        and abs(metrics.top3 - 0.73) <= 0.10
        and abs(metrics.cooccurrence - 0.81) <= 0.10
        and elapsed < 3600.0
    )
    report(
        9,
        "full-scale stretch",
        ok,
        f"{n_samples} samples, {steps} steps, metrics "
        f"{metrics.top2:.2f}/{metrics.top3:.2f}/{metrics.cooccurrence:.2f} "
        f"in {elapsed:.0f}s",
    )

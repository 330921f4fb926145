"""Workloads, their set-up, one measured round of the CLI's stages, and checks.

A round runs what `train`, `embed`, `eval`, `nearest` and `ablate` run, in
that order, through the library's public functions. Every workload runs
every stage, because every end-to-end metric is reported on every workload;
the workloads differ in which stage is large (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from time import perf_counter

import numpy as np

from chartembed import corpus as corpus_mod
from chartembed import encoder, evaluation, learning, semantics

import inputs
import oracle
import speed

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CORPUS = ROOT / "tests" / "data" / "fixture_corpus.json"
FIXTURE_VECTORS = ROOT / "tests" / "data" / "vectors_fixture.txt"

BATCH = 128
EPOCHS = 1
POLICY = "same-dataset-first"
QUERIES = 2000
K = 5
ABLATION_SEED = 0
# Growth probes: datasets of 120 charts, at PROBE_DATASETS and twice as many.
PROBE_DATASETS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    # (datasets, visualizations per dataset, charts per visualization)
    train_shape: tuple[int, int, int]
    index_shape: tuple[int, int, int]
    ablation_epochs: int
    all_variants: bool  # every ablation variant, or only "full"


SMALL_TRAIN = (6, 2, 22)
SMALL_INDEX = (10, 2, 12)
WORKLOADS = {
    w.name: w
    for w in (
        # ~42 charts per visualization as in the paper, every domain holding
        # two datasets: 1,680 charts, 1,600 quadruples, 13 steps per epoch.
        Workload("train", (20, 2, 42), SMALL_INDEX, 2, False),
        # 600 charts in 5 datasets of 120.
        Workload("index", SMALL_TRAIN, (5, 3, 40), 2, False),
        # All 11 variants on the hand-written fixture.
        Workload("ablate", SMALL_TRAIN, SMALL_INDEX, 4, True),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed, with a line per failure.

    `table` and `rates` are the oracle's reading of the first round's index
    file; later rounds must write the same file, which their digests check.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    table: Optional[oracle.IndexTable] = None
    rates: tuple[float, float, float] = ()

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@dataclass(frozen=True)
class Inputs:
    work: Path
    train_corpus: Path
    index_corpus: Path
    vectors: Path
    windows: int
    index_charts: int
    distinct_charts: int
    dataset_size: dict[str, int]  # indexed chart id -> charts in its dataset
    anchors: tuple[str, ...]
    variants: tuple[str, ...]

    def candidates(self, anchor: str) -> int:
        """Distance evaluations of one same-dataset nearest() call."""
        return self.dataset_size[anchor] - 1


def _warm_up() -> None:
    """Run every stage once on the fixture so lazy set-up is done before timing."""
    fixture = corpus_mod.load_corpus(str(FIXTURE_CORPUS))
    store = semantics.load_vector_store(str(FIXTURE_VECTORS))
    hyper = learning.HyperParams(epochs=1, batch_size=BATCH, seed=ABLATION_SEED)
    config = encoder.EncoderConfig(dropout=hyper.dropout)
    samples = corpus_mod.build_samples(fixture, store, 1, POLICY, ABLATION_SEED, config)
    params, _ = learning.train(samples, hyper, encoder.init_params(ABLATION_SEED, config))
    evaluation.compute_metrics(evaluation.build_index(fixture, params, store))


def set_up(w: Workload, seed: int, work: Path) -> Inputs:
    """Generate and write the seeded inputs, then warm up."""
    train_rng, index_rng, vec_rng, anchor_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    train = inputs.synthetic_corpus(train_rng, *w.train_shape)
    index = inputs.synthetic_corpus(index_rng, *w.index_shape)
    words = sorted(set(inputs.corpus_words(train)) | set(inputs.corpus_words(index)))
    paths = {name: work / name for name in ("train.json", "index.json", "vectors.txt")}
    inputs.write_json(train, paths["train.json"])
    inputs.write_json(index, paths["index.json"])
    inputs.write_lines(inputs.vector_lines(vec_rng, words), paths["vectors.txt"])

    with open(FIXTURE_CORPUS, encoding="utf-8") as fh:
        fixture = json.load(fh)
    dataset_size = {**_dataset_sizes(index), **_dataset_sizes(fixture)}
    index_ids = sorted(_dataset_sizes(index))
    variants = evaluation.ABLATION_VARIANTS if w.all_variants else ("full",)
    n_train = w.train_shape[0] * w.train_shape[1] * w.train_shape[2]
    _warm_up()
    return Inputs(
        work=work,
        train_corpus=paths["train.json"],
        index_corpus=paths["index.json"],
        vectors=paths["vectors.txt"],
        windows=w.train_shape[0] * w.train_shape[1] * (w.train_shape[2] - 2),
        index_charts=len(index_ids),
        distinct_charts=n_train + len(dataset_size),
        dataset_size=dataset_size,
        anchors=tuple(index_ids[i] for i in anchor_rng.integers(len(index_ids), size=QUERIES)),
        variants=tuple(variants[i] for i in anchor_rng.permutation(len(variants))),
    )


def _dataset_sizes(corpus: dict) -> dict[str, int]:
    """chart id -> number of charts in its dataset."""
    members: dict[str, list[str]] = {}
    for vis in corpus["visualizations"]:
        members.setdefault(vis["dataset_id"], []).extend(c["chart_id"] for c in vis["charts"])
    return {c: len(charts) for charts in members.values() for c in charts}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RoundResult:
    values: dict[str, float]  # end-to-end metrics of this round
    latencies: list[float]  # ms per nearest query
    digests: dict[str, str]
    variant_s: dict[str, float]  # the program's own wall_ms per variant


def run_round(
    w: Workload, inp: Inputs, seed: int, tally: Tally, section=None, clock=speed.WallClock
) -> RoundResult:
    """One round of the CLI's stages, then the output checks.

    `section(name)` returns a context manager around the checks, so a traced
    run can cover them with a span. `clock.seconds(a, b, stage)` turns
    two perf_counter readings into a stage time (see speed.py).
    """
    hyper = learning.HyperParams(epochs=EPOCHS, batch_size=BATCH, seed=seed)
    config = encoder.EncoderConfig(dropout=hyper.dropout)
    checkpoint = inp.work / "model.ckpt"
    index_path = inp.work / "index.tsv"

    # train
    t0 = perf_counter()
    corpus = corpus_mod.load_corpus(str(inp.train_corpus))
    store = semantics.load_vector_store(str(inp.vectors))
    samples = corpus_mod.build_samples(corpus, store, 1, POLICY, seed, config)
    t1 = perf_counter()
    params = encoder.init_params(seed, config)
    t2 = perf_counter()
    params, history = learning.train(samples, hyper, params)
    t3 = perf_counter()
    encoder.save_checkpoint(params, path=str(checkpoint))

    # embed
    t4 = perf_counter()
    params, _ = encoder.load_checkpoint(str(checkpoint))
    store = semantics.load_vector_store(str(inp.vectors))
    index_corpus = corpus_mod.load_corpus(str(inp.index_corpus))
    index = evaluation.build_index(index_corpus, params, store)
    evaluation.save_index(index, str(index_path))
    t5 = perf_counter()

    # eval
    index = evaluation.load_index(str(index_path))
    report = evaluation.compute_metrics(index)
    t6 = perf_counter()

    # nearest: a closed loop with one client
    intervals: list[tuple[float, float]] = []
    rankings = []
    for anchor in inp.anchors:
        started = perf_counter()
        try:
            ranked = evaluation.nearest(index, anchor, "same-dataset", K)
        except evaluation.EvaluationError as exc:
            tally.op(False, f"nearest {anchor}: {exc}")
            continue
        intervals.append((started, perf_counter()))
        rankings.append((anchor, ranked))
    # A query that a probe ran inside or just before is left out: the probe's
    # cache disturbance would otherwise sit in the tail.
    latencies = [
        1000.0 * clock.seconds(a, b, "nearest") for a, b in intervals if not clock.interrupted(a, b)
    ]

    # ablate
    fixture = corpus_mod.load_corpus(str(FIXTURE_CORPUS))
    fixture_store = semantics.load_vector_store(str(FIXTURE_VECTORS))
    ablation_hyper = learning.HyperParams(epochs=w.ablation_epochs, seed=ABLATION_SEED)
    # One call per variant, so that each variant's time is corrected for the
    # speed while it ran.
    results = []
    ablate_s = 0.0
    for variant in inp.variants:
        started = perf_counter()
        results += evaluation.run_ablation(
            fixture, fixture, fixture_store, ablation_hyper, [variant], seed=ABLATION_SEED
        )
        ablate_s += clock.seconds(started, perf_counter(), "ablate")

    digests = {
        "checkpoint": _sha256(checkpoint),
        "index": _sha256(index_path),
        "ablation": hashlib.sha256(repr(sorted(
            (r.variant, r.metrics and (r.metrics.top2, r.metrics.top3, r.metrics.cooccurrence),
             r.final_l1, r.final_l2)
            for r in results
        )).encode()).hexdigest(),
    }
    with (section or contextlib.nullcontext)("bench.checks"):
        _check_train(inp, samples, history, checkpoint, tally)
        if tally.table is None:
            tally.table = oracle.read_index(index_path)
            tally.rates = oracle.rates(tally.table)
        for anchor, ranked in rankings:
            tally.op(
                oracle.same_ranking(ranked, oracle.top_k(tally.table, anchor, K)),
                f"nearest {anchor}: {ranked[:2]} differs from the oracle",
            )
        got = (report.top2, report.top3, report.cooccurrence)
        tally.op(got == tally.rates, f"compute_metrics rates {got} != oracle {tally.rates}")
        for r in results:
            tally.op(r.metrics is not None, f"ablation variant {r.variant} failed: {r.error}")

    full = {r.variant: r for r in results}["full"].metrics
    return RoundResult(
        values={
            "time_to_first_step_s": clock.seconds(t0, t1, "first_step"),
            "train_quads_per_s": len(samples) * EPOCHS / clock.seconds(t2, t3, "train"),
            "embed_charts_per_s": inp.index_charts / clock.seconds(t4, t5, "embed"),
            "eval_anchors_per_s": report.n_anchors / clock.seconds(t5, t6, "eval"),
            "ablate_s": ablate_s,
            "top2": full.top2 if full else 0.0,
            "top3": full.top3 if full else 0.0,
            "cooccurrence": full.cooccurrence if full else 0.0,
        },
        latencies=latencies,
        digests=digests,
        variant_s={r.variant: r.wall_ms / 1000.0 for r in results},
    )


def _check_train(inp: Inputs, samples, history, checkpoint: Path, tally: Tally) -> None:
    tally.op(
        len(samples) == inp.windows,
        f"{len(samples)} quadruples for {inp.windows} windows",
    )
    tally.op(
        len(history) == EPOCHS and all(math.isfinite(h.total) for h in history),
        f"non-finite or missing epoch losses: {[h.total for h in history]}",
    )
    resaved = inp.work / "resaved.ckpt"
    loaded, _ = encoder.load_checkpoint(str(checkpoint))
    encoder.save_checkpoint(loaded, path=str(resaved))
    tally.op(
        resaved.read_bytes() == checkpoint.read_bytes(),
        "checkpoint does not reload bit-exactly",
    )


def _best_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return min(times)


def scaling_probes(inp: Inputs, seed: int) -> dict[str, tuple[float, str]]:
    """log2 of t(2N)/t(N) for build_samples and compute_metrics, best of 3 each.

    N doubles by doubling the number of 120-chart datasets, so a stage that
    scales with the sum of per-dataset n^2 reads ~1 and one that scales with
    N^2 reads ~2.
    """
    config = encoder.EncoderConfig()
    store = semantics.load_vector_store(str(inp.vectors))
    params = encoder.init_params(seed, config)
    rng = np.random.default_rng(seed)
    samples_t, metrics_t = [], []
    for n_datasets in (PROBE_DATASETS, 2 * PROBE_DATASETS):
        corpus = corpus_mod.corpus_from_dict(inputs.synthetic_corpus(rng, n_datasets, 4, 30))
        samples_t.append(_best_time(
            lambda: corpus_mod.build_samples(corpus, store, 1, POLICY, seed, config)
        ))
        index = evaluation.build_index(corpus, params, store)
        metrics_t.append(_best_time(lambda: evaluation.compute_metrics(index)))
    return {
        "corpus.build_samples.scaling_exp": (math.log2(samples_t[1] / samples_t[0]), "log2"),
        "evaluation.compute_metrics.scaling_exp": (math.log2(metrics_t[1] / metrics_t[0]), "log2"),
    }

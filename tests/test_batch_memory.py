"""Transient memory bounded by one batch, with the bits of the unbounded code.

Training hands each step's forward the previous step's trace, which it
writes over; `index_encoded` embeds fixed chunks of rows into one output
array. Both must give the bits of a fresh forward over the same rows.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from chartembed import evaluation
from chartembed.corpus import EncodedCorpus, SampleSet, encode_corpus
from chartembed.encoder import EncoderConfig, backward_batch, forward_batch, init_params
from chartembed.evaluation import (
    ABLATION_VARIANTS,
    EmbeddingIndex,
    EvaluationError,
    build_index,
    index_encoded,
    variant_switches,
)
from chartembed.learning import HyperParams, combined_loss, init_adam, train


def random_inputs(rng, count, config):
    """`count` charts of 8..13 random rule ids (padded with -1) and normal
    semantic blocks shaped for `config`."""
    ids = np.full((count, 16), -1, dtype=np.int8)
    for row in ids:
        length = rng.integers(8, 14)
        row[:length] = rng.integers(0, 60, length)
    return ids, rng.normal(size=(count, *config.semantic_shape))


def random_encoded(rng, count, config):
    """An encoded corpus of `count` random charts whose ids sort in row order."""
    rule_ids, sems = random_inputs(rng, count, config)
    names = tuple(f"c{i:05d}" for i in range(count))
    positions = np.zeros(count, dtype=np.int64)
    return EncodedCorpus(names, names, ("ds",) * count, positions, rule_ids, sems)


def named_arrays(trace):
    """(field name, array) for every array of a trace, lists flattened."""
    parts = [(f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace)]
    return [(name, a) for name, part in parts if isinstance(part, (list, np.ndarray))
            for a in (part if isinstance(part, list) else [part])]


def trace_arrays(trace):
    return [a for _, a in named_arrays(trace)]


def configs():
    for variant in ABLATION_VARIANTS:
        for dropout in (0.1, 0.0):
            base = EncoderConfig(dropout=dropout)
            yield pytest.param(variant_switches(variant, base)[0], id=f"{variant}-{dropout}")


@pytest.mark.parametrize("config", configs())
@pytest.mark.parametrize("sizes", [(8, 8), (8, 5), (5, 8), (8, 5, 8)])
def test_a_forward_into_an_earlier_trace_equals_a_fresh_one(config, sizes):
    # Two runs of the same forwards from the same params and generators: one
    # fresh every time, one handed the previous trace. Output, trace and
    # running statistics must agree to the bit, and so must the backward.
    rng = np.random.default_rng(7)
    batches = [random_inputs(rng, size, config) for size in sizes]
    fresh, reused = init_params(3, config), init_params(3, config)
    fresh_rng, reused_rng = np.random.default_rng(11), np.random.default_rng(11)
    first = trace = None
    for rule_ids, sems in batches:
        out_a, trace_a = forward_batch(rule_ids, sems, fresh, train=True, dropout_rng=fresh_rng)
        out_b, trace = forward_batch(rule_ids, sems, reused, train=True,
                                     dropout_rng=reused_rng, trace=trace)
        first = first or named_arrays(trace)
        assert out_a.tobytes() == out_b.tobytes()
        assert fresh.values.tobytes() == reused.values.tobytes()
        arrays_a, arrays_b = trace_arrays(trace_a), trace_arrays(trace)
        assert [a.shape for a in arrays_a] == [b.shape for b in arrays_b]
        assert [a.tobytes() for a in arrays_a] == [b.tobytes() for b in arrays_b]
        assert trace.batch_size == trace_a.batch_size == len(rule_ids)

        d_out = rng.normal(size=out_a.shape)
        before = [a.copy() for a in arrays_b]
        grad_a = backward_batch(trace_a, d_out, fresh)
        grad_b = backward_batch(trace, d_out, reused)
        assert grad_a.tobytes() == grad_b.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays_b))  # backward reads only
    # A batch no longer than the first writes into the first trace's memory;
    # only the per-channel inverse deviations are new.
    if sizes[-1] <= sizes[0]:
        for (name, a), b in zip(first, trace_arrays(trace)):
            assert np.shares_memory(a, b) == (name != "conv_invstd"), name


def chunked_reference(encoded, params, chunk):
    """One forward_batch per `chunk` consecutive rows, concatenated."""
    parts = [
        forward_batch(encoded.rule_ids[lo : lo + chunk], encoded.semantics[lo : lo + chunk],
                      params, train=False)[0]
        for lo in range(0, len(encoded), chunk)
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("config", configs())
def test_index_encoded_runs_one_forward_per_chunk(monkeypatch, config):
    chunk = 7
    monkeypatch.setattr(evaluation, "_EMBED_ROWS", chunk)
    rng = np.random.default_rng(5)
    params = init_params(4, config)
    for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        encoded = random_encoded(rng, count, config)
        index = index_encoded(encoded, params)
        assert index.ids == encoded.chart_ids
        expected = chunked_reference(encoded, params, chunk)
        assert index.vectors.tobytes() == expected.tobytes(), count


def test_index_encoded_names_a_non_finite_chart_in_a_later_chunk(monkeypatch):
    monkeypatch.setattr(evaluation, "_EMBED_ROWS", 4)
    config = EncoderConfig()
    encoded = random_encoded(np.random.default_rng(6), 11, config)
    encoded.semantics[6] = 1e308  # overflows fc1 for this chart alone
    with pytest.raises(EvaluationError) as info:
        index_encoded(encoded, init_params(0, config))
    assert str(info.value) == "non-finite embedding for chart 'c00006' (values overflow)"


def test_build_index_is_reproducible_and_one_forward_below_the_chunk(
    fixture_corpus, store, base_config
):
    # An embedding's last bits depend on which rows share its forward call,
    # so the index is reproducible for the same corpus order and chunk size:
    # below one chunk it is exactly one forward over every chart.
    params = init_params(3, base_config)
    first = build_index(fixture_corpus, params, store)
    assert build_index(fixture_corpus, params, store).vectors.tobytes() == first.vectors.tobytes()
    encoded = encode_corpus(fixture_corpus, store, base_config)
    assert len(encoded) < evaluation._EMBED_ROWS
    whole, _ = forward_batch(encoded.rule_ids, encoded.semantics, params, train=False)
    rows = [first.row[chart_id] for chart_id in encoded.chart_ids]
    assert first.vectors[rows].tobytes() == whole.tobytes()


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_one_trace(base_config):
    # Three steps at batch 128 (the last one shorter) hold the Adam moments,
    # the gradient vector and one step's inputs, forward and backward: the
    # previous step's trace is written over, not kept beside the next one.
    rng = np.random.default_rng(8)
    encoded = random_encoded(rng, 300, base_config)
    samples = SampleSet(encoded, rng.integers(0, len(encoded), size=(300, 4)))
    hyper = HyperParams(epochs=1, batch_size=128)
    params = init_params(0, base_config)
    grad = np.empty_like(params.trainable)

    def step():
        batch = samples.batch(np.arange(128))
        _, trace, gradient, _ = combined_loss(*batch, params, hyper, np.random.default_rng(0))
        backward_batch(trace, gradient, params, out=grad)

    pair = traced_peak(step)
    adam = init_adam(params)
    resident = adam.m.nbytes + adam.v.nbytes + grad.nbytes
    params = init_params(0, base_config)
    peak = traced_peak(lambda: train(samples, hyper, params))
    assert peak <= resident + 1.25 * pair, (peak, resident, pair)


def test_embedding_holds_one_chunk(monkeypatch, base_config):
    # The peak is the output plus one chunk's forward, so it does not grow
    # with the corpus.
    chunk = 256
    monkeypatch.setattr(evaluation, "_EMBED_ROWS", chunk)
    encoded = random_encoded(np.random.default_rng(9), 3 * chunk, base_config)
    params = init_params(0, base_config)
    one = traced_peak(lambda: forward_batch(encoded.rule_ids[:chunk], encoded.semantics[:chunk],
                                            params, train=False))
    output = len(encoded) * base_config.embedding_dim * 8
    peak = traced_peak(lambda: index_encoded(encoded, params))
    assert peak < output + 2 * one, (peak, output, one)


def test_index_encoded_keeps_its_output(monkeypatch, base_config):
    # Each chunk goes straight to its chart-id rows and the index keeps that
    # array: the peak is one output plus about one chunk's forward (and the
    # previous chunk), not two outputs. Chart ids out of corpus order too.
    chunk = 64
    monkeypatch.setattr(evaluation, "_EMBED_ROWS", chunk)
    encoded = random_encoded(np.random.default_rng(10), 12 * chunk, base_config)
    encoded = dataclasses.replace(encoded, chart_ids=encoded.chart_ids[::-1])
    params = init_params(0, base_config)
    one = traced_peak(lambda: forward_batch(encoded.rule_ids[:chunk], encoded.semantics[:chunk],
                                            params, train=False))
    output = len(encoded) * base_config.embedding_dim * 8
    assert output > 2 * one
    peak = traced_peak(lambda: index_encoded(encoded, params))
    assert peak < output + 1.5 * one, (peak, output, one)
    index = index_encoded(encoded, params)
    assert index.vectors.flags.c_contiguous and index.vectors.flags.owndata
    expected = chunked_reference(encoded, params, chunk)[::-1]
    assert index.vectors.tobytes() == expected.tobytes()


def test_the_index_keeps_an_array_in_chart_id_order():
    vectors = np.arange(12.0).reshape(4, 3)
    columns = (("a", "b", "c", "d"), ("s",) * 4, (0, 1, 2, 3), ("d",) * 4)
    assert EmbeddingIndex(*columns, vectors).vectors is vectors
    # Out of order, or not C-contiguous float64: a sorted copy.
    for ids, given in [(("b", "a", "d", "c"), vectors), (columns[0], vectors.T.copy().T),
                       (columns[0], vectors.astype(np.float32))]:
        index = EmbeddingIndex(ids, *columns[1:], given)
        assert index.vectors is not given and index.vectors.flags.c_contiguous
        assert index.vectors.dtype == np.float64
        assert index.vectors.tolist() == [given[ids.index(i)].tolist() for i in index.ids]

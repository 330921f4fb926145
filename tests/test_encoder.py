from __future__ import annotations

import struct

import numpy as np
import pytest

from chartembed.corpus import Corpus, MultiViewVis, encode_corpus
from chartembed.encoder import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EncoderConfig,
    EncoderError,
    checkpoint_items,
    copy_params,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    load_checkpoint_extras,
    params_equal,
    save_checkpoint,
    trainable_items,
)

# Frozen regression pin: first five output components for seed-1234 params
# on the worked example fact encoded with the bundled vector store.
GOLDEN_FIRST5 = np.array([
    -0.18248289917042432,
    -0.18716781497574253,
    -0.19823440938883022,
    -0.10102634218319154,
    0.07161619642879663,
])


def naive_forward_infer(schema, sem, params):
    """Independent loop-based re-implementation of the inference pipeline."""
    cfg = params.config
    x = schema.T.copy()  # (60, 16)
    for layer in params.conv:
        cout, cin, k = layer.weight.shape
        pad = k // 2
        xp = np.zeros((cin, cfg.sequence_length + 2 * pad))
        xp[:, pad : pad + cfg.sequence_length] = x
        z = np.zeros((cout, cfg.sequence_length))
        for o in range(cout):
            for pos in range(cfg.sequence_length):
                acc = 0.0
                for c in range(cin):
                    for kk in range(k):
                        acc += layer.weight[o, c, kk] * xp[c, pos + kk]
                z[o, pos] = acc + layer.bias[o]
        y = np.zeros_like(z)
        for o in range(cout):
            inv = 1.0 / np.sqrt(layer.running_var[o] + cfg.bn_eps)
            y[o] = layer.gamma[o] * (z[o] - layer.running_mean[o]) * inv + layer.beta[o]
        x = np.maximum(y, 0.0)
    h = np.concatenate([x.reshape(-1), sem.reshape(-1)])
    if not cfg.use_fc:
        return h
    z1 = params.fc1.weight @ h + params.fc1.bias
    a1 = np.maximum(z1, 0.0)
    return params.fc2.weight @ a1 + params.fc2.bias


def test_init_deterministic_per_seed(base_config):
    assert params_equal(init_params(7, base_config), init_params(7, base_config))
    assert not params_equal(init_params(7, base_config), init_params(8, base_config))


def test_init_weight_bounds(base_config):
    params = init_params(3, base_config)
    for layer in params.conv:
        fan_in = layer.weight.shape[1] * layer.weight.shape[2]
        assert np.abs(layer.weight).max() <= np.sqrt(6.0 / fan_in)
        assert not layer.bias.any()
        assert (layer.gamma == 1.0).all() and not layer.beta.any()
        assert not layer.running_mean.any() and (layer.running_var == 1.0).all()
    assert np.abs(params.fc1.weight).max() <= np.sqrt(6.0 / base_config.fc1_in)
    assert np.abs(params.fc2.weight).max() <= np.sqrt(6.0 / base_config.output_dim)


def test_forward_matches_naive_oracle(rng, base_config):
    params = init_params(11, base_config)
    schema = (rng.random((16, 60)) < 0.1).astype(float)
    sem = rng.normal(size=(25, 17))
    fast, trace = forward(schema, sem, params, mode="infer")
    assert trace is None
    slow = naive_forward_infer(schema, sem, params)
    assert np.allclose(fast, slow, atol=1e-12)


def test_forward_no_fc_matches_naive_oracle(rng):
    config = EncoderConfig(use_fc=False)
    params = init_params(11, config)
    schema = (rng.random((16, 60)) < 0.1).astype(float)
    sem = rng.normal(size=(25, 17))
    fast, _ = forward(schema, sem, params, mode="infer")
    assert fast.shape == (553,)
    assert np.allclose(fast, naive_forward_infer(schema, sem, params), atol=1e-12)


def test_zero_inputs_hit_bias_only_path(base_config):
    params = init_params(5, base_config)
    schema = np.zeros((16, 60))
    sem = np.zeros((25, 17))
    out1, _ = forward(schema, sem, params)
    out2, _ = forward(schema, sem, params)
    assert np.array_equal(out1, out2)
    assert np.allclose(out1, naive_forward_infer(schema, sem, params), atol=1e-12)


def test_golden_snapshot(example_fact, store):
    params = init_params(1234, EncoderConfig())
    vis = MultiViewVis("v", "ds", "economy", "data-story", (("c", example_fact),))
    schemas, sems = encode_corpus(Corpus((vis,)), store, params.config).rows(np.arange(1))
    vec, _ = forward(schemas[0], sems[0], params)
    assert vec.shape == (540,)
    assert np.allclose(vec[:5], GOLDEN_FIRST5, atol=1e-12)


def test_infer_independent_of_batch_composition(rng, base_config):
    params = init_params(2, base_config)
    schema_a = (rng.random((16, 60)) < 0.1).astype(float)
    sem_a = rng.normal(size=(25, 17))
    schema_b = (rng.random((16, 60)) < 0.1).astype(float)
    sem_b = rng.normal(size=(25, 17))
    alone, _ = forward(schema_a, sem_a, params)
    batched, _ = forward_batch(
        np.stack([schema_a, schema_b]), np.stack([sem_a, sem_b]), params, train=False
    )
    # BLAS reduction order varies with batch shape; agreement is to the ulp,
    # not bitwise.
    assert np.allclose(alone, batched[0], atol=1e-12, rtol=0)


def test_infer_does_not_mutate_params(rng, base_config):
    params = init_params(2, base_config)
    before = copy_params(params)
    schema = (rng.random((16, 60)) < 0.1).astype(float)
    forward(schema, rng.normal(size=(25, 17)), params)
    assert params_equal(params, before)


def test_train_mode_batch_norm_statistics(rng, base_config):
    params = init_params(6, base_config)
    schemas = (rng.random((8, 16, 60)) < 0.1).astype(float)
    sems = rng.normal(size=(8, 25, 17))
    _, trace = forward_batch(
        schemas, sems, params, train=True,
        dropout_rng=np.random.default_rng(0), update_running_stats=False,
    )
    from numpy.lib.stride_tricks import sliding_window_view

    for layer, xp, xhat in zip(params.conv, trace.conv_inputs_padded, trace.conv_xhat):
        windows = sliding_window_view(xp, layer.weight.shape[2], axis=2)
        z = np.einsum("bclk,ock->bol", windows, layer.weight) + layer.bias[None, :, None]
        mean = z.mean(axis=(0, 2))
        var = z.var(axis=(0, 2))
        # Per-channel statistics of the normalized pre-activation (before
        # scale/shift, excluding the division guard eps).
        normalized = (z - mean[None, :, None]) / np.sqrt(var)[None, :, None]
        assert np.abs(normalized.mean(axis=(0, 2))).max() < 1e-5
        assert np.abs(normalized.var(axis=(0, 2)) - 1.0).max() < 1e-5
        # And the traced values use exactly the guarded batch statistics.
        guarded = (z - mean[None, :, None]) / np.sqrt(var + base_config.bn_eps)[None, :, None]
        assert np.allclose(xhat, guarded, atol=1e-12)


def test_running_stats_update_only_when_requested(rng, base_config):
    params = init_params(6, base_config)
    before = copy_params(params)
    schemas = (rng.random((4, 16, 60)) < 0.1).astype(float)
    sems = rng.normal(size=(4, 25, 17))
    forward_batch(schemas, sems, params, train=True,
                  dropout_rng=np.random.default_rng(0), update_running_stats=False)
    assert params_equal(params, before)
    forward_batch(schemas, sems, params, train=True,
                  dropout_rng=np.random.default_rng(0), update_running_stats=True)
    assert not params_equal(params, before)
    for layer, old in zip(params.conv, before.conv):
        assert np.array_equal(layer.weight, old.weight)  # only stats moved


def test_semantic_rows_are_position_sensitive(rng, base_config):
    params = init_params(9, base_config)
    schema = np.zeros((16, 60))
    sem = rng.normal(size=(25, 17))
    swapped = sem.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    out_a, _ = forward(schema, sem, params)
    out_b, _ = forward(schema, swapped, params)
    assert not np.allclose(out_a, out_b)


def test_forward_shape_mismatch_rejected(rng, base_config):
    params = init_params(1, base_config)
    with pytest.raises(EncoderError, match="schema"):
        forward(np.zeros((15, 60)), np.zeros((25, 17)), params)
    with pytest.raises(EncoderError, match="semantic"):
        forward(np.zeros((16, 60)), np.zeros((25, 16)), params)


def test_forward_rejects_non_finite_params(base_config):
    params = init_params(1, base_config)
    params.fc1.weight[0, 0] = np.nan
    with pytest.raises(EncoderError, match="non-finite"):
        forward(np.zeros((16, 60)), np.zeros((25, 17)), params)


def test_zero_branch_switches(rng):
    schema = (rng.random((16, 60)) < 0.2).astype(float)
    sem = rng.normal(size=(25, 17))
    params = init_params(3, EncoderConfig(zero_schema=True))
    a, _ = forward(schema, sem, params)
    b, _ = forward(np.zeros((16, 60)), sem, params)
    assert np.array_equal(a, b)
    params = init_params(3, EncoderConfig(zero_semantics=True))
    a, _ = forward(schema, sem, params)
    b, _ = forward(schema, np.zeros((25, 17)), params)
    assert np.array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path, base_config):
    params = init_params(42, base_config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path, extras={"note": 1})
    loaded, config = load_checkpoint(path)
    assert config == base_config
    assert params_equal(loaded, params)
    assert load_checkpoint_extras(path) == {"note": 1}
    # Bit-exactness of every payload array.
    for (_, a), (_, b) in zip(checkpoint_items(params), checkpoint_items(loaded)):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_roundtrip_no_fc(tmp_path):
    config = EncoderConfig(use_fc=False)
    params = init_params(42, config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert params_equal(loaded, params)


def test_checkpoint_corrupt_magic(tmp_path, base_config):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_params(1, base_config), path=path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(path)


def test_checkpoint_config_shape_mismatch(tmp_path):
    # Craft a checkpoint whose header claims different conv widths than the
    # payload actually holds.
    params = init_params(1, EncoderConfig())
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path)
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = blob[8 : 8 + header_len].decode("utf-8")
    patched = header.replace("[60, 30, 15, 8]", "[60, 20, 10, 8]").encode("utf-8")
    out = CHECKPOINT_MAGIC + struct.pack("<I", len(patched)) + patched + blob[8 + header_len :]
    open(path, "wb").write(out)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_checkpoint(path)


def test_trainable_items_order(base_config):
    names = [name for name, _ in trainable_items(init_params(0, base_config))]
    assert names == [
        "conv1.weight", "conv1.bias", "conv1.gamma", "conv1.beta",
        "conv2.weight", "conv2.bias", "conv2.gamma", "conv2.beta",
        "conv3.weight", "conv3.bias", "conv3.gamma", "conv3.beta",
        "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
    ]


def test_config_dimension_arithmetic():
    config = EncoderConfig()
    assert config.conv_flat_dim == 128
    assert config.fc1_in == 553
    assert config.embedding_dim == 540
    assert EncoderConfig(use_fc=False).embedding_dim == 553
    assert EncoderConfig(semantic_mode="none").fc1_in == 128 + 25 * 107
    assert EncoderConfig(semantic_mode="words-average").fc1_in == 128 + 107


def test_config_validation():
    with pytest.raises(EncoderError):
        EncoderConfig(conv_channels=(59, 30, 15, 8))
    with pytest.raises(EncoderError):
        EncoderConfig(kernel_size=4)
    with pytest.raises(EncoderError):
        EncoderConfig(semantic_mode="bogus")

from __future__ import annotations

import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from chartembed.corpus import Corpus, MultiViewVis, encode_corpus
from chartembed.encoder import (
    BN_EPS,
    BN_MOMENTUM,
    CHECKPOINT_MAGIC,
    CONV_CHANNELS,
    CONV_FLAT_DIM,
    OUTPUT_DIM,
    CheckpointError,
    EncoderConfig,
    EncoderError,
    EncoderParams,
    _read_header,
    backward_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    param_views,
    save_checkpoint,
    trainable_items,
)
from chartembed.evaluation import ABLATION_VARIANTS, variant_switches
from chartembed.grammar import MAX_SEQUENCE_LENGTH
from reference import one_hot

# Frozen regression pin: first five output components for seed-1234 params
# on the worked example fact encoded with the bundled vector store.
GOLDEN_FIRST5 = np.array([
    -0.18248289917042432,
    -0.18716781497574253,
    -0.19823440938883022,
    -0.10102634218319154,
    0.07161619642879663,
])


def random_rule_ids(rng, count):
    """`count` rows of 8..13 random rule ids, each padded with -1 to 16."""
    ids = np.full((count, 16), -1, dtype=np.int8)
    for row in ids:
        length = rng.integers(8, 14)
        row[:length] = rng.integers(0, 60, length)
    return ids


def embed_one(rule_ids, sem, params):
    """One chart's inference embedding: a one-row forward_batch."""
    out, _ = forward_batch(np.asarray(rule_ids)[None], np.asarray(sem)[None], params, train=False)
    return out[0]


def conv_layers(params):
    """Each conv layer's named views (weight, gamma, beta, running
    statistics) as attributes."""
    parts = ("weight", "gamma", "beta", "running_mean", "running_var")
    return [
        SimpleNamespace(**{part: params.views[f"conv{i}.{part}"] for part in parts})
        for i in range(1, len(CONV_CHANNELS))
    ]


def assert_close_to_reference(actual, reference, what):
    # Tolerance fixed in advance: the two computations differ only in the
    # order of float64 sums.
    bound = 1e-9 * max(1.0, float(np.abs(reference).max(initial=0.0)))
    assert np.abs(actual - reference).max(initial=0.0) <= bound, what


def dense_forward_backward(schemas, sems, params, dropout_rng, d_out):
    """Independent dense reference for a train-mode forward and backward.

    Convolves the (B, 16, 60) one-hot schemas through einsums in (B, C, L)
    layout and returns (output, gradients); updates the running statistics
    of `params` as the train-mode forward does.
    """
    cfg = params.config
    x = np.zeros_like(schemas) if cfg.zero_schema else schemas
    x = x.transpose(0, 2, 1)
    sem = np.zeros_like(sems) if cfg.zero_semantics else sems
    cache = []
    for layer in conv_layers(params):
        pad = layer.weight.shape[2] // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        windows = sliding_window_view(xp, layer.weight.shape[2], axis=2)
        z = np.einsum("bclk,ock->bol", windows, layer.weight)
        mean, var = z.mean(axis=(0, 2)), z.var(axis=(0, 2))
        n = z.shape[0] * z.shape[2]
        layer.running_mean[:] = (1 - BN_MOMENTUM) * layer.running_mean + BN_MOMENTUM * mean
        layer.running_var[:] = (1 - BN_MOMENTUM) * layer.running_var + BN_MOMENTUM * var * n / (n - 1)
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (z - mean[None, :, None]) * invstd[None, :, None]
        y = layer.gamma[None, :, None] * xhat + layer.beta[None, :, None]
        cache.append((xp, xhat, invstd, y > 0))
        x = np.maximum(y, 0.0)
    batch = x.shape[0]
    fused = np.concatenate([x.reshape(batch, -1), sem.reshape(batch, -1)], axis=1)
    grads = {}
    if cfg.use_fc:
        fc1_w, fc1_b = params.views["fc1.weight"], params.views["fc1.bias"]
        fc2_w, fc2_b = params.views["fc2.weight"], params.views["fc2.bias"]
        z1 = fused @ fc1_w.T + fc1_b
        keep = dropout_rng.random(z1.shape) >= cfg.dropout
        scale = keep / (1.0 - cfg.dropout)
        a1 = np.maximum(z1, 0.0) * scale
        out = a1 @ fc2_w.T + fc2_b
        grads["fc2.weight"] = d_out.T @ a1
        grads["fc2.bias"] = d_out.sum(axis=0)
        d_z1 = (d_out @ fc2_w) * scale * (z1 > 0)
        grads["fc1.weight"] = d_z1.T @ fused
        grads["fc1.bias"] = d_z1.sum(axis=0)
        d_fused = d_z1 @ fc1_w
    else:
        out, d_fused = fused, d_out
    d_x = d_fused[:, :CONV_FLAT_DIM].reshape(batch, CONV_CHANNELS[-1], -1)
    for i, layer in reversed(list(enumerate(conv_layers(params)))):
        xp, xhat, invstd, mask = cache[i]
        d_y = d_x * mask
        grads[f"conv{i + 1}.gamma"] = (d_y * xhat).sum(axis=(0, 2))
        grads[f"conv{i + 1}.beta"] = d_y.sum(axis=(0, 2))
        d_xhat = d_y * layer.gamma[None, :, None]
        d_z = invstd[None, :, None] * (
            d_xhat
            - d_xhat.mean(axis=(0, 2))[None, :, None]
            - xhat * (d_xhat * xhat).mean(axis=(0, 2))[None, :, None]
        )
        windows = sliding_window_view(xp, layer.weight.shape[2], axis=2)
        grads[f"conv{i + 1}.weight"] = np.einsum("bol,bclk->ock", d_z, windows)
        d_xp = np.zeros_like(xp)
        length = d_z.shape[2]
        for k in range(layer.weight.shape[2]):
            d_xp[:, :, k : k + length] += np.einsum("bol,oc->bcl", d_z, layer.weight[:, :, k])
        pad = layer.weight.shape[2] // 2
        d_x = d_xp[:, :, pad : pad + length]
    return out, grads


def naive_forward_infer(schema, sem, params):
    """Independent loop-based re-implementation of the inference pipeline."""
    cfg = params.config
    x = schema.T.copy()  # (60, 16)
    for layer in conv_layers(params):
        cout, cin, k = layer.weight.shape
        pad = k // 2
        xp = np.zeros((cin, MAX_SEQUENCE_LENGTH + 2 * pad))
        xp[:, pad : pad + MAX_SEQUENCE_LENGTH] = x
        z = np.zeros((cout, MAX_SEQUENCE_LENGTH))
        for o in range(cout):
            for pos in range(MAX_SEQUENCE_LENGTH):
                acc = 0.0
                for c in range(cin):
                    for kk in range(k):
                        acc += layer.weight[o, c, kk] * xp[c, pos + kk]
                z[o, pos] = acc
        y = np.zeros_like(z)
        for o in range(cout):
            inv = 1.0 / np.sqrt(layer.running_var[o] + BN_EPS)
            y[o] = layer.gamma[o] * (z[o] - layer.running_mean[o]) * inv + layer.beta[o]
        x = np.maximum(y, 0.0)
    h = np.concatenate([x.reshape(-1), sem.reshape(-1)])
    if not cfg.use_fc:
        return h
    z1 = params.views["fc1.weight"] @ h + params.views["fc1.bias"]
    a1 = np.maximum(z1, 0.0)
    return params.views["fc2.weight"] @ a1 + params.views["fc2.bias"]


def test_init_deterministic_per_seed(base_config):
    seven = init_params(7, base_config).values
    assert np.array_equal(seven, init_params(7, base_config).values)
    assert not np.array_equal(seven, init_params(8, base_config).values)


def test_init_weight_bounds(base_config):
    params = init_params(3, base_config)
    for layer in conv_layers(params):
        fan_in = layer.weight.shape[1] * layer.weight.shape[2]
        assert np.abs(layer.weight).max() <= np.sqrt(6.0 / fan_in)
        assert (layer.gamma == 1.0).all() and not layer.beta.any()
        assert not layer.running_mean.any() and (layer.running_var == 1.0).all()
    assert np.abs(params.views["fc1.weight"]).max() <= np.sqrt(6.0 / base_config.fc1_in)
    assert np.abs(params.views["fc2.weight"]).max() <= np.sqrt(6.0 / OUTPUT_DIM)


def test_forward_matches_naive_oracle(rng, base_config):
    params = init_params(11, base_config)
    rule_ids = random_rule_ids(rng, 1)[0]
    sem = rng.normal(size=(25, 17))
    fast, trace = forward_batch(rule_ids[None], sem[None], params, train=False)
    assert trace is None
    slow = naive_forward_infer(one_hot(rule_ids), sem, params)
    assert np.allclose(fast[0], slow, atol=1e-12)


def test_forward_no_fc_matches_naive_oracle(rng):
    config = EncoderConfig(use_fc=False)
    params = init_params(11, config)
    rule_ids = random_rule_ids(rng, 1)[0]
    sem = rng.normal(size=(25, 17))
    fast = embed_one(rule_ids, sem, params)
    assert fast.shape == (553,)
    assert np.allclose(fast, naive_forward_infer(one_hot(rule_ids), sem, params), atol=1e-12)


def test_zero_inputs_hit_bias_only_path(base_config):
    params = init_params(5, base_config)
    rule_ids = np.full(16, -1)
    sem = np.zeros((25, 17))
    out1 = embed_one(rule_ids, sem, params)
    out2 = embed_one(rule_ids, sem, params)
    assert np.array_equal(out1, out2)
    assert np.allclose(out1, naive_forward_infer(np.zeros((16, 60)), sem, params), atol=1e-12)


def test_golden_snapshot(example_fact, store):
    params = init_params(1234, EncoderConfig())
    vis = MultiViewVis("v", "ds", "economy", "data-story", (("c", example_fact),))
    rule_ids, sems = encode_corpus(Corpus((vis,)), store, params.config).rows(np.arange(1))
    vec = embed_one(rule_ids[0], sems[0], params)
    assert vec.shape == (540,)
    assert np.allclose(vec[:5], GOLDEN_FIRST5, atol=1e-12)


def test_infer_independent_of_batch_composition(rng, base_config):
    params = init_params(2, base_config)
    ids_a, ids_b = random_rule_ids(rng, 2)
    sem_a = rng.normal(size=(25, 17))
    sem_b = rng.normal(size=(25, 17))
    alone = embed_one(ids_a, sem_a, params)
    batched, _ = forward_batch(
        np.stack([ids_a, ids_b]), np.stack([sem_a, sem_b]), params, train=False
    )
    # BLAS reduction order varies with batch shape; agreement is to the ulp,
    # not bitwise.
    assert np.allclose(alone, batched[0], atol=1e-12, rtol=0)


def test_infer_does_not_mutate_params(rng, base_config):
    params = init_params(2, base_config)
    before = params.values.copy()
    embed_one(random_rule_ids(rng, 1)[0], rng.normal(size=(25, 17)), params)
    assert np.array_equal(params.values, before)


def test_named_views_alias_the_parameter_vector(rng, base_config):
    params = init_params(6, base_config)
    # The views tile the vector in checkpoint order.
    offsets = {}
    offset = 0
    for name, view in params.views.items():
        assert np.shares_memory(view, params.values[offset : offset + view.size]), name
        offsets[name] = offset
        offset += view.size
    assert offset == params.values.size
    # A write through a view shows in the vector.
    fc1 = params.views["fc1.weight"]
    fc1[2, 3] = 7.5
    assert params.values[offsets["fc1.weight"] + 2 * fc1.shape[1] + 3] == 7.5
    # A train-mode forward updates the running statistics inside the vector,
    # and nothing else.
    before = params.values.copy()
    forward_batch(random_rule_ids(rng, 4), rng.normal(size=(4, 25, 17)), params, train=True,
                  dropout_rng=np.random.default_rng(0))
    stats = np.concatenate([
        offsets[name] + np.arange(view.size)
        for name, view in params.views.items() if ".running_" in name
    ])
    moved = np.flatnonzero(params.values != before)
    assert moved.size and np.isin(moved, stats).all()


def test_train_mode_batch_norm_statistics(rng, base_config):
    params = init_params(6, base_config)
    rule_ids = random_rule_ids(rng, 8)
    sems = rng.normal(size=(8, 25, 17))
    _, trace = forward_batch(
        rule_ids, sems, params, train=True,
        dropout_rng=np.random.default_rng(0), update_running_stats=False,
    )
    x = one_hot(rule_ids).transpose(0, 2, 1)  # (B, 60, 16)
    for layer, xhat_rows in zip(conv_layers(params), trace.conv_xhat):
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        windows = sliding_window_view(xp, layer.weight.shape[2], axis=2)
        z = np.einsum("bclk,ock->bol", windows, layer.weight)
        mean = z.mean(axis=(0, 2))
        var = z.var(axis=(0, 2))
        # Per-channel statistics of the normalized pre-activation (before
        # scale/shift, excluding the division guard eps).
        normalized = (z - mean[None, :, None]) / np.sqrt(var)[None, :, None]
        assert np.abs(normalized.mean(axis=(0, 2))).max() < 1e-5
        assert np.abs(normalized.var(axis=(0, 2)) - 1.0).max() < 1e-5
        # And the traced values, one row per (chart, position), use exactly
        # the guarded batch statistics.
        guarded = (z - mean[None, :, None]) / np.sqrt(var + BN_EPS)[None, :, None]
        xhat = xhat_rows.reshape(8, 16, -1).transpose(0, 2, 1)
        assert np.allclose(xhat, guarded, atol=1e-12)
        x = np.maximum(layer.gamma[None, :, None] * guarded + layer.beta[None, :, None], 0.0)


def test_running_stats_update_only_when_requested(rng, base_config):
    params = init_params(6, base_config)
    before = EncoderParams(params.config, params.values.copy())
    rule_ids = random_rule_ids(rng, 4)
    sems = rng.normal(size=(4, 25, 17))
    forward_batch(rule_ids, sems, params, train=True,
                  dropout_rng=np.random.default_rng(0), update_running_stats=False)
    assert np.array_equal(params.values, before.values)
    forward_batch(rule_ids, sems, params, train=True,
                  dropout_rng=np.random.default_rng(0), update_running_stats=True)
    assert not np.array_equal(params.values, before.values)
    for layer, old in zip(conv_layers(params), conv_layers(before)):
        assert np.array_equal(layer.weight, old.weight)  # only stats moved


def test_train_step_matches_dense_reference_for_every_variant(rng, base_config):
    # A 128-quadruple batch in train mode: the rule-id gather, channels-last
    # conv stack and gated fc1 backward against the dense one-hot reference.
    rule_ids = random_rule_ids(rng, 512)
    for variant in ABLATION_VARIANTS:
        config, _ = variant_switches(variant, base_config)
        params, reference = init_params(4, config), init_params(4, config)
        sems = rng.normal(size=(512, *config.semantic_shape))
        d_out = rng.normal(size=(512, config.embedding_dim))
        out, trace = forward_batch(rule_ids, sems, params, train=True,
                                   dropout_rng=np.random.default_rng(9))
        grads = param_views(config, backward_batch(trace, d_out, params))
        ref_out, ref_grads = dense_forward_backward(
            one_hot(rule_ids), sems, reference, np.random.default_rng(9), d_out
        )
        assert_close_to_reference(out, ref_out, f"{variant} output")
        assert list(grads) == [name for name, _ in trainable_items(params)]
        assert sorted(grads) == sorted(ref_grads)
        for name, grad in grads.items():
            assert_close_to_reference(grad, ref_grads[name], f"{variant} {name}")
        for name, arr in params.views.items():
            assert_close_to_reference(arr, reference.views[name], f"{variant} {name}")


def test_semantic_rows_are_position_sensitive(rng, base_config):
    params = init_params(9, base_config)
    rule_ids = np.full(16, -1)
    sem = rng.normal(size=(25, 17))
    swapped = sem.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    out_a = embed_one(rule_ids, sem, params)
    out_b = embed_one(rule_ids, swapped, params)
    assert not np.allclose(out_a, out_b)


def test_forward_shape_mismatch_rejected(rng, base_config):
    params = init_params(1, base_config)
    with pytest.raises(EncoderError, match="schema"):
        embed_one(np.full(15, -1), np.zeros((25, 17)), params)
    with pytest.raises(EncoderError, match="schema"):
        embed_one(np.zeros((16, 60), dtype=int), np.zeros((25, 17)), params)
    with pytest.raises(EncoderError, match="semantic"):
        embed_one(np.full(16, -1), np.zeros((25, 16)), params)


def test_forward_rejects_invalid_rule_ids(base_config):
    params = init_params(1, base_config)
    sem = np.zeros((25, 17))
    for bad in (np.zeros(16), np.full(16, -1.0), np.zeros(16, dtype=bool)):
        with pytest.raises(EncoderError, match="integers"):
            embed_one(bad, sem, params)
    for value in (-2, 60, 127):
        rule_ids = np.full(16, -1, dtype=np.int8)
        rule_ids[3] = value
        with pytest.raises(EncoderError, match=r"\[-1, 60\)"):
            embed_one(rule_ids, sem, params)
    edge = np.array([0, 59] + [-1] * 14)
    assert embed_one(edge, sem, params).shape == (540,)


def test_forward_rejects_non_finite_params(base_config):
    params = init_params(1, base_config)
    params.views["fc1.weight"][0, 0] = np.nan
    with pytest.raises(EncoderError, match="non-finite parameter detected in fc1.weight"):
        embed_one(np.full(16, -1), np.zeros((25, 17)), params)


def test_zero_branch_switches(rng):
    rule_ids = random_rule_ids(rng, 1)[0]
    sem = rng.normal(size=(25, 17))
    params = init_params(3, EncoderConfig(zero_schema=True))
    a = embed_one(rule_ids, sem, params)
    b = embed_one(np.full(16, -1), sem, params)
    assert np.array_equal(a, b)
    params = init_params(3, EncoderConfig(zero_semantics=True))
    a = embed_one(rule_ids, sem, params)
    b = embed_one(rule_ids, np.zeros((25, 17)), params)
    assert np.array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path, base_config):
    params = init_params(42, base_config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path, extras={"note": 1})
    loaded, config = load_checkpoint(path)
    assert config == base_config
    with open(path, "rb") as fh:
        assert _read_header(fh)["extras"] == {"note": 1}
    # Bit-exactness of the whole payload.
    assert loaded.values.tobytes() == params.values.tobytes()


def test_checkpoint_roundtrip_no_fc(tmp_path):
    config = EncoderConfig(use_fc=False)
    params = init_params(42, config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert np.array_equal(loaded.values, params.values)


def test_checkpoint_loads_hand_written_c2v2_layout(tmp_path):
    # The documented layout, written without save_checkpoint: per conv layer
    # weight, gamma, beta; then fc1 and fc2 weight and bias; then per
    # conv layer running mean and running variance, as little-endian float64.
    config = EncoderConfig()
    params = init_params(8, config)
    for layer in conv_layers(params):  # off their init values, so their order shows
        layer.running_mean[...] = np.arange(layer.running_mean.size) + 0.25
        layer.running_var[...] = np.arange(layer.running_var.size) + 2.5
    arrays = []
    for layer in conv_layers(params):
        arrays += [layer.weight, layer.gamma, layer.beta]
    arrays += [params.views[name] for name in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")]
    for layer in conv_layers(params):
        arrays += [layer.running_mean, layer.running_var]
    header = json.dumps({
        "format_version": 2,
        "config": {
            "conv_channels": [60, 30, 15, 8], "kernel_size": 3, "sequence_length": 16,
            "semantic_slots": 25, "output_dim": 540, "dropout": 0.1, "bn_momentum": 0.1,
            "bn_eps": 1e-5, "semantic_mode": "interval-average", "use_locations": True,
            "zero_schema": False, "zero_semantics": False, "use_fc": True,
        },
        "extras": None,
    }).encode("utf-8")
    path = tmp_path / "hand.ckpt"
    path.write_bytes(
        b"C2V2" + struct.pack("<I", len(header)) + header
        + struct.pack("<Q", sum(a.size for a in arrays))
        + b"".join(a.astype("<f8").tobytes() for a in arrays)
    )
    loaded, loaded_config = load_checkpoint(str(path))
    assert loaded_config == config
    assert np.array_equal(loaded.values, params.values)
    assert loaded.values.size == 598_622
    # save_checkpoint writes this layout, header included, byte for byte.
    save_checkpoint(params, path=str(tmp_path / "saved.ckpt"))
    assert (tmp_path / "saved.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_corrupt_magic(tmp_path, base_config):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_params(1, base_config), path=path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(path)


def test_checkpoint_config_shape_mismatch(tmp_path):
    # Craft checkpoints whose header claims a different shape than the
    # payload actually holds: other conv widths are not the architecture,
    # and without the FC layers the config implies fewer values.
    params = init_params(1, EncoderConfig())
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path=path)
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = blob[8 : 8 + header_len].decode("utf-8")
    for old, new, message in [
        ("[60, 30, 15, 8]", "[60, 20, 10, 8]",
         "invalid config block: conv_channels must be [60, 30, 15, 8], got [60, 20, 10, 8]"),
        ('"use_fc": true', '"use_fc": false', "shape mismatch"),
    ]:
        patched = header.replace(old, new).encode("utf-8")
        out = CHECKPOINT_MAGIC + struct.pack("<I", len(patched)) + patched + blob[8 + header_len :]
        open(path, "wb").write(out)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


def test_trainable_items_order(base_config):
    names = [name for name, _ in trainable_items(init_params(0, base_config))]
    assert names == [
        "conv1.weight", "conv1.gamma", "conv1.beta",
        "conv2.weight", "conv2.gamma", "conv2.beta",
        "conv3.weight", "conv3.gamma", "conv3.beta",
        "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
    ]
    # The running statistics follow the trainable arrays.
    assert list(init_params(0, base_config).views)[len(names):] == [
        f"conv{i}.{stat}" for i in (1, 2, 3) for stat in ("running_mean", "running_var")
    ]


def test_config_dimension_arithmetic():
    config = EncoderConfig()
    assert CONV_FLAT_DIM == 128
    assert config.fc1_in == 553
    assert config.embedding_dim == 540
    assert EncoderConfig(use_fc=False).embedding_dim == 553
    assert EncoderConfig(semantic_mode="none").fc1_in == 128 + 25 * 107
    assert EncoderConfig(semantic_mode="words-average").fc1_in == 128 + 107


def test_config_validation():
    with pytest.raises(EncoderError):
        EncoderConfig(semantic_mode="bogus")
    # Types are checked field by field: bools are not numbers, and numbers
    # are not flags. (The architecture values are constants; a checkpoint
    # header that holds other ones is rejected on load.)
    bad_fields = [
        {"dropout": True}, {"dropout": "0.1"},
        {"use_fc": "yes"}, {"use_locations": 1}, {"semantic_mode": None},
    ]
    for fields in bad_fields:
        with pytest.raises(EncoderError, match=next(iter(fields))):
            EncoderConfig(**fields)
    assert EncoderConfig(dropout=0).dropout == 0

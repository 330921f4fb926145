from __future__ import annotations

import numpy as np
import pytest

from chartembed.cli import _gradcheck_batch
from chartembed.corpus import SampleSet, build_samples
from chartembed.encoder import (
    EncoderConfig,
    backward_batch,
    copy_params,
    forward_batch,
    init_params,
    param_count,
    param_views,
    params_equal,
    trainable_count,
    trainable_items,
)
from chartembed.evaluation import ABLATION_VARIANTS, variant_switches
from chartembed.learning import (
    _ADAM_BLOCK,
    HyperParams,
    TrainingDivergedError,
    adam_step,
    batch_loss_from_embeddings,
    combined_loss,
    euclidean,
    euclidean_grad,
    grad_check,
    history_csv,
    init_adam,
    interpolation_loss,
    loss_gradients_wrt_embeddings,
    train,
    triplet_loss,
)

SQRT2 = np.sqrt(2.0)


def test_interpolation_loss_collinear_midpoint_is_zero():
    value, (interp, pairs) = interpolation_loss(
        np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0]), alpha=0.0
    )
    assert value == 0.0
    assert interp == 0.0
    assert pairs == pytest.approx(4 * SQRT2)


def test_interpolation_loss_alpha_one_hand_value():
    value, _ = interpolation_loss(
        np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0]), alpha=1.0
    )
    assert value == pytest.approx(4 * SQRT2)
    assert value == pytest.approx(5.6569, abs=1e-4)


def test_interpolation_loss_offset_mid():
    value, _ = interpolation_loss(
        np.array([0.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0]), alpha=0.0
    )
    assert value == 1.0


def test_interpolation_zero_iff_midpoint(rng):
    for _ in range(30):
        p = rng.normal(size=6)
        n = rng.normal(size=6)
        _, (interp, _) = interpolation_loss(p, (p + n) / 2.0, n, alpha=0.3)
        assert interp == 0.0
        off = (p + n) / 2.0 + rng.normal(size=6) * 0.1 + 0.01
        _, (interp_off, _) = interpolation_loss(p, off, n, alpha=0.3)
        assert interp_off > 0.0


def test_triplet_loss_cases():
    a = np.array([0.0, 0.0])
    assert triplet_loss(a, np.array([1.0, 0.0]), np.array([5.0, 0.0]), 1.0) == 0.0
    assert triplet_loss(a, np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0) == 2.0
    assert triplet_loss(a, a, a, 1.0) == 1.0


def test_beta_zero_reduces_to_l1(rng):
    b = 4
    prev, mid, nxt, neg = (rng.normal(size=(b, 8)) for _ in range(4))
    hyper = HyperParams(alpha=0.7, beta=0.0)
    breakdown = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper)
    assert breakdown.total == breakdown.l1
    assert breakdown.l1 == pytest.approx(
        breakdown.interp_term + hyper.alpha * breakdown.pair_term
    )


def test_collinear_alpha_beta_zero_total_zero():
    prev = np.array([[0.0, 0.0]])
    mid = np.array([[1.0, 1.0]])
    nxt = np.array([[2.0, 2.0]])
    neg = np.array([[9.0, 9.0]])
    hyper = HyperParams(alpha=0.0, beta=0.0)
    assert batch_loss_from_embeddings(prev, mid, nxt, neg, hyper).total == 0.0


def test_batch_loss_matches_hand_sum():
    # Two samples with hand-set 2-dim embeddings, summed by hand through
    # the definitions rather than the implementation.
    prev = np.array([[0.0, 0.0], [1.0, 0.0]])
    mid = np.array([[1.0, 0.0], [3.0, 0.0]])
    nxt = np.array([[2.0, 0.0], [4.0, 0.0]])
    neg = np.array([[0.0, 3.0], [1.0, 1.0]])
    alpha, beta, margin = 0.5, 2.0, 1.0

    expected_interp = 0.0 + abs(3.0 - 2.5)
    expected_pairs = (1 + 1 + 2) + (2 + 1 + 3)
    expected_l1 = expected_interp + alpha * expected_pairs
    # Sample 0 hinge: d(prev,next)=2, d(prev,neg)=3 -> clamped at 0.
    # Sample 1 hinge: d(prev,next)=3, d(prev,neg)=1 -> 3 - 1 + 1 = 3.
    expected_l2 = max(0.0, 2.0 - 3.0 + margin) + max(0.0, 3.0 - 1.0 + margin)
    expected_total = expected_l1 + beta * expected_l2

    hyper = HyperParams(alpha=alpha, beta=beta, margin=margin)
    breakdown = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper)
    assert breakdown.interp_term == pytest.approx(expected_interp)
    assert breakdown.pair_term == pytest.approx(expected_pairs)
    assert breakdown.l1 == pytest.approx(expected_l1)
    assert breakdown.l2 == pytest.approx(expected_l2)
    assert breakdown.total == pytest.approx(expected_total)


def test_total_monotone_in_beta(rng):
    prev, mid, nxt, neg = (rng.normal(size=(3, 5)) for _ in range(4))
    betas = [0.0, 0.5, 1.0, 5.0, 50.0]
    totals = [
        batch_loss_from_embeddings(prev, mid, nxt, neg, HyperParams(alpha=0.5, beta=b)).total
        for b in betas
    ]
    assert totals == sorted(totals)


def test_loss_terms_nonnegative(rng):
    for _ in range(20):
        prev, mid, nxt, neg = (rng.normal(size=(2, 7)) for _ in range(4))
        breakdown = batch_loss_from_embeddings(prev, mid, nxt, neg, HyperParams())
        assert breakdown.l1 >= 0.0
        assert breakdown.l2 >= 0.0


def loop_loss_and_gradients(prev, mid, nxt, neg, hyper, loss_mask):
    """Per-sample reference: the loss and its embedding gradients summed
    sample by sample through the scalar definitions."""
    interp_term = pair_term = l2 = 0.0
    grads = [np.zeros_like(prev) for _ in range(4)]
    for k in range(prev.shape[0]):
        p, m, n, q = prev[k], mid[k], nxt[k], neg[k]
        _, (interp, pairs) = interpolation_loss(p, m, n, hyper.alpha)
        interp_term += interp
        pair_term += pairs
        l2 += triplet_loss(p, n, q, hyper.margin)
        d_prev, d_mid, d_next, d_neg = (g[k] for g in grads)
        if loss_mask[0]:
            g_mid = euclidean_grad(m, (p + n) / 2.0)
            d_mid += g_mid
            d_prev += -0.5 * g_mid
            d_next += -0.5 * g_mid
            a = hyper.alpha
            d_prev += a * (euclidean_grad(p, m) + euclidean_grad(p, n))
            d_mid += a * (euclidean_grad(m, p) + euclidean_grad(m, n))
            d_next += a * (euclidean_grad(n, m) + euclidean_grad(n, p))
        if loss_mask[1] and euclidean(p, n) - euclidean(p, q) + hyper.margin > 0.0:
            b = hyper.beta
            d_prev += b * (euclidean_grad(p, n) - euclidean_grad(p, q))
            d_next += b * euclidean_grad(n, p)
            d_neg += -b * euclidean_grad(q, p)
    l1 = interp_term + hyper.alpha * pair_term
    total = (l1 if loss_mask[0] else 0.0) + (hyper.beta * l2 if loss_mask[1] else 0.0)
    return (interp_term, pair_term, l1, l2, total), grads


def test_vectorized_loss_matches_per_sample_loop(rng):
    b = 64
    prev, mid, nxt, neg = (rng.normal(size=(b, 540)) for _ in range(4))
    # Coincident points, where the zero subgradient is taken.
    mid[0] = prev[0]
    nxt[1] = prev[1]
    mid[2] = (prev[2] + nxt[2]) / 2.0
    neg[3] = prev[3]
    prev[4] = mid[4] = nxt[4] = neg[4]
    # An inactive hinge: the negative far beyond the margin.
    neg[5] = prev[5] + 100.0
    hyper = HyperParams(alpha=0.5, beta=10.0, margin=1.0)
    saw_inactive = False
    for loss_mask in ((True, True), (True, False), (False, True)):
        ref_terms, ref_grads = loop_loss_and_gradients(prev, mid, nxt, neg, hyper, loss_mask)
        breakdown = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper, loss_mask)
        terms = (breakdown.interp_term, breakdown.pair_term, breakdown.l1, breakdown.l2,
                 breakdown.total)
        # Tolerance fixed in advance: only the order of float64 sums differs.
        for value, ref in zip(terms, ref_terms):
            assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
        grads = loss_gradients_wrt_embeddings(prev, mid, nxt, neg, hyper, loss_mask)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
        if loss_mask[1]:
            saw_inactive = not grads[3][5].any()
    assert saw_inactive
    # At coincident points the unit vector is the zero subgradient.
    g_prev, g_mid, g_next, g_neg = loss_gradients_wrt_embeddings(
        prev[4:5], mid[4:5], nxt[4:5], neg[4:5], hyper, (True, True)
    )
    assert not g_prev.any() and not g_mid.any() and not g_next.any() and not g_neg.any()


def test_euclidean_grad_identity(rng):
    for _ in range(10):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        d = euclidean(x, y)
        assert np.allclose(euclidean_grad(x, y), (x - y) / d)
    assert not euclidean_grad(x, x).any()


def test_zero_upstream_loss_gives_zero_gradients(rng, base_config):
    # Collinear triple with alpha=0 and an inactive hinge: every embedding
    # gradient vanishes, so every parameter gradient vanishes.
    prev = np.array([[0.0, 0.0]])
    mid = np.array([[1.0, 1.0]])
    nxt = np.array([[2.0, 2.0]])
    neg = np.array([[50.0, 50.0]])
    hyper = HyperParams(alpha=0.0, beta=1.0)
    grads = loss_gradients_wrt_embeddings(prev, mid, nxt, neg, hyper)
    for g in grads:
        assert not g.any()

    params = init_params(0, base_config)
    rule_ids = rng.integers(-1, 60, size=(4, 16))
    sems = rng.normal(size=(4, 25, 17))
    _, trace = forward_batch(rule_ids, sems, params, train=True,
                             dropout_rng=np.random.default_rng(0),
                             update_running_stats=False)
    assert not backward_batch(trace, np.zeros((4, 540)), params).any()


def test_backward_into_a_used_vector_equals_a_fresh_one(base_config):
    # train reuses one gradient vector; every slot must be rewritten each step.
    for variant in ABLATION_VARIANTS:
        config, _ = variant_switches(variant, base_config)
        params = init_params(0, config)
        rule_ids, sems = _gradcheck_batch(0, config)
        _, trace = forward_batch(rule_ids, sems, params, train=True,
                                 dropout_rng=np.random.default_rng(0),
                                 update_running_stats=False)
        d_out = np.random.default_rng(1).normal(size=(len(rule_ids), config.embedding_dim))
        out = np.full(trainable_count(config), np.nan)
        fresh = backward_batch(trace, d_out, params)
        assert backward_batch(trace, d_out, params, out=out) is out
        assert out.tobytes() == fresh.tobytes(), variant


def test_gradients_and_adam_cover_the_trainable_prefix(base_config):
    # Gradients and Adam's moments hold the trainable arrays alone; the
    # running statistics (2 x (30 + 15 + 8) values) follow them in the
    # parameter vector, and an Adam step leaves them bit-unchanged.
    assert (param_count(base_config), trainable_count(base_config)) == (598_622, 598_516)
    for variant in ABLATION_VARIANTS:
        config, _ = variant_switches(variant, base_config)
        params = init_params(0, config)
        n = trainable_count(config)
        assert n == param_count(config) - 2 * sum(config.conv_channels[1:])
        assert params.trainable.size == n and np.shares_memory(params.trainable, params.values)
        rule_ids, sems = _gradcheck_batch(0, config)
        _, trace = forward_batch(rule_ids, sems, params, train=True,
                                 dropout_rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        grad = backward_batch(trace, rng.normal(size=(len(rule_ids), config.embedding_dim)), params)
        assert grad.shape == (n,), variant
        assert list(param_views(config, grad)) == [name for name, _ in trainable_items(params)]
        state = init_adam(params)
        assert state.m.shape == state.v.shape == (n,)
        tail = params.values[n:].copy()
        assert tail.tobytes() != init_params(0, config).values[n:].tobytes()  # the forward moved it
        before = params.trainable.copy()
        adam_step(params, grad, state, 0.01)
        assert params.values[n:].tobytes() == tail.tobytes(), variant
        assert (params.trainable != before).any(), variant
        with pytest.raises(ValueError, match="trainable prefix"):
            adam_step(params, np.zeros(param_count(config)), state, 0.01)


def test_grad_check_passes(base_config):
    params = init_params(0, base_config)
    batch = _gradcheck_batch(0, base_config)
    assert batch[0].shape == (12, 16)  # three samples, so batch norm couples them
    assert np.abs(batch[1]).sum(axis=(1, 2)).all()  # every chart has words
    error = grad_check(batch, params, HyperParams(), epsilon=1e-5, n_coords=200, seed=0)
    assert error < 1e-4


def test_grad_check_every_ablation_variant(base_config):
    for variant in ABLATION_VARIANTS:
        config, loss_mask = variant_switches(variant, base_config)
        params = init_params(0, config)
        error = grad_check(_gradcheck_batch(0, config), params, HyperParams(),
                           epsilon=1e-5, n_coords=200, seed=0, loss_mask=loss_mask)
        assert error < 1e-4, variant


def test_grad_check_detects_injected_fault(base_config):
    params = init_params(0, base_config)
    batch = _gradcheck_batch(0, base_config)
    error = grad_check(batch, params, HyperParams(), epsilon=1e-5, n_coords=200,
                       seed=0, corrupt=True)
    assert error > 1e-2


def test_grad_check_epsilon_window(base_config):
    params = init_params(0, base_config)
    batch = _gradcheck_batch(0, base_config)
    good = grad_check(batch, params, HyperParams(), epsilon=1e-5, n_coords=40, seed=1)
    coarse = grad_check(batch, params, HyperParams(), epsilon=1e-2, n_coords=40, seed=1)
    tiny = grad_check(batch, params, HyperParams(), epsilon=1e-10, n_coords=40, seed=1)
    assert good < 1e-4
    assert coarse > good
    assert tiny > good


@pytest.mark.parametrize("name", ["alpha", "beta", "margin", "learning_rate"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hyper_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HyperParams(**{name: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("learning_rate", 0.0, "learning_rate must be > 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("epochs", -1, "epochs must be >= 0"),
    ],
)
def test_hyper_params_name_the_bad_optimizer_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HyperParams(**{field: value})


def test_adam_constant_gradient_step_size(base_config):
    params = init_params(0, base_config)
    state = init_adam(params)
    grads = np.full_like(params.trainable, 0.37)
    lr = 0.01
    probe = params.views["fc2.bias"]
    previous = probe.copy()
    deltas = []
    for _ in range(1000):
        adam_step(params, grads, state, lr)
        deltas.append(float((probe - previous).mean()))
        previous = probe.copy()
    # Late steps approach -lr * sign(g).
    assert deltas[-1] == pytest.approx(-lr, rel=1e-3)
    assert state.step == 1000


def test_adam_zero_gradient_keeps_params(base_config):
    params = init_params(0, base_config)
    before = copy_params(params)
    state = init_adam(params)
    zeros = np.zeros_like(params.trainable)
    adam_step(params, zeros, state, 0.01)
    assert params_equal(params, before)
    assert state.step == 1
    # Pre-loaded moments decay toward zero under zero gradients.
    state.m[:] = 0.5
    adam_step(params, zeros, state, 0.0)  # lr 0: observe the decay alone
    assert np.allclose(state.m, 0.45)


def per_array_adam(arrays, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over a dict of arrays, one update per array: the reference for
    the update of the whole parameter vector."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for name, arr in arrays.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        arr -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def test_adam_step_matches_per_array_reference(rng, base_config):
    # The default trainable prefix spans many blocks and ends in a partial
    # one; the no-fc prefix is shorter than one block.
    full, _ = variant_switches("full", base_config)
    no_fc, _ = variant_switches("no-fc", base_config)
    assert trainable_count(full) > 2 * _ADAM_BLOCK and trainable_count(full) % _ADAM_BLOCK
    assert trainable_count(no_fc) < _ADAM_BLOCK
    for config in (full, no_fc):
        params = init_params(0, config)
        for name, view in params.views.items():
            if ".running_" in name:  # off their init values, so any change shows
                view[...] = rng.normal(size=view.shape)
        stats = {n: view.copy() for n, view in params.views.items() if ".running_" in n}
        arrays = {name: arr.copy() for name, arr in trainable_items(params)}
        m = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        v = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        state = init_adam(params)
        for step in range(1, 6):
            grad = np.zeros_like(params.trainable)
            grads = param_views(params.config, grad)
            for name in arrays:  # gradients over many magnitudes
                grads[name][...] = rng.normal(size=grads[name].shape) * 10.0 ** rng.integers(-8, 3)
            adam_step(params, grad, state, 0.01)
            per_array_adam(arrays, grads, m, v, step, 0.01)
        state_m = param_views(params.config, state.m)
        state_v = param_views(params.config, state.v)
        for name, arr in arrays.items():
            assert params.views[name].tobytes() == arr.tobytes(), name
            assert state_m[name].tobytes() == m[name].tobytes(), name
            assert state_v[name].tobytes() == v[name].tobytes(), name
        assert list(state_m) == list(arrays)
        for name, before in stats.items():
            assert params.views[name].tobytes() == before.tobytes(), name


def test_adam_deterministic(base_config):
    runs = []
    for _ in range(2):
        params = init_params(0, base_config)
        state = init_adam(params)
        rng = np.random.default_rng(5)
        for _ in range(3):
            adam_step(params, rng.normal(size=params.trainable.shape), state, 0.01)
        runs.append(params)
    assert params_equal(runs[0], runs[1])


def test_combined_loss_empty_batch_rejected(base_config):
    with pytest.raises(ValueError, match="empty"):
        combined_loss(np.zeros((0, 16), dtype=int), np.zeros((0, 25, 17)),
                      init_params(0, base_config), HyperParams())


def test_train_bitwise_reproducible(fixture_corpus, store, base_config):
    hyper = HyperParams(epochs=3, seed=7)
    outs = []
    for _ in range(2):
        samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 7, base_config)
        params, history = train(samples, hyper, init_params(7, base_config))
        outs.append((params, history))
    assert params_equal(outs[0][0], outs[1][0])
    for a, b in zip(outs[0][1], outs[1][1]):
        assert a.total == b.total


def test_train_overfits_fixture_corpus(fixture_corpus, store, base_config):
    # Overfitting sanity run: 200 epochs on the bundled corpus must crush
    # the loss to under 10% of its first-epoch value.
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    params, history = train(samples, HyperParams(epochs=200, seed=0),
                            init_params(0, base_config))
    assert history[-1].total < 0.10 * history[0].total


def test_train_divergence_raises(fixture_corpus, store, base_config):
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    params = init_params(0, base_config)
    params.views["fc2.weight"][...] *= 1e200  # finite but explosive
    with pytest.raises(TrainingDivergedError):
        train(samples, HyperParams(epochs=1), params)


def test_train_empty_sample_set_rejected(fixture_corpus, store, base_config):
    samples = build_samples(fixture_corpus, store, 1, "same-dataset-first", 0, base_config)
    empty = SampleSet(samples.encoded, samples.quads[:0])
    with pytest.raises(ValueError, match="empty"):
        train(empty, HyperParams(epochs=1))


def test_history_csv_layout():
    from chartembed.learning import EpochStats

    text = history_csv([EpochStats(1, 1.0, 2.0, 2.0, 3.0, 5.0, 12.5)])
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,interp_term,pair_term,l1,l2,total,wall_ms"
    assert lines[1].startswith("1,1,2,2,3,5,")


def test_loss_mask_routing(rng):
    prev, mid, nxt, neg = (rng.normal(size=(2, 6)) for _ in range(4))
    hyper = HyperParams(alpha=0.5, beta=2.0)
    both = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper, (True, True))
    only_l1 = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper, (True, False))
    only_l2 = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper, (False, True))
    assert only_l1.total == pytest.approx(both.l1)
    assert only_l2.total == pytest.approx(hyper.beta * both.l2)
    assert both.total == pytest.approx(only_l1.total + only_l2.total)

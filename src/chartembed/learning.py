"""Losses, gradients, and the training loop.

Each training sample is four rows of an encoded corpus: three consecutive
charts of one multi-view visualization plus one chart drawn from a different
one. All four pass through the encoder with shared parameters. Two
objectives are combined: an interpolation loss that pulls the middle chart
toward the midpoint of its neighbours (plus an alpha-weighted contraction of
the three pairwise distances), and a margin hinge that keeps the outer pair
closer to each other than the first chart is to the negative. Gradients are
exact and hand-derived; parameters update with Adam.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import SampleSet
from .encoder import (
    EncoderConfig,
    EncoderParams,
    backward_batch,
    forward_batch,
    init_params,
    param_views,
    trainable_items,
)

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite."""


@dataclass(frozen=True)
class HyperParams:
    # beta balances the two objectives; the interpolation part runs roughly
    # 30x the hinge part at initialization, and beta ~ 10 keeps the hinge
    # strong enough that embeddings cannot collapse to a single point.
    alpha: float = 0.5
    beta: float = 10.0
    margin: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 10
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "margin", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class LossBreakdown:
    interp_term: float
    pair_term: float
    l1: float
    l2: float
    total: float


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64) - y))


def euclidean_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d distance / d x; zero at coincident points (subgradient choice)."""
    diff = np.asarray(x, dtype=np.float64) - y
    dist = np.linalg.norm(diff)
    if dist == 0.0:
        return np.zeros_like(diff)
    return diff / dist


def interpolation_loss(
    x_prev: np.ndarray, x_mid: np.ndarray, x_next: np.ndarray, alpha: float
) -> tuple[float, tuple[float, float]]:
    """Midpoint distance plus alpha times the three pairwise distances.

    Returns (value, (midpoint_term, pair_sum)).
    """
    midpoint = (np.asarray(x_prev, dtype=np.float64) + x_next) / 2.0
    interp = euclidean(x_mid, midpoint)
    pairs = (
        euclidean(x_prev, x_mid) + euclidean(x_mid, x_next) + euclidean(x_prev, x_next)
    )
    return interp + alpha * pairs, (interp, pairs)


def triplet_loss(
    anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray, margin: float
) -> float:
    """Hinge on d(anchor, positive) - d(anchor, negative) + margin."""
    return max(0.0, euclidean(anchor, positive) - euclidean(anchor, negative) + margin)


def _row_distances(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _row_units(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of diff, and its rows scaled to unit length; a zero-length
    row stays zero (the subgradient chosen at coincident points)."""
    dist = _row_distances(diff)
    inverse = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0.0)
    return diff * inverse[:, None], dist


def batch_loss_from_embeddings(
    prev: np.ndarray,
    mid: np.ndarray,
    nxt: np.ndarray,
    neg: np.ndarray,
    hyper: HyperParams,
    loss_mask: tuple[bool, bool] = (True, True),
) -> LossBreakdown:
    """Sum the combined objective over a batch of embedding quadruples."""
    interp = _row_distances(mid - (prev + nxt) / 2.0)
    d_prev_next = _row_distances(prev - nxt)
    pairs = _row_distances(prev - mid) + _row_distances(mid - nxt) + d_prev_next
    hinge = np.maximum(d_prev_next - _row_distances(prev - neg) + hyper.margin, 0.0)
    interp_term = float(interp.sum())
    pair_term = float(pairs.sum())
    l2 = float(hinge.sum())
    l1 = interp_term + hyper.alpha * pair_term
    total = (l1 if loss_mask[0] else 0.0) + (hyper.beta * l2 if loss_mask[1] else 0.0)
    return LossBreakdown(interp_term=interp_term, pair_term=pair_term, l1=l1, l2=l2, total=total)


def loss_gradients_wrt_embeddings(
    prev: np.ndarray,
    mid: np.ndarray,
    nxt: np.ndarray,
    neg: np.ndarray,
    hyper: HyperParams,
    loss_mask: tuple[bool, bool] = (True, True),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """d(total)/d(embedding) for each of the four blocks."""
    # u_a_b is d|a - b|/da, the unit vector from b towards a.
    d_prev = np.zeros_like(prev)
    d_mid = np.zeros_like(mid)
    d_next = np.zeros_like(nxt)
    d_neg = np.zeros_like(neg)
    u_prev_next, dist_prev_next = _row_units(prev - nxt)
    if loss_mask[0]:
        a = hyper.alpha
        g_mid, _ = _row_units(mid - (prev + nxt) / 2.0)
        u_prev_mid, _ = _row_units(prev - mid)
        u_mid_next, _ = _row_units(mid - nxt)
        d_prev += a * (u_prev_mid + u_prev_next) - 0.5 * g_mid
        d_mid += g_mid + a * (u_mid_next - u_prev_mid)
        d_next -= 0.5 * g_mid + a * (u_mid_next + u_prev_next)
    if loss_mask[1]:
        u_prev_neg, dist_prev_neg = _row_units(prev - neg)
        active = dist_prev_next - dist_prev_neg + hyper.margin > 0.0
        b = hyper.beta * active[:, None]
        d_prev += b * (u_prev_next - u_prev_neg)
        d_next -= b * u_prev_next
        d_neg += b * u_prev_neg
    return d_prev, d_mid, d_next, d_neg


def combined_loss(
    rule_ids: np.ndarray,
    sem_blocks: np.ndarray,
    params: EncoderParams,
    hyper: HyperParams,
    train: bool = True,
    dropout_rng: Optional[np.random.Generator] = None,
    update_running_stats: bool = True,
    loss_mask: tuple[bool, bool] = (True, True),
):
    """One shared-parameter forward over all four charts of every sample.

    The batch rows hold four equal blocks: every sample's prev chart, then
    its mid, next and negative charts (see SampleSet.batch). Returns (total,
    LossBreakdown, trace, embeddings); trace is None outside train mode.
    Raises TrainingDivergedError on a non-finite loss.
    """
    if len(rule_ids) == 0:
        raise ValueError("empty batch")
    # An overflow shows up as the non-finite loss reported below.
    with np.errstate(all="ignore"):
        out, trace = forward_batch(
            rule_ids,
            sem_blocks,
            params,
            train=train,
            dropout_rng=dropout_rng,
            update_running_stats=update_running_stats,
        )
        prev, mid, nxt, neg = np.split(out, 4)
        breakdown = batch_loss_from_embeddings(prev, mid, nxt, neg, hyper, loss_mask)
    if not np.isfinite(breakdown.total):
        raise TrainingDivergedError(
            f"non-finite loss (l1={breakdown.l1}, l2={breakdown.l2})"
        )
    return breakdown.total, breakdown, trace, out


def backward(
    trace,
    embeddings: np.ndarray,
    params: EncoderParams,
    hyper: HyperParams,
    loss_mask: tuple[bool, bool] = (True, True),
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the combined loss, laid out like params.trainable (in `out` if given)."""
    n = embeddings.shape[0]
    if n % 4 != 0 or trace.batch_size != n:
        raise ValueError("trace/embedding mismatch: expected four blocks per sample")
    b = n // 4
    d_prev, d_mid, d_next, d_neg = loss_gradients_wrt_embeddings(
        embeddings[:b], embeddings[b : 2 * b], embeddings[2 * b : 3 * b], embeddings[3 * b :],
        hyper, loss_mask,
    )
    d_out = np.concatenate([d_prev, d_mid, d_next, d_neg], axis=0)
    return backward_batch(trace, d_out, params, out)


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the trainable prefix."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: EncoderParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.trainable), v=np.zeros_like(params.trainable))


# Adam walks the trainable prefix in blocks of this many values, so that the
# block's parameters, moments, gradient and two temporaries stay in L2 cache
# across the dozen passes of the update.
_ADAM_BLOCK = 16384


def adam_step(
    params: EncoderParams,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[EncoderParams, AdamState]:
    """Standard bias-corrected Adam update of the trainable prefix (in
    place; returned for chaining)."""
    if grad.shape != params.trainable.shape:
        raise ValueError(
            f"gradient has shape {grad.shape}, the trainable prefix {params.trainable.shape}"
        )
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    size = min(_ADAM_BLOCK, len(grad))
    update_block, denom_block = np.empty(size), np.empty(size)
    for lo in range(0, len(grad), _ADAM_BLOCK):
        g = grad[lo : lo + _ADAM_BLOCK]
        m = state.m[lo : lo + _ADAM_BLOCK]
        v = state.v[lo : lo + _ADAM_BLOCK]
        update, denom = update_block[: len(g)], denom_block[: len(g)]
        # Each value rounds as in m += (1 - beta1) * g; v += (1 - beta2) * g * g;
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
        np.multiply(1.0 - state.beta1, g, out=update)
        m *= state.beta1
        m += update
        np.multiply(1.0 - state.beta2, g, out=update)
        update *= g
        v *= state.beta2
        v += update
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bc1, out=update)
        update *= lr
        update /= denom
        params.trainable[lo : lo + _ADAM_BLOCK] -= update
    return params, state


def grad_check(
    batch: tuple[np.ndarray, np.ndarray],
    params: EncoderParams,
    hyper: HyperParams,
    epsilon: float = 1e-5,
    n_coords: int = 200,
    seed: int = 0,
    corrupt: bool = False,
    loss_mask: tuple[bool, bool] = (True, True),
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    `batch` is (rule ids, semantic blocks) in combined_loss's four-block
    layout; with several samples it covers the cross-sample batch-norm
    terms. Runs with dropout disabled and batch-statistics normalization
    (running statistics frozen), over n_coords seeded parameter coordinates
    spread evenly across the trainable arrays, so that the small conv
    weight, gamma and beta arrays are checked as well as the large fc
    weights. A conv coordinate moves every activation of the batch, so its
    probes can straddle a ReLU or hinge kink; such a coordinate is probed
    again with a smaller step, and skipped when the kink is at the point
    itself. loss_mask selects the loss terms as in training. The corrupt
    flag deliberately perturbs one conv gradient to prove the check can
    fail.
    """
    if n_coords < 1:
        raise ValueError("gradient check needs at least one coordinate")
    hyper_nd = replace(hyper, dropout=0.0)
    work = EncoderParams(replace(params.config, dropout=0.0), params.values.copy())

    def run():
        return combined_loss(
            *batch, work, hyper_nd, train=True, update_running_stats=False, loss_mask=loss_mask
        )

    def kink_sides(trace, emb) -> np.ndarray:
        """The side of every ReLU kink, and of the hinge kink unless the
        hinge is masked, that the batch sits on."""
        sides = list(trace.conv_relu_mask)
        if loss_mask[1]:
            prev, _, nxt, neg = np.split(emb, 4)
            sides.append(
                _row_distances(prev - nxt) - _row_distances(prev - neg) + hyper.margin > 0.0
            )
        if trace.fc1_gate is not None:
            sides.append(trace.fc1_gate > 0)
        return np.concatenate([side.ravel() for side in sides])

    def probe(arr, idx, value):
        arr[idx] = value
        total, _, trace, emb = run()
        return total, kink_sides(trace, emb)

    _, _, trace, emb = run()
    grads = param_views(work.config, backward(trace, emb, work, hyper_nd, loss_mask))
    if corrupt:
        grads["conv1.weight"][...] = grads["conv1.weight"] * 1.05 + 0.01

    items = trainable_items(work)
    sizes = [arr.size for _, arr in items]
    # Equal shares, smallest array first; an array smaller than its share
    # passes the rest on to the larger ones.
    quota = [0] * len(items)
    left = min(n_coords, sum(sizes))
    order = sorted(range(len(items)), key=sizes.__getitem__)
    for rank, layer in enumerate(order):
        quota[layer] = min(sizes[layer], left // (len(order) - rank))
        left -= quota[layer]
    rng = np.random.default_rng(seed)

    worst = 0.0
    checked = 0
    for layer, count in enumerate(quota):
        name, arr = items[layer]
        for local in rng.choice(arr.size, size=count, replace=False):
            idx = np.unravel_index(local, arr.shape)
            original = arr[idx]
            # Two probes on different sides of a kink measure no derivative:
            # shrink the step, and skip a coordinate that still straddles a
            # kink at epsilon / 1000 (a kink at the point itself).
            for step in epsilon / 10.0 ** np.arange(4):
                plus, plus_sides = probe(arr, idx, original + step)
                minus, minus_sides = probe(arr, idx, original - step)
                straddles = not np.array_equal(plus_sides, minus_sides)
                if not straddles:
                    break
            arr[idx] = original
            if straddles:
                continue

            numeric = (plus - minus) / (2.0 * step)
            analytic = grads[name][idx]
            scale = max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, abs(numeric - analytic) / scale)
            checked += 1
    if checked == 0:
        raise ValueError("gradient check: every chosen coordinate sits on a kink")
    return worst


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    interp_term: float
    pair_term: float
    l1: float
    l2: float
    total: float
    wall_ms: float


def train(
    samples: SampleSet,
    hyper: HyperParams,
    params: Optional[EncoderParams] = None,
    loss_mask: tuple[bool, bool] = (True, True),
) -> tuple[EncoderParams, list[EpochStats]]:
    """Run the full training loop; bitwise reproducible for a fixed seed.

    Initial parameters default to init_params(hyper.seed). Shuffling and
    dropout randomness both derive from hyper.seed.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample set")
    if params is None:
        params = init_params(hyper.seed, EncoderConfig(dropout=hyper.dropout))
    shuffle_seq, dropout_seq = np.random.SeedSequence(hyper.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    adam = init_adam(params)
    grad = np.zeros_like(params.trainable)  # one gradient vector, rewritten every step

    history: list[EpochStats] = []
    for epoch in range(hyper.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        sums = np.zeros(4)  # interp, pair, l1, l2
        total = 0.0
        for lo in range(0, n, hyper.batch_size):
            rule_ids, sems = samples.batch(order[lo : lo + hyper.batch_size])
            _, breakdown, trace, emb = combined_loss(
                rule_ids, sems, params, hyper, train=True, dropout_rng=dropout_rng,
                loss_mask=loss_mask,
            )
            backward(trace, emb, params, hyper, loss_mask, out=grad)
            adam_step(params, grad, adam, hyper.learning_rate)
            sums += (breakdown.interp_term, breakdown.pair_term, breakdown.l1, breakdown.l2)
            total += breakdown.total
        wall_ms = (time.perf_counter() - started) * 1000.0
        history.append(
            EpochStats(
                epoch=epoch + 1,
                interp_term=sums[0],
                pair_term=sums[1],
                l1=sums[2],
                l2=sums[3],
                total=total,
                wall_ms=wall_ms,
            )
        )
        log.info(
            "epoch %d/%d total=%.6f l1=%.6f l2=%.6f (%.0f ms)",
            epoch + 1, hyper.epochs, total, sums[2], sums[3], wall_ms,
        )
    return params, history


def history_csv(history: Sequence[EpochStats]) -> str:
    """Training history in CSV form."""
    lines = ["epoch,interp_term,pair_term,l1,l2,total,wall_ms"]
    for row in history:
        lines.append(
            f"{row.epoch},{row.interp_term:.17g},{row.pair_term:.17g},"
            f"{row.l1:.17g},{row.l2:.17g},{row.total:.17g},{row.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import SAMPLING_RULES, SampleSet
from .encoder import (DROPOUT_RULE, EncoderParams, ForwardTrace, backward_batch, check_setting,
                      forward_batch, param_views, trainable_items)

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite."""


HYPER_RULES = {
    "alpha": (float, ">= 0", lambda v: v >= 0),
    "beta": (float, ">= 0", lambda v: v >= 0),
    "margin": (float, "> 0", lambda v: v > 0),
    "learning_rate": (float, "> 0", lambda v: v > 0),
    "batch_size": (int, ">= 1", lambda v: v >= 1),
    "epochs": (int, ">= 0", lambda v: v >= 0),
    "dropout": DROPOUT_RULE,
    "seed": SAMPLING_RULES["seed"],
}


@dataclass(frozen=True)
class HyperParams:
    # beta balances the two objectives; the interpolation part runs roughly
    # 30x the hinge part at initialization. beta 10 does not stop collapse:
    # 4 epochs on a random_fact corpus left 2 of 240 held-out embeddings
    # distinct, and at beta 1 a walk-3 corpus collapsed to one point.
    alpha: float = 0.5
    beta: float = 10.0
    margin: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 10
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, rule in HYPER_RULES.items():
            check_setting(name, getattr(self, name), rule, ValueError)


@dataclass(frozen=True)
class LossBreakdown:
    interp_term: float
    pair_term: float
    l1: float
    l2: float
    total: float


def _row_units(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of diff scaled to unit length, and their norms; a zero-length
    row stays zero (the subgradient chosen at coincident points)."""
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    inverse = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0.0)
    return diff * inverse[:, None], dist


def objective(
    embeddings: np.ndarray,
    hyper: HyperParams,
    loss_mask: tuple[bool, bool] = (True, True),
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """The combined objective over a batch of embedding quadruples.

    `embeddings` holds four equal blocks of rows: every sample's prev chart,
    then its mid, next and negative charts. Returns the loss terms summed
    over the batch, d(total)/d(embeddings) in the same layout, and whether
    each sample's hinge is active. loss_mask selects the terms of the total
    and of the gradient.
    """
    if len(embeddings) % 4:
        raise ValueError(f"objective needs four equal blocks of rows, got {len(embeddings)} rows")
    prev, mid, nxt, neg = np.split(embeddings, 4)
    # u_a_b is d|a - b|/da, the unit vector from b towards a; d_ab is |a - b|
    # for a, b among p(rev), m(id), n(ext) and the negative q.
    g_mid, interp = _row_units(mid - (prev + nxt) / 2.0)
    u_prev_mid, d_pm = _row_units(prev - mid)
    u_mid_next, d_mn = _row_units(mid - nxt)
    u_prev_next, d_pn = _row_units(prev - nxt)
    u_prev_neg, d_pq = _row_units(prev - neg)
    pairs = d_pm + d_mn + d_pn
    slack = d_pn - d_pq + hyper.margin
    interp_term = float(interp.sum())
    pair_term = float(pairs.sum())
    l2 = float(np.maximum(slack, 0.0).sum())
    l1 = interp_term + hyper.alpha * pair_term
    total = (l1 if loss_mask[0] else 0.0) + (hyper.beta * l2 if loss_mask[1] else 0.0)
    breakdown = LossBreakdown(interp_term=interp_term, pair_term=pair_term, l1=l1, l2=l2, total=total)

    gradient = np.zeros_like(embeddings)
    d_prev, d_mid, d_next, d_neg = np.split(gradient, 4)
    active = slack > 0.0
    if loss_mask[0]:
        a = hyper.alpha
        d_prev += a * (u_prev_mid + u_prev_next) - 0.5 * g_mid
        d_mid += g_mid + a * (u_mid_next - u_prev_mid)
        d_next -= 0.5 * g_mid + a * (u_mid_next + u_prev_next)
    if loss_mask[1]:
        b = hyper.beta * active[:, None]
        d_prev += b * (u_prev_next - u_prev_neg)
        d_next -= b * u_prev_next
        d_neg += b * u_prev_neg
    return breakdown, gradient, active


def combined_loss(
    rule_ids: np.ndarray,
    sem_blocks: np.ndarray,
    params: EncoderParams,
    hyper: HyperParams,
    dropout_rng: np.random.Generator,
    loss_mask: tuple[bool, bool] = (True, True),
    trace: Optional[ForwardTrace] = None,
):
    """One shared-parameter train-mode forward over all four charts of
    every sample, and the objective on its output.

    The batch rows hold four equal blocks: every sample's prev chart, then
    its mid, next and negative charts (see SampleSet.batch). dropout_rng
    draws the dropout mask. Returns (LossBreakdown, trace, gradient, active)
    as objective does; backward_batch(trace, gradient, params) gives the
    parameter gradient. A given `trace`, the previous step's, is overwritten
    with this one (see forward_batch). Raises TrainingDivergedError on a
    non-finite loss.
    """
    if len(rule_ids) == 0:
        raise ValueError("empty batch")
    # An overflow shows up as the non-finite loss reported below.
    with np.errstate(all="ignore"):
        # train by keyword: perfbench names the forward's span from it
        out, trace = forward_batch(rule_ids, sem_blocks, params, train=True,
                                   dropout_rng=dropout_rng, trace=trace)
        breakdown, gradient, active = objective(out, hyper, loss_mask)
    if not np.isfinite(breakdown.total):
        raise TrainingDivergedError(f"non-finite loss (l1={breakdown.l1}, l2={breakdown.l2})")
    return breakdown, trace, gradient, active


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the trainable prefix."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


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
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    size = min(_ADAM_BLOCK, len(grad))
    update_block, denom_block = np.empty(size), np.empty(size)
    for lo in range(0, len(grad), _ADAM_BLOCK):
        g = grad[lo : lo + _ADAM_BLOCK]
        m = state.m[lo : lo + _ADAM_BLOCK]
        v = state.v[lo : lo + _ADAM_BLOCK]
        update, denom = update_block[: len(g)], denom_block[: len(g)]
        # Each value rounds as in m += (1 - beta1) * g; v += (1 - beta2) * g * g;
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
        np.multiply(1.0 - ADAM_BETA1, g, out=update)
        m *= ADAM_BETA1
        m += update
        np.multiply(1.0 - ADAM_BETA2, g, out=update)
        update *= g
        v *= ADAM_BETA2
        v += update
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
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
    terms. Runs on a copy of params, whose running statistics every probe
    restores, with the config's dropout: every forward draws the one mask
    from a fresh generator seeded with `seed`. Checks n_coords seeded
    coordinates spread evenly across the trainable arrays, so that the
    small conv weight, gamma and beta arrays are checked as well as the
    large fc weights. A conv coordinate moves every activation of the batch,
    so its probes can straddle a ReLU or hinge kink; such a coordinate is
    probed again with a smaller step, and skipped when the kink is at the
    point itself; a probe whose loss is not finite counts as an infinite
    error. loss_mask selects the loss terms as in training. The corrupt flag
    perturbs one conv gradient to prove the check can fail.
    """
    if n_coords < 1:
        raise ValueError("gradient check needs at least one coordinate")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"gradient check needs a finite epsilon > 0, got {epsilon}")
    work = EncoderParams(params.config, params.values.copy())

    def run():
        return combined_loss(*batch, work, hyper, np.random.default_rng(seed), loss_mask)

    def probe(arr, idx, value):
        """The total at arr[idx] = value, and the side of every ReLU kink,
        and of the hinge kink unless the hinge is masked, that the batch
        sits on; a diverged probe has a NaN total and no sides."""
        arr[idx] = value
        try:
            breakdown, trace, _, active = run()
        except TrainingDivergedError:
            return math.nan, None
        finally:  # an overflowing probe leaves the running statistics non-finite
            work.values[work.trainable.size :] = params.values[work.trainable.size :]
        sides = list(trace.conv_relu_mask)
        if loss_mask[1]:
            sides.append(active)
        if trace.fc1_gate is not None:
            sides.append(trace.fc1_gate > 0)
        return breakdown.total, np.concatenate([side.ravel() for side in sides])

    _, trace, gradient, _ = run()
    grads = param_views(work.config, backward_batch(trace, gradient, work))
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
                straddles = not (plus_sides is None or minus_sides is None
                                 or np.array_equal(plus_sides, minus_sides))
                if not straddles:
                    break
            arr[idx] = original
            if straddles:
                continue

            numeric = (plus - minus) / (2.0 * step)
            analytic = grads[name][idx]
            scale = max(1.0, abs(numeric), abs(analytic))
            error = abs(numeric - analytic) / scale
            # A non-finite gradient is no agreement: count it as infinite.
            worst = max(worst, error if math.isfinite(error) else math.inf)
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
    params: EncoderParams,
    loss_mask: tuple[bool, bool] = (True, True),
) -> tuple[EncoderParams, list[EpochStats]]:
    """Run the full training loop, updating params in place; bitwise
    reproducible for a fixed seed.

    Shuffling and dropout randomness both derive from hyper.seed; the
    dropout rate is params.config's, and hyper.dropout must equal it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample set")
    if hyper.dropout != params.config.dropout:
        raise ValueError(
            f"hyper.dropout {hyper.dropout} differs from params.config.dropout "
            f"{params.config.dropout}, the rate that training uses"
        )
    shuffle_seq, dropout_seq = np.random.SeedSequence(hyper.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    adam = init_adam(params)
    # One gradient vector, every slot rewritten by each backward, and one
    # trace, each forward writing over the last one's arrays.
    grad = np.empty_like(params.trainable)
    trace = None

    history: list[EpochStats] = []
    for epoch in range(hyper.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        sums = np.zeros(4)  # interp, pair, l1, l2
        total = 0.0
        for lo in range(0, n, hyper.batch_size):
            rule_ids, sems = samples.batch(order[lo : lo + hyper.batch_size])
            breakdown, trace, gradient, _ = combined_loss(
                rule_ids, sems, params, hyper, dropout_rng=dropout_rng, loss_mask=loss_mask,
                trace=trace,
            )
            backward_batch(trace, gradient, params, out=grad)
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

"""Parameter fitting by full-batch Adam on the human-matching objective.

The loss is a weighted binary cross-entropy between model predictions
and average human responses, summed over prediction points. Gradients
are computed analytically through the log-sum-exp posterior weights,
the likelihood terms, the temperature, and (for the number domain) the
Platt transform; tests verify them against central finite differences.

Constrained parameters are optimized in an unconstrained space:
epsilon and alpha through a logistic, beta and temperature through exp.
The unconstrained vector layout is

    [theta (D entries), eps_u, alpha_u, beta_u, temp_u, platt_a, platt_b]

Several fits (CV folds and the final fit) run as one Adam loop over an
(F, P) stack of such vectors: they share the compiled tasks and differ
only in the prediction rows their losses count.

`fit_params` compiles, once per fit, everything an epoch reads that the
parameters do not change:

* the tasks, as one `TaskBatch` (`stack_tasks`). Number tasks are
  padded per-task blocks: hypotheses as T·S flat entries, S the
  largest pool, judgments as (T, R) blocks, R the most judgments of one
  set. A shape task compiled its own constants when it was built
  (`ShapeTask`), among them its decay lookup: the lag of every trial
  before every batch as an index into a table of the K decay weights
  with a zero slot for trials not yet past;
* every fit's rows, as one `FitRows` (`fit_rows`): the weight (1 or
  0) of each number row in each fit and its target where the fit
  counts it, and each shape row's targets likewise, chosen with `where`
  so that a target a fit does not count never reaches it.

An epoch is one `loss_and_grad` call on those objects, which converts
none of them, then one in-place `adam_step`. It runs only the work that
depends on the parameter stack. For numbers that is the weights
(`number_weights`: the log-likelihood from one x = g_in / g_out - 1 per
hypothesis, which the gradient in epsilon reads again), one
(F, S) @ (S, R) product per task for the predictions and one
(F, R) @ (R, S) product per task for the gradient in the log-weights,
each reduced over the task's own rows; no array of the fit has an axis
over all judgments and one over the tasks, so memory and time grow
linearly with the number of sets. For a shape curve it reads epsilon,
alpha, beta and T as scalars off the unconstrained vector, as
`_unpack` would, raises the K lags to -beta, and runs `shape_pass`,
whose cross-entropy and derivative come from one call
(`bce_loss_and_slope`). Loss and gradient are checked as one finite
sum, fold by fold only when that sum is not finite. Online evaluation,
inference and the latent-language baseline run the same pass at a
`ModelParams` (`shape_forward`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .likelihood import count_logliks, positive_probs
from .posterior import PROB_CLAMP, expit, logit, softmax_masked
from .types import ModelParams, check_finite_number, check_integer

ALL_PARAM_GROUPS = ("theta", "epsilon", "alpha", "beta", "temperature", "platt")


class NonFinite(ArithmeticError):
    """Loss or gradient left the finite range.

    `folds` are the rows of the parameter stack it happened in and
    `epoch` the Adam epoch, when raised from a fit."""

    def __init__(self, folds: Sequence[int], epoch: Optional[int] = None):
        self.folds = [int(f) for f in folds]
        self.epoch = epoch
        at = "" if epoch is None else f" at epoch {epoch}"
        super().__init__(f"non-finite loss or gradient in fold(s) {self.folds}{at}")


class InvalidK(ValueError):
    pass


class DegenerateTargets(ValueError):
    pass


# ---------------------------------------------------------------------------
# Small numeric pieces


def reparam(unconstrained: float, kind: str) -> float:
    """Map an unconstrained value into its legal range."""
    if kind == "unit_interval":
        # the C library's exp, as in scipy.special.expit: bit-identical to it
        try:
            return 1.0 / (1.0 + math.exp(-unconstrained))
        except OverflowError:  # exp(-u) beyond the largest float: 1 / inf
            return 0.0
    if kind == "positive":
        # min and max keep a NaN, as np.clip does, at a fraction of its cost
        return float(np.exp(min(max(unconstrained, -700.0), 700.0)))
    raise ValueError(f"unknown reparam kind {kind!r}")


# the temperatures exp(-700) and exp(700), the range of "positive" reparam
_T_MIN, _T_MAX = reparam(-700.0, "positive"), reparam(700.0, "positive")


def bce_loss_and_slope(pred, yes, no):
    """The binary cross-entropy -sum(yes log p + no log(1 - p)) of the
    predictions `pred` clamped to p in [PROB_CLAMP, 1 - PROB_CLAMP], and
    its derivative in each prediction, 0 where the clamp moves it. `yes`
    is the target where a row counts and `no` one minus it, both 0 where
    it does not."""
    p = np.minimum(np.maximum(pred, PROB_CLAMP), 1.0 - PROB_CLAMP)
    q = 1.0 - p
    loss = -(np.dot(yes, np.log(p)) + np.dot(no, np.log(q)))
    # d/dp of -(r log p + (1 - r) log q) is (1 - r) / q - r / p
    slope = np.where(p == pred, no / q - yes / p, 0.0)
    return float(loss), slope


def kfold_rows(n: int, k: int, seed: int) -> np.ndarray:
    """The (k, n) bool training masks of a k-fold cut of n rows: with
    `order` the seeded permutation of the rows, fold i holds out
    order[i::k], so each row is held out once and fold sizes differ by
    at most 1. `order` is numpy's `default_rng(seed).permutation(n)`,
    computed by `pcg64.permutation` without importing `numpy.random`.
    A k that is not an integer in 1..n is InvalidK."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise InvalidK(f"k={k!r} incompatible with {n} rows")
    from .pcg64 import permutation  # loaded by the first fold cut, not by importing the library

    order = permutation(n, seed)
    rows = np.ones((k, n), dtype=bool)
    rows[np.arange(n) % k, order] = False
    return rows


def r_squared(pred: Sequence[float], target: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.size < 2:
        raise ValueError("need equal-length inputs with at least 2 points")
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTargets("targets are all equal")
    ss_res = float(np.sum((pred - target) ** 2))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Prediction tasks (pools frozen, arrays precomputed)


@dataclass
class NumberTask:
    """All judgments sharing one training example set.

    member[s, k] = 1 if training example k lies in hypothesis s's
    extension; test_member[i, s] likewise for test number i. The pass
    is linear in test_member, so a column may also hold a raw
    prediction in [0, 1]: the weight of a task's one parsed hypothesis
    is 1, so it predicts expit(platt_b + platt_a logit(raw)), the raw
    prediction Platt-calibrated, as the number baselines use it.
    """

    features: Optional[np.ndarray]  # (S, D); None under a non-tuned prior
    base_logprior: np.ndarray  # (S,) zeros for uniform/tuned, scores for external
    parsed: np.ndarray  # (S,) bool
    member: np.ndarray  # (S, K)
    inv_size: np.ndarray  # (S,) 1/|C|, 0 for empty extensions
    test_member: np.ndarray  # (n_tests, S)
    targets: np.ndarray  # (n_tests,)
    ids: List[str]
    names: List[str]  # (S,) NL text of each hypothesis


@dataclass
class ShapeTask:
    """One learning curve compiled against its deduplicated pool of S
    rules: K trials in B batches, each trial one prediction row.

    Rules the posterior cannot tell apart are compiled once. A class is
    a set of rules with the same truth row, the same base log-prior
    and, under a tuned prior, the same feature row; each of its
    `count[b, g]` rules visible at batch b gets the same weight there.
    The G classes are numbered in the order of their first rule,
    `rule_class` maps each rule to its class and `first_batch` gives the
    batch from which the rule itself is visible (`rule_weights`).

    `consist` must hold only 0.0 and 1.0: `shape_forward` is affine in
    it. Building a task checks this once and raises ValueError naming
    the curve otherwise.

    Building a task also compiles the constants every forward pass over
    it reads, which depend on the counts, the labels, the batches and
    the number B of rows of `count` alone (the fields after
    `first_batch`). `visible` is count > 0. With lag[b, k] = K_b - k,
    how far trial k lies behind the start of batch b (K_b trials come
    before it), they are: the decay lookup (`lags`, the lags K..1 of
    trials 1..K, and `decay_index`, where lag^-beta lies in
    that table of K weights followed by a zero slot for trials not yet
    past), and the sums over a trial's label, plain and weighted by log
    lag, that the gradient takes. `consist_t` is a C-contiguous copy of
    `consist.T` for the scores' (D * (log r1 - log r0)) @ c^T and the
    gradient's g @ c^T, which BLAS runs about twice as fast as with the
    transposed view. `dataclasses.replace` compiles them again."""

    features: Optional[np.ndarray]  # (G, D); None under a non-tuned prior
    base_logprior: np.ndarray  # (G,)
    consist: np.ndarray  # (G, K) truth value of the class's rules per trial, 0.0 or 1.0
    labels: np.ndarray  # (K,) observed Y
    batch: np.ndarray  # (K,) batch index of each trial, from 0
    count: np.ndarray  # (B, G) the class's rules visible at batch b, as floats: every pass multiplies by it
    targets: np.ndarray  # (K,)
    ids: List[str]
    names: List[str]  # (S,) NL text of each rule
    rule_class: np.ndarray  # (S,) class of each rule
    first_batch: np.ndarray  # (S,) the row of `count` each rule is visible from; past the last if never

    visible: np.ndarray = field(init=False, repr=False)  # (B, G) count > 0
    positive: np.ndarray = field(init=False, repr=False)  # (K,) the label is positive
    lags: np.ndarray = field(init=False, repr=False)  # (K,) K, K - 1, ..., 1 as floats
    decay_index: np.ndarray = field(init=False, repr=False)  # (B, K) K - lag where past, else K (the zero slot)
    label_sums: np.ndarray = field(init=False, repr=False)  # (B·K, 4) negative, positive label; those times log lag
    now: np.ndarray = field(init=False, repr=False)  # (K,) flat index batch[k]·K + k into a (B, K) array
    in_batch: np.ndarray = field(init=False, repr=False)  # (B, K) 1.0 where batch[k] = b
    consist_t: np.ndarray = field(init=False, repr=False)  # (K, G) consist.T, C-contiguous

    def __post_init__(self):
        bad = (self.consist != 0.0) & (self.consist != 1.0)
        if bad.any():
            g, k = np.argwhere(bad)[0]
            curve = self.ids[k].rpartition(":")[0]
            rule = self.names[int(np.argmax(self.rule_class == g))]
            raise ValueError(
                f"shape task {curve!r}: truth matrix must hold only 0 and 1, "
                f"found {float(self.consist[g, k])!r} for rule {rule!r} on trial {k}"
            )
        self.count = np.asarray(self.count, dtype=float)
        self.visible = self.count > 0
        n_batches, n_trials = self.count.shape[0], len(self.labels)
        self.positive = self.labels > 0
        by_label = np.stack([~self.positive, self.positive], axis=1).astype(float)
        lag = np.searchsorted(self.batch, np.arange(n_batches))[:, None] - np.arange(n_trials)
        past = lag > 0
        lag = np.where(past, lag, 1)
        self.lags = np.arange(n_trials, 0, -1, dtype=float)
        self.decay_index = np.where(past, n_trials - lag, n_trials)
        by_trial = np.broadcast_to(by_label, lag.shape + (2,))
        lagged = np.log(lag.astype(float))[:, :, None] * by_trial
        self.label_sums = np.concatenate([by_trial, lagged], axis=2).reshape(-1, 4)
        self.now = self.batch * n_trials + np.arange(n_trials)
        self.in_batch = (self.batch == np.arange(n_batches)[:, None]).astype(float)
        self.consist_t = np.ascontiguousarray(self.consist.T)


@dataclass
class TaskBatch:
    """Tasks compiled once for all forward passes of a fit.

    Number tasks are stacked and zero-padded to T tasks of S hypotheses
    and R judgment rows. Hypothesis arrays are flat over the T·S
    entries, entry t·S + s; test membership is one (R, S) block per
    task. Flat, the number rows are the entries of the (T, R) blocks in
    row-major order, of which the valid ones (task by task, each
    task's judgments in order) are the batch's number rows. Shape tasks
    stay as they are, their trials the rows after the number rows.

    The count pieces and the base log-prior are zero where a hypothesis
    is dead (unparsed or padding), so it adds nothing to the likelihood
    or its gradient and its log-weight stays finite."""

    features: Optional[np.ndarray]  # (D, T·S); None under a non-tuned prior
    base_logprior: Optional[np.ndarray]  # (T·S,); None where every entry is 0 (uniform and tuned priors)
    alive: np.ndarray  # (T, S) parsed and not padding
    any_alive: np.ndarray  # (T,) some hypothesis of the task is alive
    all_alive: bool  # every task has a live hypothesis
    inv_size: np.ndarray  # (T·S,)
    n_inside: np.ndarray  # (T·S,) training examples inside the extension, 0 where dead
    n_outside: np.ndarray  # (T·S,) training examples outside it, 0 where dead
    n_all: np.ndarray  # (T·S,) n_inside + n_outside: the task's training examples, 0 where dead
    in_slope: np.ndarray  # (T·S,) n_inside (1 - 100/|C|), for the gradient in epsilon
    test_member: np.ndarray  # (T, R, S) test number r of task t in hypothesis s's extension
    test_member_t: np.ndarray  # (T, S, R) test_member.swapaxes(1, 2), C-contiguous for the predictions' product
    row_valid: np.ndarray  # (T, R) a judgment, not padding
    row_targets: np.ndarray  # (T, R) its target, 0 on padding
    shapes: List[ShapeTask]
    ids: List[str]  # every row
    targets: np.ndarray  # every row


def stack_tasks(tasks) -> TaskBatch:
    """Compile tasks into one TaskBatch (a TaskBatch passes through)."""
    if isinstance(tasks, TaskBatch):
        return tasks
    numbers = [t for t in tasks if isinstance(t, NumberTask)]
    shapes = [t for t in tasks if not isinstance(t, NumberTask)]
    width = max((len(t.parsed) for t in numbers), default=0)
    n_rows = [len(t.targets) for t in numbers]
    height = max(n_rows, default=0)

    def pad(a, axis=0):
        """`a` zero-padded along `axis` (its hypotheses) to `width`."""
        widths = [(0, 0)] * a.ndim
        widths[axis] = (0, width - a.shape[axis])
        return np.pad(a, widths)

    def flat(rows):
        """One padded row per number task, as one flat (T·S,) array."""
        return np.array([pad(r) for r in rows], dtype=float).reshape(-1)

    alive = np.array([pad(t.parsed) for t in numbers], dtype=bool).reshape(len(numbers), width)
    live = alive.reshape(-1)
    inv_size = flat(t.inv_size for t in numbers)
    n_inside = np.where(live, flat(t.member.sum(axis=1) for t in numbers), 0.0)
    n_all = np.where(live, np.repeat([float(t.member.shape[1]) for t in numbers], width), 0.0)
    base = np.where(live, flat(t.base_logprior for t in numbers), 0.0)
    row_valid = np.arange(height) < np.array(n_rows, dtype=int)[:, None]
    test_member = np.zeros(row_valid.shape + (width,))
    if numbers:
        test_member[row_valid] = np.concatenate([pad(t.test_member, axis=1) for t in numbers])
    targets = np.concatenate([np.zeros(0)] + [t.targets for t in numbers + shapes])
    row_targets = np.zeros(row_valid.shape)
    row_targets[row_valid] = targets[: int(row_valid.sum())]
    features = None
    if numbers and numbers[0].features is not None:  # tasks share one prior
        features = np.array([pad(t.features) for t in numbers]).reshape(live.size, -1).T.copy()
    return TaskBatch(
        features=features,
        base_logprior=base if base.any() else None,
        alive=alive,
        any_alive=alive.any(axis=1),
        all_alive=bool(alive.any(axis=1).all()),
        inv_size=inv_size,
        n_inside=n_inside,
        n_outside=n_all - n_inside,
        n_all=n_all,
        in_slope=n_inside * (1.0 - 100.0 * inv_size),
        test_member=test_member,
        test_member_t=np.ascontiguousarray(test_member.swapaxes(1, 2)),
        row_valid=row_valid,
        row_targets=row_targets,
        shapes=shapes,
        ids=[i for t in numbers + shapes for i in t.ids],
        targets=targets,
    )


@dataclass
class FitRows:
    """The rows each of F fits counts, compiled once per fit against the
    TaskBatch they select from: the number rows flat over its (T, R)
    blocks, padding included, and the shape rows flat. Every target is
    chosen with `where`, so a fit never reads a target it does not
    count."""

    counted: np.ndarray  # (F, T·R) 1.0 where the fit counts the number row, else 0
    targets: np.ndarray  # (F, T·R) the row's target where the fit counts it, else 0
    shape_yes: np.ndarray  # (F, N_shape) a shape row's target where the fit counts it, else 0
    shape_no: np.ndarray  # (F, N_shape) one minus that target where the fit counts it, else 0


def fit_rows(batch: TaskBatch, rows) -> FitRows:
    """`rows`, an (F, N) bool mask over the N rows of `batch`, as FitRows."""
    rows = np.asarray(rows, dtype=bool)
    valid = batch.row_valid.reshape(-1)
    n = int(valid.sum())
    number = np.zeros((len(rows), valid.size), dtype=bool)
    number[:, valid] = rows[:, :n]
    shape_rows, targets = rows[:, n:], batch.targets[n:]
    return FitRows(
        number.astype(float),
        np.where(number, batch.row_targets.reshape(-1), 0.0),
        np.where(shape_rows, targets, 0.0),
        np.where(shape_rows, 1.0 - targets, 0.0),
    )


def _unpack(u: np.ndarray, dim: int) -> ModelParams:
    return ModelParams(
        theta=u[:dim].copy(),
        epsilon=reparam(u[dim], "unit_interval"),
        alpha=reparam(u[dim + 1], "unit_interval"),
        beta=reparam(u[dim + 2], "positive"),
        temperature=reparam(u[dim + 3], "positive"),
        platt_a=float(u[dim + 4]),
        platt_b=float(u[dim + 5]),
    )


def pack_params(params: ModelParams) -> np.ndarray:
    beta_u = math.log(params.beta) if params.beta > 0 else -30.0
    rest = [logit(params.epsilon), logit(params.alpha), beta_u, math.log(params.temperature)]
    return np.concatenate([params.theta, rest, [params.platt_a, params.platt_b]]).astype(float)


def number_weights(stack, batch: TaskBatch, dim):
    """Posterior weights (F, T, S) of every number task under each
    parameter vector of `stack`, with the log-weights (log prior + log
    likelihood, `likelihood.count_logliks`) they are the tempered
    softmax of, (F, T, S) too; then, flat over the T·S hypotheses,
    `count_logliks`' x = g_in / g_out - 1 (F, T·S), and epsilon and the
    temperature as (F, 1) columns."""
    eps = expit(stack[:, dim, None])
    temp = np.exp(np.minimum(np.maximum(stack[:, dim + 3, None], -700.0), 700.0))
    # dead hypotheses count no examples, so their log-likelihood is 0
    log_unnorm, x = count_logliks(batch.n_inside, batch.n_all, batch.inv_size, eps)
    if batch.base_logprior is not None:
        log_unnorm += batch.base_logprior
    if batch.features is not None:
        log_unnorm += stack[:, :dim] @ batch.features
    shape = (len(stack),) + batch.alive.shape
    weights = softmax_masked((log_unnorm / temp).reshape(shape), batch.alive, all_rows_alive=batch.all_alive)
    return weights, log_unnorm.reshape(shape), x, eps, temp


def _number_rows(stack, batch: TaskBatch, dim, rows: FitRows, grad):
    """(loss (F,) over the number rows each fit counts, the predictions
    (F, T·R) of every row of the (T, R) blocks); writes d(loss)/du into
    grad (F, P) when given, before any shape pass adds to it.

    Task t's predictions are w[:, t] @ test_member[t].T, one (F, S) @
    (S, R) product per task, and the gradient in its log-weights one
    (F, R) @ (R, S) product; both are written fit-major, so every
    elementwise step runs on flat (F, T·R) or (F, T·S) arrays."""
    w, log_unnorm, x, eps, temp = number_weights(stack, batch, dim)
    n_fits = len(stack)
    p_raw = np.empty((n_fits,) + batch.row_valid.shape)
    np.matmul(w.swapaxes(0, 1), batch.test_member_t, out=p_raw.swapaxes(0, 1))
    if not batch.all_alive:  # nothing parses: the noise-only prediction 0.5, through the Platt transform
        p_raw[:, ~batch.any_alive] = 0.5
    p_raw = p_raw.reshape(n_fits, -1)
    p_c = np.minimum(np.maximum(p_raw, PROB_CLAMP), 1.0 - PROB_CLAMP)
    q_c = 1.0 - p_c
    logit_p = np.log(p_c / q_c)
    # -z for z = b + a logit p; pred = expit(z) from exp(min(-z, 709)), as
    # posterior.expit computes it, and softplus(z) = log1p(that) - min(-z, 709)
    a = stack[:, dim + 4, None]
    neg_z = logit_p * -a
    neg_z -= stack[:, dim + 5, None]
    capped = np.minimum(neg_z, 709.0)
    e = np.exp(capped)
    pred = 1.0 / (1.0 + e)
    # r softplus(-z) + (1 - r) softplus(z) = softplus(z) - r z, on the rows each fit counts
    row_loss = np.log1p(e)
    row_loss -= capped
    row_loss *= rows.counted
    row_loss += rows.targets * neg_z
    loss = np.add.reduce(row_loss, axis=1)

    if grad is not None:
        dl_dz = rows.counted * pred
        dl_dz -= rows.targets
        grad[:, dim + 4] = np.add.reduce(dl_dz * logit_p, axis=1)
        grad[:, dim + 5] = np.add.reduce(dl_dz, axis=1)
        # d logit p / d p_raw = 1 / (p q), 0 where the clamp moves p_raw; / T for the log-weights
        dl_dp = np.where(p_c == p_raw, dl_dz, 0.0)
        dl_dp *= a / temp
        dl_dp /= p_c * q_c
        # dp_r/ds_s = w_s (t_rs - p_r); summed over each task's rows that is
        # w_s (dl_dp @ test_member - dl_dp . p), one (F, R) @ (R, S) per task
        dl_dp = dl_dp.reshape((n_fits,) + batch.row_valid.shape)
        coeff = np.empty(w.shape)
        np.matmul(dl_dp.swapaxes(0, 1), batch.test_member, out=coeff.swapaxes(0, 1))
        coeff -= np.add.reduce(dl_dp * p_raw.reshape(dl_dp.shape), axis=2, keepdims=True)
        coeff *= w
        coeff = coeff.reshape(n_fits, -1)
        if batch.features is not None:
            grad[:, :dim] = coeff @ batch.features.T
        # d(log-likelihood)/d eps_u = (1 - eps) (n_out + n_in (1 - 100/|C|) g / g_in) for
        # g = eps / 100 unfloored: g / g_in = k / (x + k), k = g / g_out, 1 unless g < 1e-300
        k = np.minimum(eps * 1e298, 1.0)
        dll = np.divide(k, x + k)
        dll *= batch.in_slope
        dll += batch.n_outside
        grad[:, dim] = np.add.reduce(dll * coeff, axis=1) * (1.0 - eps[:, 0])
        # a dead hypothesis has weight 0 and a finite log-weight
        grad[:, dim + 3] = -np.add.reduce(coeff * log_unnorm.reshape(n_fits, -1), axis=1)
    return loss, pred


def shape_forward(task: ShapeTask, params: ModelParams):
    """`shape_pass` at `params`: the forward pass of online evaluation,
    inference and the latent-language baseline. The temperature is
    clamped to [exp(-700), exp(700)], the rule of the number pass, which
    clamps log T to [-700, 700] (`pack_params`, then `number_weights`)."""
    temp = min(max(params.temperature, _T_MIN), _T_MAX)
    return shape_pass(task, params.theta, params.epsilon, params.alpha, params.beta, temp)


def shape_pass(task: ShapeTask, theta, eps: float, alpha: float, beta: float, temp: float):
    """One forward pass of the online model over a compiled curve.

    Before batch b, rule s scores (log prior + decayed log-likelihood of
    all earlier trials) / T, softmaxed over the rules visible at b, with
    D[b, k] = (K_b - k)^-beta for the K_b trials before batch b. Trial k
    is predicted as sum_s w[b(k), s] q[s, k], which is eps * alpha at a
    batch where no rule is visible.

    The rules of a class (`ShapeTask`) share their score, so the pass
    runs over the G classes: each of the count[b, g] rules of class g
    visible at batch b weighs p[b, g] = e[b, g] / sum_h count[b, h] e[b, h],
    and the class as a whole W = p * count, which stands in for the rule
    weights in every sum over rules below. No array of the pass has a
    column per rule.

    `task.consist` must hold only 0 and 1 (ShapeTask checks it). Then
    q[g, k] = (1 - eps) c[g, k] + eps alpha, the probability r[g, k] of
    the observed label and log r[g, k] are all affine in c: each equals
    a0[k] + c[g, k] (a1[k] - a0[k]), with per-trial coefficients from
    eps, alpha and label k. With r0 and r1 the label probabilities of a
    rule false or true on each trial (`likelihood.positive_probs`), the
    log-likelihoods of all batches are
    D @ log r0 + (D * (log r1 - log r0)) @ c^T. The first term is the
    same for every class of a batch: the softmax cancels it, and so does
    the gradient, whose rows in the log-weights sum to zero. c enters
    the pass and its gradient only through four products (the second
    term, W @ c, g @ c^T and d(log weights) @ c), and the gradients in
    eps, alpha and beta are per-label sums of the last one; no (G, K)
    array is built. r0 and r1 take one value per label, so they and
    their logs are scalars, and the arrays that depend on the batches
    alone are the task's compiled constants.

    eps, alpha, beta and T are scalars and theta the prior's weights
    (read only under a tuned prior). Returns (predictions (K,),
    per-rule weights of each class (B, G), backward), where
    backward(d(loss)/d(prediction)) gives the loss gradient in (theta or
    None, epsilon, alpha, beta, temperature). The weights of the rules
    themselves are `rule_weights(task, p)`.
    """
    c = task.consist
    log_prior = task.base_logprior
    if task.features is not None:
        log_prior = log_prior + task.features @ theta
    q0, q1 = positive_probs(eps, alpha)
    # a negative label's probability under a false (r0_neg) and a true
    # (r1_neg) rule; a positive label's are q0 and q1
    r0_neg, r1_neg = 1.0 - q0, 1.0 - q1
    # log r1 - log r0 of a negative and of a positive label, each log floored at log 1e-300
    delta_neg = math.log(max(r1_neg, 1e-300)) - math.log(max(r0_neg, 1e-300))
    delta_pos = math.log(max(q1, 1e-300)) - math.log(max(q0, 1e-300))
    delta_log_r = np.where(task.positive, delta_pos, delta_neg)  # (K,) that of each trial's label
    # D (B, K): lag^-beta where trial k is past, read off the decay weights
    # (1 + K - k)^-beta of all K trials, and 0 elsewhere, at the zero slot
    decay = np.zeros(len(task.lags) + 1)
    np.power(task.lags, -beta, out=decay[:-1])
    decay = decay.take(task.decay_index)
    score = (log_prior + (decay * delta_log_r) @ task.consist_t) / temp  # (B, G), up to a constant per batch
    p = softmax_masked(score, task.visible, task.count)
    w = p * task.count  # (B, G) weight of each class
    mean_truth = (w @ c).take(task.now)  # (K,) zero where nothing is visible
    pred = (1.0 - eps) * mean_truth + eps * alpha

    def backward(dl_dpred):
        g = task.in_batch * dl_dpred  # (B, K) dl_dpred[k] at (batch[k], k)
        # d(loss)/d score[b, j] of class j sums g_k w[b, j] (q[j, k] - pred_k) over
        # batch b's trials k, where q[j, k] - pred_k = (1 - eps) (c[j, k] - mean_k);
        # d_unnorm is that over T, the gradient in the log-weights (B, G)
        d_unnorm = g @ task.consist_t - (g @ mean_truth)[:, None]
        d_unnorm *= w
        d_unnorm *= (1.0 - eps) / temp
        d_theta = None if task.features is None else d_unnorm.sum(axis=0) @ task.features
        # per trial, d(loss)/d log r summed over the rules true on it; over
        # the false ones it is the negative, as the rows of d_unnorm sum to zero.
        # Decayed and summed over the batches and the trials of each label,
        # then also weighted by log lag (the derivative of D in beta):
        decayed_true = (decay * (d_unnorm @ c)).ravel()
        true_neg, true_pos, lagged_neg, lagged_pos = (decayed_true @ task.label_sums).tolist()
        # d log r / d q = -1 / r for a negative label and 1 / r for a
        # positive one, zero where r was clipped
        d_q0 = -(
            (-1.0 / r0_neg if r0_neg > 1e-300 else 0.0) * true_neg
            + (1.0 / q0 if q0 > 1e-300 else 0.0) * true_pos
        )
        d_q1 = (-1.0 / r1_neg if r1_neg > 1e-300 else 0.0) * true_neg + (
            1.0 / q1 if q1 > 1e-300 else 0.0
        ) * true_pos
        d_eps = dl_dpred @ (alpha - mean_truth) + alpha * d_q0 + (alpha - 1.0) * d_q1
        d_alpha = eps * (dl_dpred.sum() + d_q0 + d_q1)
        d_beta = -(lagged_neg * delta_neg + lagged_pos * delta_pos)
        d_temp = -np.vdot(d_unnorm, score)
        return d_theta, d_eps, d_alpha, d_beta, d_temp

    return pred, p, backward


def rule_weights(task: ShapeTask, p: np.ndarray):
    """(weights (B, S), visible (B, S)) of the rules themselves, from the
    per-rule weights p (B, G) of their classes that `shape_pass`
    returns: a rule weighs its class's p from its first visible batch on
    (`ShapeTask.first_batch`), and 0 before it or if it never joins."""
    visible = task.first_batch <= np.arange(len(p))[:, None]
    return np.where(visible, p[:, task.rule_class], 0.0), visible


def _shape_rows(task: ShapeTask, u, dim, grad, yes, no):
    """(loss over the trials `yes` and `no` count, every trial's
    prediction) of one curve, with eps, alpha, beta and T read off the
    unconstrained vector u (P,) as `_unpack` reads them; adds
    d(loss)/du into grad (P,) when given."""
    eps_u, alpha_u, beta_u, temp_u = u[dim : dim + 4].tolist()
    eps, alpha = reparam(eps_u, "unit_interval"), reparam(alpha_u, "unit_interval")
    beta, temp = reparam(beta_u, "positive"), reparam(temp_u, "positive")
    pred, _, backward = shape_pass(task, u[:dim], eps, alpha, beta, temp)
    loss, slope = bce_loss_and_slope(pred, yes, no)
    if grad is not None:
        d_theta, d_eps, d_alpha, d_beta, d_temp = backward(slope)
        if d_theta is not None:
            grad[:dim] += d_theta
        grad[dim] += d_eps * eps * (1.0 - eps)
        grad[dim + 1] += d_alpha * alpha * (1.0 - alpha)
        grad[dim + 2] += d_beta * beta
        grad[dim + 3] += d_temp * temp
    return loss, pred


def loss_and_grad(u: np.ndarray, tasks, dim: int, want_grad: bool = True, rows=None):
    """Total loss over all tasks and its gradient in unconstrained space.

    `tasks` is a sequence of tasks or a TaskBatch. `u` is one parameter
    vector (P,) or a stack (F, P); `rows`, an (F, N) bool mask over the
    N prediction rows, picks the rows each fit's loss counts (default
    all). Returns (loss, grad, one (id, prediction, target) per row) for
    one vector, (loss (F,), grad (F, P), predictions (F, N)) for a
    stack; grad is None without want_grad. Compiled `rows` (`fit_rows`,
    as `fit_params` passes them) need the TaskBatch they were compiled
    against and an (F, P) stack, and no argument is converted.
    """
    if isinstance(rows, FitRows):
        batch, stack, one = tasks, u, False
    else:
        batch = stack_tasks(tasks)
        one = np.ndim(u) == 1
        stack = np.atleast_2d(u) if one else u
        rows = fit_rows(batch, np.ones((len(stack), len(batch.ids)), dtype=bool) if rows is None else rows)
    grad = np.zeros(stack.shape) if want_grad else None
    n_shape = rows.shape_yes.shape[1]
    n_number = len(batch.ids) - n_shape  # the number rows come first
    pred = None
    if n_number:
        loss, pred = _number_rows(stack, batch, dim, rows, grad)
        if n_number < pred.shape[1]:  # drop the padding of the (T, R) blocks
            pred = pred[:, batch.row_valid.reshape(-1)]
    else:
        loss = np.zeros(len(stack))
    if batch.shapes:
        shape_pred = np.empty((len(stack), n_shape))
        for f in range(len(stack)):
            col = 0
            for task in batch.shapes:
                end = col + len(task.ids)
                task_loss, shape_pred[f, col:end] = _shape_rows(
                    task,
                    stack[f],
                    dim,
                    None if grad is None else grad[f],
                    rows.shape_yes[f, col:end],
                    rows.shape_no[f, col:end],
                )
                loss[f] += task_loss
                col = end
        pred = shape_pred if pred is None else np.concatenate((pred, shape_pred), axis=1)
    # one finite sum says every fold is finite; otherwise name the folds that are not
    if not math.isfinite(np.add.reduce(loss) + (0.0 if grad is None else np.add.reduce(grad, axis=None))):
        bad = ~(np.isfinite(loss) & (grad is None or np.isfinite(grad).all(axis=1)))
        if bad.any():
            raise NonFinite(np.flatnonzero(bad))
    if not one:
        return loss, grad, pred
    records = [(i, float(p), float(t)) for i, p, t in zip(batch.ids, pred[0], batch.targets)]
    return float(loss[0]), None if grad is None else grad[0], records


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


# the moments' decay rates and the step's offset at the values of Kingma
# and Ba (2015), "Adam: A Method for Stochastic Optimization"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(u: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One Adam step: `u`, `state.m` and `state.v` are updated in place,
    and `u` is returned. The step is u - lr m_hat / (sqrt(v_hat) + eps),
    with the bias-corrected moments m_hat and v_hat, decay rates
    ADAM_BETA1 and ADAM_BETA2, and eps ADAM_EPS."""
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad**2
    step = state.m / (1.0 - ADAM_BETA1**state.t)
    step *= lr
    root = state.v / (1.0 - ADAM_BETA2**state.t)
    np.sqrt(root, out=root)
    root += ADAM_EPS
    step /= root
    u -= step
    return u


# ---------------------------------------------------------------------------
# Full fit


@dataclass
class FitConfig:
    learning_rate: float = 0.001
    epochs: int = 1000
    trainable: Tuple[str, ...] = ("theta", "epsilon", "temperature", "platt")

    def __post_init__(self):
        if isinstance(self.trainable, str):
            raise ValueError(f"trainable must be a list of group names, not the string {self.trainable!r}")
        self.trainable = tuple(self.trainable)
        check_finite_number("learning_rate", self.learning_rate)
        check_integer("epochs", self.epochs, 1)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        unknown = set(self.trainable) - set(ALL_PARAM_GROUPS)
        if unknown:
            raise ValueError(f"unknown trainable groups: {sorted(unknown)}")


@dataclass
class FitResult:
    params: ModelParams
    loss_trace: List[float]
    holdout_predictions: List[Tuple[str, float, float]]  # (id, pred, target)


def trainable_mask(dim: int, groups: Sequence[str]) -> np.ndarray:
    names = ["theta"] * dim + ["epsilon", "alpha", "beta", "temperature", "platt", "platt"]
    return np.isin(names, list(groups))


def fit_params(
    config: FitConfig,
    train_tasks,
    init: ModelParams,
    train_rows: Optional[np.ndarray] = None,
):
    """Full-batch Adam (`adam_step` at the config's learning rate) on the
    trainable unconstrained parameters.

    Deterministic given (config, tasks, init). With `train_rows`, an
    (F, N) bool mask over the rows of `train_tasks`, F fits from `init`
    run as one loop over an (F, P) parameter stack; fit f's loss counts
    the rows it marks, its holdout predictions are the rows it leaves
    out (in row order, at its final parameters), and a list of the F
    results is returned. Without it, one fit counts every row, holds
    none out, and its result is returned alone.

    The tasks and the rows are compiled once (`stack_tasks`,
    `fit_rows`); each epoch is one `loss_and_grad` call on them and
    one in-place `adam_step`.
    """
    dim = len(init.theta)
    batch = stack_tasks(train_tasks)
    rows = np.asarray([np.ones(len(batch.ids))] if train_rows is None else train_rows, dtype=bool)
    compiled_rows = fit_rows(batch, rows)
    stack = np.tile(pack_params(init), (len(rows), 1))
    mask = trainable_mask(dim, config.trainable)
    trains = bool(mask.any())
    state = AdamState.zeros(stack.shape)
    losses = []
    for epoch in range(config.epochs if trains else 1):
        try:
            loss, grad, _ = loss_and_grad(stack, batch, dim, want_grad=trains, rows=compiled_rows)
        except NonFinite as error:
            raise NonFinite(error.folds, epoch) from None
        losses.append(loss)
        if trains:
            grad *= mask  # frozen groups get no gradient
            adam_step(stack, grad, state, lr=config.learning_rate)
    traces = np.array(losses).T.tolist()
    # no closing forward pass when no fit holds a row out
    pred = None if rows.all() else loss_and_grad(stack, batch, dim, want_grad=False, rows=compiled_rows)[2]
    results = [
        FitResult(
            _unpack(u, dim),
            trace,
            [(batch.ids[n], pred[f, n], batch.targets[n]) for n in np.flatnonzero(~train)],
        )
        for f, (u, trace, train) in enumerate(zip(stack, traces, rows))
    ]
    return results[0] if train_rows is None else results

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit, logit

from .posterior import softmax_masked
from .types import ModelParams

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
        return float(expit(unconstrained))
    if kind == "positive":
        return float(np.exp(np.clip(unconstrained, -700, 700)))
    raise ValueError(f"unknown reparam kind {kind!r}")


def weighted_bce_loss(pred, r, delta: float = 1e-6):
    """-[r log pred + (1-r) log(1-pred)], with pred clamped away from
    0 and 1; elementwise on arrays."""
    pred = np.clip(pred, delta, 1.0 - delta)
    return -(r * np.log(pred) + (1.0 - r) * np.log(1.0 - pred))


def kfold_split(ids: Sequence, k: int, seed: int) -> List[Tuple[list, list]]:
    """Deterministic k-fold partition; fold sizes differ by at most 1."""
    ids = list(ids)
    if not 1 <= k <= len(ids):
        raise InvalidK(f"k={k} incompatible with {len(ids)} ids")
    order = np.random.default_rng(seed).permutation(len(ids))
    folds = [[ids[idx] for idx in order[i::k]] for i in range(k)]
    return [([x for j, f in enumerate(folds) if j != i for x in f], folds[i]) for i in range(k)]


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
    extension; test_member[i, s] likewise for test number i.
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

    domain: str = "number"


@dataclass
class ShapeTask:
    """One learning curve compiled against its deduplicated pool of S
    rules: K trials in B batches, each trial one prediction row.

    `consist` must hold only 0.0 and 1.0: `shape_forward` is affine in
    it. Building a task checks this once and raises ValueError naming
    the curve otherwise."""

    features: Optional[np.ndarray]  # (S, D); None under a non-tuned prior
    base_logprior: np.ndarray  # (S,)
    consist: np.ndarray  # (S, K) rule truth value per trial, 0.0 or 1.0
    labels: np.ndarray  # (K,) observed Y
    batch: np.ndarray  # (K,) batch index of each trial, from 0
    visible: np.ndarray  # (B, S) rule parsed and joined by batch b
    targets: np.ndarray  # (K,)
    ids: List[str]
    names: List[str]  # (S,) NL text of each rule

    domain: str = "shape"

    def __post_init__(self):
        bad = (self.consist != 0.0) & (self.consist != 1.0)
        if bad.any():
            s, k = np.argwhere(bad)[0]
            curve = self.ids[k].rpartition(":")[0]
            raise ValueError(
                f"shape task {curve!r}: truth matrix must hold only 0 and 1, "
                f"found {float(self.consist[s, k])!r} for rule {self.names[s]!r} on trial {k}"
            )


@dataclass
class TaskBatch:
    """Tasks compiled once for all forward passes of a fit: number tasks
    stacked and zero-padded to T tasks of S hypotheses, each judgment one
    row in task order; shape tasks as they are, their trials the rows
    after the number rows."""

    features: Optional[np.ndarray]  # (T, S, D); None under a non-tuned prior
    base_logprior: np.ndarray  # (T, S)
    alive: np.ndarray  # (T, S) parsed and not padding
    inv_size: np.ndarray  # (T, S)
    n_inside: np.ndarray  # (T, S) training examples inside the extension
    n_outside: np.ndarray  # (T, S) training examples outside it
    test_member: np.ndarray  # (N_number, S)
    row_task: np.ndarray  # (N_number,) task index of each number row
    shapes: List[ShapeTask]
    ids: List[str]  # every row
    targets: np.ndarray  # every row


def stack_tasks(tasks) -> TaskBatch:
    """Compile tasks into one TaskBatch (a TaskBatch passes through)."""
    if isinstance(tasks, TaskBatch):
        return tasks
    numbers = [t for t in tasks if t.domain == "number"]
    shapes = [t for t in tasks if t.domain != "number"]
    width = max((len(t.parsed) for t in numbers), default=0)

    def pad(a, axis=0):
        """`a` zero-padded along `axis` (its hypotheses) to `width`."""
        widths = [(0, 0)] * a.ndim
        widths[axis] = (0, width - a.shape[axis])
        return np.pad(a, widths)

    n_inside = [t.member.sum(axis=1) for t in numbers]
    test_member = [np.zeros((0, width))] + [pad(t.test_member, axis=1) for t in numbers]
    tuned = bool(numbers) and numbers[0].features is not None  # tasks share one prior
    return TaskBatch(
        features=np.array([pad(t.features) for t in numbers]) if tuned else None,
        base_logprior=np.array([pad(t.base_logprior) for t in numbers]),
        alive=np.array([pad(t.parsed) for t in numbers]),
        inv_size=np.array([pad(t.inv_size) for t in numbers]),
        n_inside=np.array([pad(n) for n in n_inside]),
        n_outside=np.array([pad(t.member.shape[1] - n) for t, n in zip(numbers, n_inside)]),
        test_member=np.concatenate(test_member),
        row_task=np.repeat(np.arange(len(numbers)), [len(t.targets) for t in numbers]),
        shapes=shapes,
        ids=[i for t in numbers + shapes for i in t.ids],
        targets=np.concatenate([np.zeros(0)] + [t.targets for t in numbers + shapes]),
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
    likelihood) they are the tempered softmax of and each inside
    example's likelihood g_in (both (F, T, S))."""
    eps = expit(stack[:, dim])[:, None, None]
    temp = np.exp(np.clip(stack[:, dim + 3], -700, 700))[:, None, None]
    log_prior = batch.base_logprior
    if batch.features is not None:
        log_prior = log_prior + np.einsum("tsd,fd->fts", batch.features, stack[:, :dim])
    # per-example likelihood terms, for examples inside and outside C
    g_in = (1.0 - eps) * batch.inv_size + eps / 100.0
    g_out = eps / 100.0
    loglik = batch.n_inside * np.log(np.maximum(g_in, 1e-300))
    loglik = loglik + batch.n_outside * np.log(np.maximum(g_out, 1e-300))
    log_unnorm = log_prior + np.where(batch.alive, loglik, 0.0)
    return softmax_masked(log_unnorm / temp, batch.alive), log_unnorm, g_in


def _number_rows(stack, batch: TaskBatch, dim, rows, grad):
    """(loss (F,) over each fit's `rows`, predictions (F, N)) of the
    number rows; adds d(loss)/du into grad (F, P) when given."""
    w, log_unnorm, g_in = number_weights(stack, batch, dim)
    a, b = stack[:, dim + 4, None], stack[:, dim + 5, None]
    alive = batch.alive

    w_rows = w[:, batch.row_task]  # (F, N, S)
    p_raw = np.einsum("ns,fns->fn", batch.test_member, w_rows)
    # nothing parses: the noise-only prediction 0.5, through the Platt transform
    p_raw = np.where(alive.any(axis=1)[batch.row_task], p_raw, 0.5)
    p_c = np.clip(p_raw, 1e-6, 1.0 - 1e-6)
    logit_p = logit(p_c)
    z = b + a * logit_p
    pred = expit(z)
    r = batch.targets[: len(batch.row_task)]
    loss = np.where(rows, r * _softplus(-z) + (1 - r) * _softplus(z), 0.0).sum(axis=1)

    if grad is not None:
        dl_dz = np.where(rows, pred - r, 0.0)  # (F, N)
        grad[:, dim + 4] += (dl_dz * logit_p).sum(axis=1)
        grad[:, dim + 5] += dl_dz.sum(axis=1)
        inside = (p_raw > 1e-6) & (p_raw < 1.0 - 1e-6)
        dl_dp = np.where(inside, dl_dz * a / (p_c * (1.0 - p_c)), 0.0)
        # dp_n/ds_s = w_s (t_ns - p_n); collapse over each task's rows
        per_row = (batch.test_member - p_raw[:, :, None]) * w_rows * dl_dp[:, :, None]
        one_hot = np.eye(len(alive))[batch.row_task]  # (N, T)
        eps = expit(stack[:, dim])[:, None, None]
        temp = np.exp(np.clip(stack[:, dim + 3], -700, 700))[:, None, None]
        g_out = eps / 100.0
        coeff = np.einsum("fns,nt->fts", per_row, one_hot) / temp  # (F, T, S)
        if batch.features is not None:
            grad[:, :dim] += np.einsum("fts,tsd->fd", coeff, batch.features)
        dll_deps = batch.n_inside * (1.0 / 100.0 - batch.inv_size) / g_in
        dll_deps = np.where(alive, dll_deps + batch.n_outside * (1.0 / 100.0) / g_out, 0.0)
        grad[:, dim] += (coeff * dll_deps).sum(axis=(1, 2)) * (eps * (1.0 - eps))[:, 0, 0]
        safe_u = np.where(alive, log_unnorm, 0.0)
        grad[:, dim + 3] -= (coeff * safe_u).sum(axis=(1, 2))
    return loss, pred


def shape_forward(task: ShapeTask, params: ModelParams):
    """One forward pass of the online model over a compiled curve.

    Before batch b, rule s scores (log prior + decayed log-likelihood of
    all earlier trials) / T, softmaxed over the rules visible at b, with
    D[b, k] = (K_b - k)^-beta for the K_b trials before batch b. Trial k
    is predicted as sum_s w[b(k), s] q[s, k], which is eps * alpha at a
    batch where no rule is visible.

    `task.consist` must hold only 0 and 1 (ShapeTask checks it). Then
    q[s, k] = (1 - eps) c[s, k] + eps alpha, the probability r[s, k] of
    the observed label and log r[s, k] are all affine in c: each equals
    a0[k] + c[s, k] (a1[k] - a0[k]), with per-trial coefficients from
    eps, alpha and label k. So the log-likelihoods of all batches are
    D @ log r0 + (D * (log r1 - log r0)) @ c^T. The first term is the
    same for every rule of a batch: the softmax cancels it, and so does
    the gradient, whose rows in the log-weights sum to zero. c enters
    the pass and its gradient only through four products (the second
    term, w @ c, g @ c^T and d(log weights) @ c), and the gradients in
    eps, alpha and beta are per-trial sums of the last one; no (S, K)
    array is built.

    Returns (predictions (K,), weights (B, S), backward), where
    backward(d(loss)/d(prediction)) gives the loss gradient in
    (theta or None, epsilon, alpha, beta, temperature).
    """
    eps, alpha, beta, temp = params.epsilon, params.alpha, params.beta, params.temperature
    c = task.consist
    n_batches, n_trials = task.visible.shape[0], len(task.labels)
    log_prior = task.base_logprior
    if task.features is not None:
        log_prior = log_prior + task.features @ params.theta
    sign = np.where(task.labels > 0, 1.0, -1.0)
    # P(Y = 1) under a rule false (q0) or true (q1) on a trial, and r0, r1
    # the probabilities of each trial's observed label
    q0, q1 = eps * alpha, (1.0 - eps) + eps * alpha
    r0 = np.where(sign > 0, q0, 1.0 - q0)
    r1 = np.where(sign > 0, q1, 1.0 - q1)
    delta_log_r = np.log(np.maximum(r1, 1e-300)) - np.log(np.maximum(r0, 1e-300))  # (K,)
    # lag[b, k] = K_b - k, how far trial k lies behind the start of batch b
    lag = np.searchsorted(task.batch, np.arange(n_batches))[:, None] - np.arange(n_trials)
    past = lag > 0
    lag = np.where(past, lag, 1).astype(float)
    decay = np.where(past, lag**-beta, 0.0)  # D (B, K)
    score = (log_prior + (decay * delta_log_r) @ c.T) / temp  # (B, S), up to a constant per batch
    w = softmax_masked(score, task.visible)
    now = (task.batch, np.arange(n_trials))
    mean_truth = (w @ c)[now]  # (K,) zero where nothing is visible
    pred = (1.0 - eps) * mean_truth + eps * alpha

    def backward(dl_dpred):
        g = np.zeros((n_batches, n_trials))
        g[now] = dl_dpred
        # d(loss)/d score[b, s] sums g_k w[b, s] (q[s, k] - pred_k) over
        # batch b's trials k, where q[s, k] - pred_k = (1 - eps) (c[s, k] - mean_k);
        # d_unnorm is that over T, the gradient in the log-weights (B, S)
        d_unnorm = (1.0 - eps) / temp * w * (g @ c.T - (g @ mean_truth)[:, None])
        d_theta = None if task.features is None else d_unnorm.sum(axis=0) @ task.features
        # per trial, d(loss)/d log r summed over the rules true on it; over
        # the false ones it is the negative, as the rows of d_unnorm sum to zero
        on_true = d_unnorm @ c  # (B, K)
        true_rules = (decay * on_true).sum(axis=0)
        # d log r / d q = sign / r, zero where r was clipped
        inv_r0 = np.divide(sign, r0, out=np.zeros_like(r0), where=r0 > 1e-300)
        inv_r1 = np.divide(sign, r1, out=np.zeros_like(r1), where=r1 > 1e-300)
        d_q0, d_q1 = -inv_r0 @ true_rules, inv_r1 @ true_rules
        d_eps = dl_dpred @ (alpha - mean_truth) + alpha * d_q0 + (alpha - 1.0) * d_q1
        d_alpha = eps * (dl_dpred.sum() + d_q0 + d_q1)
        d_beta = -((np.log(lag) * decay * on_true).sum(axis=0) @ delta_log_r)
        d_temp = -np.vdot(d_unnorm, score)
        return d_theta, d_eps, d_alpha, d_beta, d_temp

    return pred, w, backward


def _shape_rows(task: ShapeTask, u, dim, grad, train):
    """(loss over the `train` trials, every trial's prediction) of one
    curve; adds d(loss)/du into grad (P,) when given."""
    params = _unpack(u, dim)
    pred, _, backward = shape_forward(task, params)
    target = task.targets
    loss = float(np.where(train, weighted_bce_loss(pred, target), 0.0).sum())
    if grad is not None:
        p_c = np.clip(pred, 1e-6, 1.0 - 1e-6)
        inside = train & (pred > 1e-6) & (pred < 1.0 - 1e-6)
        d_theta, d_eps, d_alpha, d_beta, d_temp = backward(
            np.where(inside, (p_c - target) / (p_c * (1.0 - p_c)), 0.0)
        )
        if d_theta is not None:
            grad[:dim] += d_theta
        eps, alpha = params.epsilon, params.alpha
        grad[dim] += d_eps * eps * (1.0 - eps)
        grad[dim + 1] += d_alpha * alpha * (1.0 - alpha)
        grad[dim + 2] += d_beta * params.beta
        grad[dim + 3] += d_temp * params.temperature
    return loss, pred


def _softplus(x):
    return np.logaddexp(0.0, x)


def loss_and_grad(u: np.ndarray, tasks, dim: int, want_grad: bool = True, rows=None):
    """Total loss over all tasks and its gradient in unconstrained space.

    `tasks` is a sequence of tasks or a TaskBatch. `u` is one parameter
    vector (P,) or a stack (F, P); `rows`, an (F, N) bool mask over the
    N prediction rows, picks the rows each fit's loss counts (default
    all). Returns (loss, grad, one (id, prediction, target) per row)
    for one vector, (loss (F,), grad (F, P), predictions (F, N)) for a
    stack; grad is None without want_grad.
    """
    batch = stack_tasks(tasks)
    stack = np.atleast_2d(u)
    if rows is None:
        rows = np.ones((len(stack), len(batch.ids)), dtype=bool)
    grad = np.zeros_like(stack) if want_grad else None
    loss = np.zeros(len(stack))
    pred = np.empty((len(stack), len(batch.ids)))
    n = len(batch.row_task)
    if n:
        loss, pred[:, :n] = _number_rows(stack, batch, dim, rows[:, :n], grad)
    for f in range(len(stack)):
        col = n
        for task in batch.shapes:
            end = col + len(task.ids)
            task_loss, pred[f, col:end] = _shape_rows(
                task, stack[f], dim, None if grad is None else grad[f], rows[f, col:end]
            )
            loss[f] += task_loss
            col = end
    bad = ~(np.isfinite(loss) & (grad is None or np.isfinite(grad).all(axis=1)))
    if bad.any():
        raise NonFinite(np.flatnonzero(bad))
    if np.ndim(u) == 2:
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


def adam_step(
    u: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad**2
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    return u - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Full fit


@dataclass
class FitConfig:
    learning_rate: float = 0.001
    epochs: int = 1000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    trainable: Tuple[str, ...] = ("theta", "epsilon", "temperature", "platt")

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        unknown = set(self.trainable) - set(ALL_PARAM_GROUPS)
        if unknown:
            raise ValueError(f"unknown trainable groups: {sorted(unknown)}")


@dataclass
class FitResult:
    params: ModelParams
    loss_trace: List[float]
    holdout_predictions: List[Tuple[str, float, float]]  # (id, pred, target)

    def holdout_r2(self) -> float:
        preds = [p for _, p, _ in self.holdout_predictions]
        targets = [t for _, _, t in self.holdout_predictions]
        return r_squared(preds, targets)


def trainable_mask(dim: int, groups: Sequence[str]) -> np.ndarray:
    names = ["theta"] * dim + ["epsilon", "alpha", "beta", "temperature", "platt", "platt"]
    return np.isin(names, list(groups))


def fit_params(
    config: FitConfig,
    train_tasks,
    init: ModelParams,
    holdout_tasks: Sequence = (),
    train_rows: Optional[np.ndarray] = None,
):
    """Full-batch Adam on the trainable unconstrained parameters.

    Deterministic given (config, tasks, init); holdout predictions are
    produced with the final parameters only. With `train_rows`, an
    (F, N) bool mask over the rows of `train_tasks`, F fits from `init`
    run as one loop over an (F, P) parameter stack; fit f's loss counts
    the rows it marks, its holdout predictions are the rows it leaves
    out (in row order), and a list of the F results is returned
    (`holdout_tasks` is not used then).
    """
    dim = len(init.theta)
    batch = stack_tasks(train_tasks)
    rows = np.asarray([np.ones(len(batch.ids))] if train_rows is None else train_rows, dtype=bool)
    stack = np.tile(pack_params(init), (len(rows), 1))
    mask = trainable_mask(dim, config.trainable)
    state = AdamState.zeros(stack.shape)
    losses = []
    for epoch in range(config.epochs if mask.any() else 1):
        try:
            loss, grad, _ = loss_and_grad(stack, batch, dim, want_grad=mask.any(), rows=rows)
        except NonFinite as error:
            raise NonFinite(error.folds, epoch) from None
        losses.append(loss)
        if mask.any():
            stack = adam_step(
                stack,
                np.where(mask, grad, 0.0),
                state,
                lr=config.learning_rate,
                beta1=config.adam_beta1,
                beta2=config.adam_beta2,
                eps=config.adam_eps,
            )
    traces = np.array(losses).T.tolist()
    if train_rows is None:
        _, _, holdout = loss_and_grad(stack[0], holdout_tasks, dim, want_grad=False)
        return FitResult(_unpack(stack[0], dim), traces[0], holdout)
    _, _, pred = loss_and_grad(stack, batch, dim, want_grad=False, rows=rows)
    return [
        FitResult(
            _unpack(u, dim),
            trace,
            [(batch.ids[n], pred[f, n], batch.targets[n]) for n in np.flatnonzero(~train)],
        )
        for f, (u, trace, train) in enumerate(zip(stack, traces, rows))
    ]

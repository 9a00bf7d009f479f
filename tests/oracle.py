"""Per-hypothesis reference implementation of the priors, the
likelihoods, the posterior weights and the predictions.

The library computes all of these as array formulas over compiled
tasks (`harness.infer_number`, `harness.infer_shape` and the fit's
forward passes). This module computes them one hypothesis, one example
and one trial at a time, through the interpreters (`eval_number` and
`dsl.shape.eval_shape`) and log-sum-exp, so the parity tests compare
the library against an independent reference. Its own sentinels mark
impossible data: -inf log-likelihoods become NEG_LARGE, and log-weights
at or below ZERO_CUTOFF get weight 0, so epsilon = 0 is a case it can
weigh. It imports only the shape interpreter, the number language's
nodes, comparisons and predicates (`dsl.number._holds`), the DSL's
syntax error, the hashed features, the error of a pool without log q,
the PosteriorState container and the fold cut (`kfold_rows`) from the
library.

`eval_number` is the reference for the library's number evaluator
(`dsl.number.extension_values`, one walk over x = 1..100 at once): it
walks the tree for one x at a time, with Python ints saturated by
`_sat`, and `number_extension` collects its extension over 1..100.

`decay_weights` is the memory decay (1 + K - k) ** -beta of K trials,
which the library reads off the lookup each `fit.ShapeTask` compiles,
and `platt` the recalibration expit(b + a logit(p)) the number passes
apply to a prediction.

`shape_forward_dense` is the reference for the library's shape kernel
(`fit.shape_forward`): the same forward pass and gradient written over
dense (S, K) arrays of q, r and log r, valid for any truth values, one
row per rule of `rule_level(task)`.

`number_rows_dense` is the reference for the library's number kernel
(`fit.loss_and_grad` on number tasks): the same loss, predictions and
gradient written over dense per-row arrays of each row's task weights.

`platt_cv` is the reference for the number baselines' calibration
(`harness.cross_validate` over one-hypothesis raw tasks): one Adam
loop over the Platt pair (a, b) per fold, on scalars and dot products.

`tokenize` is the reference for the DSL tokenizer
(`dsl.number._tokenize`): one regex match per token from the current
position, and an error at the first position no token matches or at
the first number longer than `int()` converts.
`canonicalize_nl` is the regex form of `types.canonicalize_nl`.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys

import numpy as np
from scipy.special import expit, logsumexp

from nlconcepts.dsl import DslSyntaxError
from nlconcepts.dsl.number import COMPARE, SAT, BoolLit, BoolOp, Cmp, InSet, Lit, Not, Pred, Var, _holds
from nlconcepts.dsl.shape import eval_shape
from nlconcepts.fit import kfold_rows
from nlconcepts.posterior import MissingLogQ, PosteriorState
from nlconcepts.prior import extract_features

NEG_LARGE = -1e18  # finite stand-in for the log-likelihood of impossible data
ZERO_CUTOFF = NEG_LARGE / 2  # log-weights at or below this get weight 0


class DegenerateState(ValueError):
    """A prediction from a posterior in which every weight is 0."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|!=|[-+*^<>=(){},%.]))"
)
_CMP_CANON = {"=": "==", "%": "mod"}


def tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            if src[pos:].strip():
                raise DslSyntaxError(f"unexpected character {src[pos:].strip()[0]!r}", pos)
            break
        if m.group("num") is not None:
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(m.group("num")):
                raise DslSyntaxError(f"number longer than {limit} digits", m.start())
            tokens.append(("num", int(m.group("num")), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            op = _CMP_CANON.get(m.group("op"), m.group("op"))
            tokens.append(("op", op, m.start()))
        pos = m.end()
    tokens.append(("eof", None, len(src)))
    return tokens


_WS_RUN = re.compile(r"\s+")


def canonicalize_nl(text: str) -> str:
    out = _WS_RUN.sub(" ", text.strip()).lower()
    if out.endswith("."):
        out = out[:-1].rstrip()
    return out


# ---------------------------------------------------------------------------
# Interpreters


def _sat(v: int) -> int:
    return max(-SAT, min(SAT, v))


def _eval_arith(node, x: int) -> int:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return x
    a = _eval_arith(node.left, x)
    b = _eval_arith(node.right, x)
    if node.op == "+":
        return _sat(a + b)
    if node.op == "-":
        return _sat(a - b)
    if node.op == "*":
        return _sat(a * b)
    if node.op == "mod":
        return a % b if b != 0 else 0
    if node.op == "^":
        if b < 0:
            return 0
        out = 1
        for _ in range(min(b, 64)):
            out = _sat(out * a)
            if abs(out) >= SAT:
                break
        return out
    raise AssertionError(node.op)


def _eval_pred(name: str, args, x: int) -> bool:
    return _holds(name, [_eval_arith(a, x) for a in args])


def eval_number(expr, x: int) -> bool:
    """Evaluate a parsed number expression at x. Total for any integer input."""
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            return eval_number(expr.left, x) and eval_number(expr.right, x)
        return eval_number(expr.left, x) or eval_number(expr.right, x)
    if isinstance(expr, Not):
        return not eval_number(expr.arg, x)
    if isinstance(expr, Cmp):
        return COMPARE[expr.op](_eval_arith(expr.left, x), _eval_arith(expr.right, x))
    if isinstance(expr, Pred):
        return _eval_pred(expr.name, expr.args, x)
    if isinstance(expr, InSet):
        return _eval_arith(expr.arg, x) in expr.members
    raise TypeError(f"not a boolean expression: {expr!r}")


def number_extension(expr) -> frozenset:
    """The set of integers in 1..100 satisfying the number expression,
    by the reference interpreter."""
    return frozenset(x for x in range(1, 101) if eval_number(expr, x))


def extension(h) -> frozenset:
    return number_extension(h.program.expr) if h.parsed else frozenset()


def trial_member(h, t) -> bool:
    return h.parsed and eval_shape(h.program.expr, t.test, t.batch)


# ---------------------------------------------------------------------------
# Priors


def prior_of(kind, theta=(), scores=None):
    """The unnormalized log prior weight of a hypothesis, as a function
    of it: 0 under the uniform prior, theta . phi(h) under the tuned one
    (phi the hashed features of h's text, len(theta) buckets), and the
    score of h's canonical text under the external one (a KeyError for
    a text without one)."""
    if kind == "uniform":
        return lambda h: 0.0
    if kind == "tuned":
        theta = np.asarray(theta, dtype=float)
        return lambda h: float(theta @ extract_features(h.nl_text, len(theta)))
    return lambda h: float(scores[h.key])


# ---------------------------------------------------------------------------
# Likelihoods


def number_loglikelihood(h, examples, epsilon) -> float:
    ext = extension(h)
    size = len(ext)
    total = 0.0
    for x in examples.examples:
        inside = (1.0 - epsilon) / size if size and x in ext else 0.0
        p = inside + epsilon / 100.0
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def trial_response_prob(h, t, epsilon, alpha) -> float:
    p_positive = (1.0 - epsilon) * float(trial_member(h, t)) + epsilon * alpha
    return p_positive if t.label else 1.0 - p_positive


def decay_weights(n_trials: int, beta: float) -> np.ndarray:
    """(1 + K - k) ** -beta for k = 1..K; the last trial gets weight 1."""
    return np.arange(n_trials, 0, -1, dtype=float) ** -beta


def decayed_sequence_loglik(h, trials, epsilon, alpha, beta) -> float:
    trials = list(trials)
    total = 0.0
    for k, t in enumerate(trials, start=1):
        p = trial_response_prob(h, t, epsilon, alpha)
        if p <= 0.0:
            return -math.inf
        total += (1.0 + len(trials) - k) ** -beta * math.log(p)
    return total


def _pool_vector(pool, loglik_of) -> np.ndarray:
    out = np.empty(len(pool))
    for i, h in enumerate(pool):
        ll = loglik_of(h) if h.parsed else -math.inf
        out[i] = NEG_LARGE if ll == -math.inf else ll
    return out


def pool_number_logliks(pool, examples, epsilon) -> np.ndarray:
    return _pool_vector(pool, lambda h: number_loglikelihood(h, examples, epsilon))


def pool_shape_logliks(pool, trials, epsilon, alpha, beta) -> np.ndarray:
    return _pool_vector(pool, lambda h: decayed_sequence_loglik(h, trials, epsilon, alpha, beta))


def online_shape_logliks(pool, curve, upto_batch, epsilon, alpha, beta) -> np.ndarray:
    """Per pool entry, the decayed log-likelihood of the trials of the
    curve's first `upto_batch` batches, NEG_LARGE for an entry not yet
    visible: before the last batch an entry joins at its source batch
    (batch 1 without one), after it every entry is visible."""
    seen = [t for batch in curve.batches[:upto_batch] for t in batch]
    every = upto_batch == len(curve.batches)
    return _pool_vector(
        pool,
        lambda h: decayed_sequence_loglik(h, seen, epsilon, alpha, beta)
        if every or (h.source_batch or 1) <= upto_batch + 1
        else -math.inf,
    )


# ---------------------------------------------------------------------------
# Posterior weights


def _normalize(log_unnorm, temperature):
    """Softmax of log-weights / T over the live entries; (weights,
    degenerate)."""
    alive = log_unnorm > ZERO_CUTOFF
    if not np.any(alive):
        return np.zeros_like(log_unnorm), True
    scaled = np.where(alive, log_unnorm / temperature, NEG_LARGE)
    weights = np.exp(scaled - logsumexp(scaled[alive]))
    weights[~alive] = 0.0
    return weights / weights.sum(), False


def _state(kept, n_proposals, log_unnorm, temperature) -> PosteriorState:
    weights, degenerate = _normalize(log_unnorm, temperature)
    sum_sq = float(np.sum(weights**2))
    diagnostics = {
        "proposals": n_proposals,
        "unique": len(kept),
        "duplicates_merged": n_proposals - len(kept),
        "unparsed": sum(1 for h in kept if not h.parsed),
        "zero_weight": int(np.sum(log_unnorm <= ZERO_CUTOFF)),
        "ess": 1.0 / sum_sq if sum_sq > 0 else 0.0,
        "max_weight": float(np.max(weights, initial=0.0)),
    }
    return PosteriorState(kept, weights, degenerate, diagnostics)


def dedup_weights(pool, prior, loglik, temperature=1.0) -> PosteriorState:
    unique, unique_ll, seen = [], [], set()
    for h, ll in zip(pool, loglik):
        if h.key not in seen:
            seen.add(h.key)
            unique.append(h)
            unique_ll.append(ll)
    log_unnorm = np.array([prior(h) + ll for h, ll in zip(unique, unique_ll)])
    return _state(unique, len(pool), log_unnorm, temperature)


def importance_weights(pool, prior, loglik) -> PosteriorState:
    log_unnorm = []
    for h, ll in zip(pool, loglik):
        if h.proposal_logprob is None:
            raise MissingLogQ(h.nl_text)
        log_unnorm.append(prior(h) + ll - h.proposal_logprob)
    return _state(list(pool), len(pool), np.array(log_unnorm), 1.0)


# ---------------------------------------------------------------------------
# Predictions


def predict_membership(state, x_test) -> float:
    if state.degenerate:
        raise DegenerateState("all pool hypotheses have zero weight")
    return float(sum(w for w, h in zip(state.weights, state.pool) if x_test in extension(h)))


def predict_response(state, t, epsilon, alpha) -> float:
    if state.degenerate:
        raise DegenerateState("all pool hypotheses have zero weight")
    return float(
        sum(
            w * ((1.0 - epsilon) * float(trial_member(h, t)) + epsilon * alpha)
            for w, h in zip(state.weights, state.pool)
        )
    )


# ---------------------------------------------------------------------------
# Shape kernel


def _softmax_rows(scores, alive):
    """Per row, the softmax of `scores` over the `alive` entries; a row
    with none alive is all zeros."""
    out = np.zeros_like(scores)
    for b, (x, live) in enumerate(zip(scores, alive)):
        if live.any():
            out[b, live] = np.exp(x[live] - logsumexp(x[live]))
    return out


def rule_level(task):
    """A shape task with one class per rule: every class array of `task`
    gathered by its `rule_class`, and a count of 1 for each rule from
    its `first_batch` on."""
    rule_class = task.rule_class
    visible = task.first_batch <= np.arange(len(task.count))[:, None]
    return dataclasses.replace(
        task,
        features=None if task.features is None else task.features[rule_class],
        base_logprior=task.base_logprior[rule_class],
        consist=task.consist[rule_class],
        count=visible.astype(float),
        rule_class=np.arange(len(rule_class)),
    )


def _dense_terms(task, params):
    """(log prior (S,), sign (K,), r (S, K), log r (S, K), lag (B, K),
    D (B, K)) of the online shape model: r[s, k] is the probability of
    trial k's label under rule s, D[b, k] = lag[b, k]^-beta the decay
    of trial k before batch b (0 for trials not yet seen)."""
    eps, alpha = params.epsilon, params.alpha
    n_batches, n_trials = task.visible.shape[0], len(task.labels)
    log_prior = task.base_logprior
    if task.features is not None:
        log_prior = log_prior + task.features @ params.theta
    sign = np.where(task.labels > 0, 1.0, -1.0)
    q = (1.0 - eps) * task.consist + eps * alpha
    r = np.where(sign > 0, q, 1.0 - q)
    log_r = np.log(np.maximum(r, 1e-300))
    lag = np.searchsorted(task.batch, np.arange(n_batches))[:, None] - np.arange(n_trials)
    past = lag > 0
    lag = np.where(past, lag, 1).astype(float)
    decay = np.where(past, lag**-params.beta, 0.0)
    return log_prior, sign, r, log_r, lag, decay


def shape_forward_dense(task, params):
    """(predictions (K,), weights (B, S), backward) of the online shape
    model, as `fit.shape_forward` returns them, from dense (S, K) arrays;
    backward(d(loss)/d(prediction)) gives (theta or None, epsilon,
    alpha, beta, temperature) gradients."""
    eps, alpha, temp = params.epsilon, params.alpha, params.temperature
    c = task.consist
    log_prior, sign, r, log_r, lag, decay = _dense_terms(task, params)
    log_unnorm = log_prior + decay @ log_r.T
    w = _softmax_rows(log_unnorm / temp, task.visible)
    now = (task.batch, np.arange(len(task.labels)))
    mean_truth = (w @ c)[now]
    pred = (1.0 - eps) * mean_truth + eps * alpha

    def backward(dl_dpred):
        g = np.zeros(decay.shape)
        g[now] = dl_dpred
        d_score = (1.0 - eps) * w * (g @ c.T - (g @ mean_truth)[:, None])
        d_unnorm = d_score / temp
        d_theta = None if task.features is None else d_unnorm.sum(axis=0) @ task.features
        d_log_r = d_unnorm.T @ decay
        d_q = np.divide(sign * d_log_r, r, out=np.zeros_like(r), where=r > 1e-300)
        d_eps = dl_dpred @ (alpha - mean_truth) + (d_q * (alpha - c)).sum()
        d_alpha = eps * (dl_dpred.sum() + d_q.sum())
        d_beta = -((d_unnorm.T @ (np.log(lag) * decay)) * log_r).sum()
        d_temp = -(d_score * log_unnorm).sum() / temp**2
        return d_theta, d_eps, d_alpha, d_beta, d_temp

    return pred, w, backward


def shape_forward_magnitudes(task, params, dl_dpred):
    """Magnitudes that bound rounding in the shape kernel, in its dense
    form (`shape_forward_dense`) and in the affine one
    (`fit.shape_forward`), which writes log r[s, k] as
    log r0[k] + c[s, k] (log r1[k] - log r0[k]) and 1 / r likewise, with
    r0, r1 the probabilities of trial k's label under a false and a true
    rule.

    Returns (z, grads). z is the largest sum of magnitudes behind the
    tempered log-weight of a visible rule,
    (|log prior| + sum_k D[b, k] |log r[s, k]|) / T. grads holds, for
    (theta or None, epsilon, alpha, beta, temperature), each gradient's
    sum with every factor replaced by its magnitude. Each |log r| and
    1 / r is the larger of the two forms' terms. A sum of n terms, added
    in any order, is off by at most about n u times the sum of their
    magnitudes (u the unit roundoff)."""
    eps, alpha, temp = params.epsilon, params.alpha, params.temperature
    c = task.consist
    log_prior, sign, _, _, lag, decay = _dense_terms(task, params)
    q0, q1 = eps * alpha, (1.0 - eps) + eps * alpha
    r0, r1 = np.where(sign > 0, q0, 1.0 - q0), np.where(sign > 0, q1, 1.0 - q1)
    log_r0, log_r1 = np.log(np.maximum(r0, 1e-300)), np.log(np.maximum(r1, 1e-300))
    log_r = np.abs(log_r0) + c * np.abs(log_r1 - log_r0)
    inv_r0 = np.divide(1.0, r0, out=np.zeros_like(r0), where=r0 > 1e-300)
    inv_r = inv_r0 + c * np.divide(1.0, r1, out=np.zeros_like(r1), where=r1 > 1e-300)
    size = np.abs(log_prior) + decay @ log_r.T
    _, w, _ = shape_forward_dense(task, params)
    now = (task.batch, np.arange(len(task.labels)))
    mean_truth = (w @ c)[now]
    g = np.zeros(decay.shape)
    g[now] = np.abs(dl_dpred)
    d_score = (1.0 - eps) * w * (g @ c.T + (g @ mean_truth)[:, None])
    d_unnorm = d_score / temp
    d_theta = None if task.features is None else d_unnorm.sum(axis=0) @ np.abs(task.features)
    d_q = (d_unnorm.T @ decay) * inv_r
    d_eps = np.abs(dl_dpred) @ np.abs(alpha - mean_truth)
    d_eps += (d_q * np.maximum(alpha, np.abs(alpha - c))).sum()
    d_alpha = eps * (np.abs(dl_dpred).sum() + d_q.sum())
    d_beta = ((d_unnorm.T @ (np.log(lag) * decay)) * log_r).sum()
    d_temp = (d_score * size).sum() / temp**2
    z = float(size[task.visible].max(initial=0.0)) / temp
    return z, (d_theta, d_eps, d_alpha, d_beta, d_temp)


# ---------------------------------------------------------------------------
# Number kernel


def number_rows_dense(tasks, stack, dim, rows):
    """The number fit's loss, predictions and gradient (`fit.loss_and_grad`
    on number tasks) as a dense pass over the judgment rows: each row
    gathers its task's weights into (F, N, S) arrays, and the gradient
    reaches the tasks through an (N, T) one-hot. `tasks` are
    NumberTasks, `stack` (F, P) unconstrained vectors laid out as
    `fit.pack_params` lays them out, `rows` (F, N) the rows each loss
    counts, in task order.

    Returns (loss (F,), predictions (F, N), grad (F, P), magnitudes
    (F, P), z (F,)). magnitudes holds each gradient's sum with every
    factor replaced by its magnitude, where a row's t - p counts as
    t + p, since a kernel may sum the t and p terms apart. z is the
    largest sum of magnitudes behind the tempered log-weight of a live
    hypothesis, (|log prior| + |log likelihood|) / T, term by term.

    The weights are the softmax shifted by the top score, as the library
    computes them, not a log-sum-exp: the Platt gradient divides by
    p (1 - p), so near p = 1 a relative error d in the weights becomes
    d / (1 - p) in the gradient, up to 1e6 d."""
    width = max(len(t.parsed) for t in tasks)

    def pad(a, axis=0):
        widths = [(0, 0)] * a.ndim
        widths[axis] = (0, width - a.shape[axis])
        return np.pad(a, widths)

    alive = np.array([pad(t.parsed) for t in tasks], dtype=bool)
    inv_size = np.array([pad(t.inv_size) for t in tasks])
    n_in = np.array([pad(t.member.sum(axis=1)) for t in tasks])
    n_out = np.array([t.member.shape[1] for t in tasks])[:, None] - n_in
    base = np.array([pad(t.base_logprior) for t in tasks])
    tuned = tasks[0].features is not None
    test_member = np.concatenate([pad(t.test_member, axis=1) for t in tasks])  # (N, S)
    row_task = np.repeat(np.arange(len(tasks)), [len(t.targets) for t in tasks])
    r = np.concatenate([t.targets for t in tasks])

    eps = expit(stack[:, dim])[:, None, None]
    temp = np.exp(stack[:, dim + 3])[:, None, None]
    log_prior, prior_size = base, np.abs(base)
    if tuned:
        features = np.array([pad(t.features) for t in tasks])  # (T, S, D)
        log_prior = log_prior + np.einsum("tsd,fd->fts", features, stack[:, :dim])
        prior_size = prior_size + np.einsum("tsd,fd->fts", np.abs(features), np.abs(stack[:, :dim]))
    g_in = (1.0 - eps) * inv_size + eps / 100.0
    g_out = eps / 100.0
    log_g_in, log_g_out = np.log(np.maximum(g_in, 1e-300)), np.log(np.maximum(g_out, 1e-300))
    loglik = np.where(alive, n_in * log_g_in + n_out * log_g_out, 0.0)
    log_unnorm = log_prior + loglik
    size = prior_size + np.where(alive, n_in * np.abs(log_g_in) + n_out * np.abs(log_g_out), 0.0)
    z_max = np.where(alive, size / temp, 0.0).max(axis=(1, 2))

    # softmax over the live hypotheses of each task, shifted by the top score
    w = np.zeros(log_unnorm.shape)
    for t, live in enumerate(alive):
        if live.any():
            scaled = log_unnorm[:, t, live] / temp[:, 0]
            e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            w[:, t, live] = e / e.sum(axis=1, keepdims=True)

    a, b = stack[:, dim + 4, None], stack[:, dim + 5, None]
    w_rows = w[:, row_task]  # (F, N, S)
    p_raw = np.einsum("ns,fns->fn", test_member, w_rows)
    p_raw = np.where(alive.any(axis=1)[row_task], p_raw, 0.5)
    p_c = np.clip(p_raw, 1e-6, 1.0 - 1e-6)
    logit_p = np.log(p_c / (1.0 - p_c))
    zeta = b + a * logit_p
    pred = expit(zeta)
    loss = np.where(rows, r * np.logaddexp(0.0, -zeta) + (1 - r) * np.logaddexp(0.0, zeta), 0.0).sum(axis=1)

    grad, mag = np.zeros(stack.shape), np.zeros(stack.shape)
    dl_dz = np.where(rows, pred - r, 0.0)
    grad[:, dim + 4] = (dl_dz * logit_p).sum(axis=1)
    mag[:, dim + 4] = np.abs(dl_dz * logit_p).sum(axis=1)
    grad[:, dim + 5] = dl_dz.sum(axis=1)
    mag[:, dim + 5] = np.abs(dl_dz).sum(axis=1)
    inside = (p_raw > 1e-6) & (p_raw < 1.0 - 1e-6)
    dl_dp = np.where(inside, dl_dz * a / (p_c * (1.0 - p_c)), 0.0)
    one_hot = np.eye(len(tasks))[row_task]  # (N, T)
    per_row = (test_member - p_raw[:, :, None]) * w_rows * dl_dp[:, :, None]
    coeff = np.einsum("fns,nt->fts", per_row, one_hot) / temp
    per_row_abs = (test_member + np.abs(p_raw[:, :, None])) * w_rows * np.abs(dl_dp[:, :, None])
    coeff_abs = np.einsum("fns,nt->fts", per_row_abs, one_hot) / temp
    if tuned:
        grad[:, :dim] = np.einsum("fts,tsd->fd", coeff, features)
        mag[:, :dim] = np.einsum("fts,tsd->fd", coeff_abs, np.abs(features))
    dll_deps = np.where(alive, n_in * (1.0 / 100.0 - inv_size) / g_in + n_out / 100.0 / g_out, 0.0)
    dll_abs = np.where(alive, n_in * np.abs(1.0 / 100.0 - inv_size) / g_in + n_out / 100.0 / g_out, 0.0)
    grad[:, dim] = (coeff * dll_deps).sum(axis=(1, 2)) * (eps * (1.0 - eps))[:, 0, 0]
    mag[:, dim] = (coeff_abs * dll_abs).sum(axis=(1, 2)) * (eps * (1.0 - eps))[:, 0, 0]
    safe_u = np.where(alive, log_unnorm, 0.0)
    grad[:, dim + 3] = -(coeff * safe_u).sum(axis=(1, 2))
    mag[:, dim + 3] = (coeff_abs * np.where(alive, size, 0.0)).sum(axis=(1, 2))
    return loss, pred, grad, mag, z_max


# ---------------------------------------------------------------------------
# Platt calibration


def platt(p: float, a: float, b: float) -> float:
    """expit(b + a logit(p)), p clamped to [1e-6, 1 - 1e-6]: the
    two-parameter logistic recalibration, identity at a=1, b=0."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return float(expit(b + a * math.log(p / (1.0 - p))))


def fit_platt(raw, targets, epochs=1000, lr=0.001):
    """(a, b) of expit(b + a logit(p)) fit from (1, 0) by full-batch
    Adam (betas 0.9, 0.999, eps 1e-8) on the summed cross-entropy, the
    raw predictions clamped to [1e-6, 1 - 1e-6]."""
    p = np.clip(np.asarray(raw, dtype=float), 1e-6, 1.0 - 1e-6)
    x, r = np.log(p / (1.0 - p)), np.asarray(targets, dtype=float)
    u, m, v = np.array([1.0, 0.0]), np.zeros(2), np.zeros(2)
    for t in range(1, epochs + 1):
        dl_dz = expit(u[1] + u[0] * x) - r
        grad = np.array([float(dl_dz @ x), float(dl_dz.sum())])
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        u = u - lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return float(u[0]), float(u[1])


def platt_cv(rows, k_folds, seed, lr):
    """Cross-validated Platt calibration of raw predictions. `rows` are
    (id, raw prediction, human) in row order; the folds are
    `kfold_rows`'s training masks over the rows. Returns (id, calibrated
    prediction, human) per held-out row: fold after fold, each fold's
    rows in row order. Each fold's `fit_platt` runs at learning rate
    `lr`."""
    out = []
    for trains in kfold_rows(len(rows), min(k_folds, len(rows)), seed):
        train = [row for row, t in zip(rows, trains) if t]
        a, b = fit_platt([raw for _, raw, _ in train], [human for _, _, human in train], lr=lr)
        for (i, raw, human), t in zip(rows, trains):
            if not t:
                out.append((i, platt(raw, a, b), human))
    return out

"""Per-hypothesis reference implementation of the likelihoods, the
posterior weights and the predictions.

The library computes all of these as array formulas over compiled
extension and truth matrices. This module computes them one hypothesis,
one example and one trial at a time, through the interpreters
(`number_extension`, `eval_shape`) and log-sum-exp, so the parity tests
compare the library against an independent reference. It imports only
the interpreters, the prior, the sentinel constants and the
PosteriorState container from the library.

`shape_forward_dense` is the reference for the library's shape kernel
(`fit.shape_forward`): the same forward pass and gradient written over
dense (S, K) arrays of q, r and log r, valid for any truth values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from nlconcepts.dsl import eval_shape, number_extension
from nlconcepts.likelihood import NEG_LARGE
from nlconcepts.posterior import ZERO_CUTOFF, DegenerateState, MissingLogQ, PosteriorState
from nlconcepts.prior import prior_logweight


def extension(h) -> frozenset:
    return number_extension(h.program.expr) if h.parsed else frozenset()


def trial_member(h, t) -> bool:
    return h.parsed and eval_shape(h.program.expr, t.test, t.batch)


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
    log_unnorm = np.array([prior_logweight(prior, h) + ll for h, ll in zip(unique, unique_ll)])
    return _state(unique, len(pool), log_unnorm, temperature)


def importance_weights(pool, prior, loglik) -> PosteriorState:
    log_unnorm = []
    for h, ll in zip(pool, loglik):
        if h.proposal_logprob is None:
            raise MissingLogQ(h.nl_text)
        log_unnorm.append(prior_logweight(prior, h) + ll - h.proposal_logprob)
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

"""Per-hypothesis reference implementation of the likelihoods, the
posterior weights and the predictions.

The library computes all of these as array formulas over compiled
extension and truth matrices. This module computes them one hypothesis,
one example and one trial at a time, through the interpreters
(`number_extension`, `eval_shape`) and log-sum-exp, so the parity tests
compare the library against an independent reference. It imports only
the interpreters, the prior, the sentinel constants and the
PosteriorState container from the library.
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

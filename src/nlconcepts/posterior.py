"""Monte Carlo posterior machinery over hypothesis pools.

Two weighting schemes: deduplicated prior-times-likelihood weights (the
default, usable with proposal sources that hide their sample
probabilities) and classic importance weights (requires per-sample log
q). All weight arithmetic happens in log space via log-sum-exp; a
learnable temperature exponentiates the unnormalized weights by 1/T.

Like `likelihood`, this is the scalar path of the public posterior API
and the parity tests' oracle; experiments compute the same weights from
compiled arrays (`fit.number_weights`, `fit.shape_forward`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np
from scipy.special import expit, logit, logsumexp

from .likelihood import NEG_LARGE, EvalCache
from .prior import prior_logweight
from .types import Hypothesis, Trial

# unnormalized log-weights at or below this are treated as zero weight
ZERO_CUTOFF = NEG_LARGE / 2


class MissingLogQ(ValueError):
    """Importance weighting needs every proposal's log q."""


@dataclass
class PosteriorState:
    pool: List[Hypothesis]
    weights: np.ndarray
    degenerate: bool = False
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.pool):
            raise ValueError("one weight per pool member required")
        if not self.degenerate:
            if np.any(self.weights < 0):
                raise ValueError("weights must be non-negative")
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")

    def map_hypothesis(self) -> Hypothesis:
        return self.pool[int(np.argmax(self.weights))]

    def to_json(self) -> str:
        order = np.argsort(-self.weights, kind="stable")
        return json.dumps(
            {
                "hypotheses": [
                    {"nl": self.pool[i].nl_text, "weight": float(self.weights[i])}
                    for i in order
                ],
                "degenerate": self.degenerate,
                "diagnostics": self.diagnostics,
            },
            indent=2,
        )


def dedup_pool(pool: Sequence[Hypothesis]):
    """Merge duplicates by canonical NL, keeping the first occurrence.

    Returns (unique_pool, counts) where counts[i] is the multiplicity of
    unique hypothesis i in the input.
    """
    seen: Dict[str, int] = {}
    unique: List[Hypothesis] = []
    counts: List[int] = []
    for h in pool:
        if h.key in seen:
            counts[seen[h.key]] += 1
        else:
            seen[h.key] = len(unique)
            unique.append(h)
            counts.append(1)
    return unique, np.array(counts)


def weight_diagnostics(weights) -> Dict[str, float]:
    """Effective sample size 1 / sum(w^2) and the largest weight of a
    normalized weight vector; both 0 when every weight is 0."""
    weights = np.asarray(weights, dtype=float)
    sum_sq = float(np.sum(weights**2))
    return {
        "ess": 1.0 / sum_sq if sum_sq > 0 else 0.0,
        "max_weight": float(np.max(weights, initial=0.0)),
    }


def _normalize(log_unnorm: np.ndarray, temperature: float):
    """Softmax of log-weights / T; flags a degenerate (all-zero) pool."""
    alive = log_unnorm > ZERO_CUTOFF
    if not np.any(alive):
        return np.zeros_like(log_unnorm), True
    scaled = np.where(alive, log_unnorm / temperature, NEG_LARGE)
    weights = np.exp(scaled - logsumexp(scaled[alive]))
    weights[~alive] = 0.0
    return weights / weights.sum(), False


def dedup_weights(
    pool: Sequence[Hypothesis],
    prior,
    loglik: Sequence[float],
    temperature: float = 1.0,
) -> PosteriorState:
    """Deduplicated posterior weights: w ~ (p(C) p(X|C)) ** (1/T).

    `loglik` gives one log-likelihood per *input* pool entry; duplicate
    entries must carry equal values (they describe the same utterance).
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    pool = list(pool)
    loglik = np.asarray(loglik, dtype=float)
    if len(loglik) != len(pool):
        raise ValueError("one log-likelihood per pool member required")
    unique, counts = dedup_pool(pool)
    # map each unique hypothesis to the loglik of its first occurrence
    index_of = {}
    uniq_ll = np.empty(len(unique))
    pos = 0
    for i, h in enumerate(pool):
        if h.key not in index_of:
            index_of[h.key] = pos
            uniq_ll[pos] = loglik[i]
            pos += 1
    log_prior = np.array([prior_logweight(prior, h) for h in unique])
    log_unnorm = log_prior + uniq_ll
    weights, degenerate = _normalize(log_unnorm, temperature)
    diagnostics = {
        "proposals": len(pool),
        "unique": len(unique),
        "duplicates_merged": len(pool) - len(unique),
        "unparsed": sum(1 for h in unique if not h.parsed),
        "zero_weight": int(np.sum(log_unnorm <= ZERO_CUTOFF)),
        **weight_diagnostics(weights),
    }
    return PosteriorState(unique, weights, degenerate, diagnostics)


def importance_weights(
    pool: Sequence[Hypothesis], prior, loglik: Sequence[float]
) -> PosteriorState:
    """Importance weights w ~ p(C) p(X|C) / q(C|X); no deduplication."""
    pool = list(pool)
    loglik = np.asarray(loglik, dtype=float)
    if len(loglik) != len(pool):
        raise ValueError("one log-likelihood per pool member required")
    for h in pool:
        if h.proposal_logprob is None:
            raise MissingLogQ(f"hypothesis {h.nl_text!r} lacks a proposal log-prob")
    log_q = np.array([h.proposal_logprob for h in pool])
    log_prior = np.array([prior_logweight(prior, h) for h in pool])
    log_unnorm = log_prior + loglik - log_q
    weights, degenerate = _normalize(log_unnorm, 1.0)
    diagnostics = {
        "proposals": len(pool),
        "unique": len(pool),
        "duplicates_merged": 0,
        "unparsed": sum(1 for h in pool if not h.parsed),
        "zero_weight": int(np.sum(log_unnorm <= ZERO_CUTOFF)),
        **weight_diagnostics(weights),
    }
    return PosteriorState(pool, weights, degenerate, diagnostics)


class DegenerateState(ValueError):
    pass


def predict_membership(
    state: PosteriorState, x_test: int, cache: EvalCache | None = None
) -> float:
    """Posterior predictive probability that x_test belongs to the
    latent concept."""
    if state.degenerate:
        raise DegenerateState("all pool hypotheses have zero weight")
    cache = cache or EvalCache()
    indicator = np.array(
        [float(x_test in cache.extension(h)) for h in state.pool]
    )
    return float(state.weights @ indicator)


def predict_response(
    state: PosteriorState,
    t: Trial,
    epsilon: float,
    alpha: float,
    cache: EvalCache | None = None,
) -> float:
    """Expected probability of a positive response on trial t."""
    if state.degenerate:
        raise DegenerateState("all pool hypotheses have zero weight")
    cache = cache or EvalCache()
    member = np.array([float(cache.trial_member(h, t)) for h in state.pool])
    per_hyp = (1.0 - epsilon) * member + epsilon * alpha
    return float(state.weights @ per_hyp)


def platt(p: float, a: float, b: float) -> float:
    """Two-parameter logistic recalibration; identity at a=1, b=0."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return float(expit(b + a * logit(p)))

"""Monte Carlo posterior machinery over hypothesis pools.

Two weighting schemes: deduplicated prior-times-likelihood weights (the
default, usable with proposal sources that hide their sample
probabilities) and classic importance weights (requires per-sample log
q). Both are a masked softmax of the unnormalized log-weights, the one
`fit` computes its posteriors with; a learnable temperature
exponentiates the unnormalized weights by 1/T. Predictions read
membership off `likelihood.extension_matrix` and truth values off
`likelihood.truth_matrix`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .likelihood import NEG_LARGE, EvalCache, extension_matrix, truth_matrix
from .prior import prior_logweight
from .types import Hypothesis, Trial

# unnormalized log-weights at or below this are treated as zero weight
ZERO_CUTOFF = NEG_LARGE / 2


class MissingLogQ(ValueError):
    """Importance weighting needs every proposal's log q."""


def proposal_logq(pool: Sequence[Hypothesis]) -> np.ndarray:
    """Each hypothesis's proposal log-prob log q(C|X); MissingLogQ
    names the first hypothesis without one."""
    for h in pool:
        if h.proposal_logprob is None:
            raise MissingLogQ(f"hypothesis {h.nl_text!r} lacks a proposal log-prob")
    return np.array([h.proposal_logprob for h in pool])


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


def _first_occurrences(pool: Sequence[Hypothesis]):
    """(pool index of each canonical NL's first entry, in pool order;
    how many entries share that NL)."""
    first: Dict[str, int] = {}
    counts: Dict[str, int] = {}  # keys in the same order as `first`
    for i, h in enumerate(pool):
        first.setdefault(h.key, i)
        counts[h.key] = counts.get(h.key, 0) + 1
    return np.array(list(first.values()), dtype=int), np.array(list(counts.values()), dtype=int)


def dedup_pool(pool: Sequence[Hypothesis]):
    """Merge duplicates by canonical NL, keeping the first occurrence.

    Returns (unique_pool, counts) where counts[i] is the multiplicity of
    unique hypothesis i in the input.
    """
    first, counts = _first_occurrences(pool)
    return [pool[i] for i in first], counts


def weight_diagnostics(weights) -> Dict[str, float]:
    """Effective sample size 1 / sum(w^2) and the largest weight of a
    normalized weight vector; both 0 when every weight is 0."""
    weights = np.asarray(weights, dtype=float)
    sum_sq = float(np.sum(weights**2))
    return {
        "ess": 1.0 / sum_sq if sum_sq > 0 else 0.0,
        "max_weight": float(np.max(weights, initial=0.0)),
    }


def softmax_masked(scores: np.ndarray, alive: np.ndarray, count=None) -> np.ndarray:
    """Softmax over the last axis among `alive` entries; all zeros where
    nothing is alive. With `count`, entry g stands for count[g] entries
    of equal score: the result is the weight of each of them, and it
    times `count` sums to 1."""
    shifted = np.where(alive, scores, -np.inf)
    top = shifted.max(axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(shifted - np.where(np.isfinite(top), top, 0.0))
    total = (e if count is None else e * count).sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=np.zeros_like(e), where=total > 0)


def posterior_state(kept: List[Hypothesis], n_proposals: int, weights, alive) -> PosteriorState:
    """The posterior over `kept`, drawn from `n_proposals` proposals,
    with its diagnostics: `weights` are nonzero only where `alive` is
    set, and the state is degenerate when nothing is."""
    diagnostics = {
        "proposals": n_proposals,
        "unique": len(kept),
        "duplicates_merged": n_proposals - len(kept),
        "unparsed": sum(1 for h in kept if not h.parsed),
        "zero_weight": int(np.sum(~alive)),
        **weight_diagnostics(weights),
    }
    return PosteriorState(kept, weights, not alive.any(), diagnostics)


def _weigh(kept: List[Hypothesis], n_proposals: int, log_unnorm, temperature: float):
    """Softmax of log_unnorm / T over the entries above ZERO_CUTOFF."""
    alive = log_unnorm > ZERO_CUTOFF
    return posterior_state(kept, n_proposals, softmax_masked(log_unnorm / temperature, alive), alive)


def _logliks(pool: Sequence[Hypothesis], loglik) -> np.ndarray:
    loglik = np.asarray(loglik, dtype=float)
    if len(loglik) != len(pool):
        raise ValueError("one log-likelihood per pool member required")
    return loglik


def dedup_weights(
    pool: Sequence[Hypothesis],
    prior,
    loglik: Sequence[float],
    temperature: float = 1.0,
) -> PosteriorState:
    """Deduplicated posterior weights: w ~ (p(C) p(X|C)) ** (1/T).

    `loglik` gives one log-likelihood per *input* pool entry; duplicate
    entries must carry equal values (they describe the same utterance),
    and the first occurrence's is used.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    pool = list(pool)
    loglik = _logliks(pool, loglik)
    first, _ = _first_occurrences(pool)
    unique = [pool[i] for i in first]
    log_prior = np.array([prior_logweight(prior, h) for h in unique])
    return _weigh(unique, len(pool), log_prior + loglik[first], temperature)


def importance_weights(
    pool: Sequence[Hypothesis], prior, loglik: Sequence[float]
) -> PosteriorState:
    """Importance weights w ~ p(C) p(X|C) / q(C|X); no deduplication."""
    pool = list(pool)
    loglik = _logliks(pool, loglik)
    log_q = proposal_logq(pool)
    log_prior = np.array([prior_logweight(prior, h) for h in pool])
    return _weigh(pool, len(pool), log_prior + loglik - log_q, 1.0)


class DegenerateState(ValueError):
    pass


def _require_weights(state: PosteriorState) -> None:
    if state.degenerate:
        raise DegenerateState("all pool hypotheses have zero weight")


def predict_membership(
    state: PosteriorState, x_test: int, cache: EvalCache | None = None
) -> float:
    """Posterior predictive probability that x_test belongs to the
    latent concept. `cache` is not read; it is accepted for callers
    that pass an `EvalCache`."""
    _require_weights(state)
    if not 1 <= x_test <= 100:
        return 0.0
    return float(state.weights @ extension_matrix(state.pool)[:, x_test - 1])


def predict_response(state: PosteriorState, t: Trial, epsilon: float, alpha: float) -> float:
    """Expected probability of a positive response on trial t."""
    _require_weights(state)
    per_hyp = (1.0 - epsilon) * truth_matrix(state.pool, [t])[:, 0] + epsilon * alpha
    return float(state.weights @ per_hyp)


def expit(x):
    """The logistic 1 / (1 + exp(-x)), elementwise. exp's argument is
    capped at 709 so it never overflows: below x = -709 the result
    stays at expit(-709), about 1.2e-308."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


def logit(p):
    """log(p / (1 - p)), elementwise: the inverse of expit on (0, 1)."""
    return np.log(p / (1.0 - p))


def platt(p: float, a: float, b: float) -> float:
    """Two-parameter logistic recalibration; identity at a=1, b=0."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return float(expit(b + a * logit(p)))

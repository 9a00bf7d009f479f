"""Domain likelihoods.

Number domain: examples are drawn uniformly from the concept's
extension with probability (1 - epsilon), otherwise uniformly from
1..100, so each example contributes

    log[(1 - epsilon) * 1[x in C] / |C| + epsilon / 100]

This is what produces the size principle: among consistent concepts,
smaller extensions score higher.

Shape domain: responses follow the concept with probability
(1 - epsilon) and otherwise guess positive at base rate alpha. Older
trials are down-weighted by a power-law memory decay: trial k of K gets
weight (1 + K - k) ** -beta, so the most recent trial always has
weight 1.

These per-hypothesis functions are the scalar path. They serve the
public posterior API (`nlconcepts infer`, the README quick start) and
are the oracle the parity tests hold the compiled path to. Fitting,
online evaluation, top-k verbalizations and the latent-language
baselines run on the arrays `harness` compiles a pool into, through
`fit.number_weights` and `fit.shape_forward`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from .dsl import NUMBER, SHAPE, ConceptProgram, DomainMismatch, eval_shape, number_extension
from .types import Hypothesis, NumberExampleSet, Trial, Unparsed

NEG_LARGE = -1e18  # finite stand-in for log(0) inside optimization


class EvalCache:
    """Memoizes extensions and per-trial evaluations across refits.

    Content-addressed by canonical NL, so equal-text duplicates share
    entries. get-or-compute is linearizable under the lock.
    """

    def __init__(self):
        self._extensions: Dict[str, frozenset] = {}
        self._trials: Dict[Tuple[str, Trial], bool] = {}
        self._lock = threading.Lock()

    def extension(self, h: Hypothesis) -> frozenset:
        if isinstance(h.program, Unparsed):
            return frozenset()
        _require(h, NUMBER)
        key = h.key
        with self._lock:
            if key not in self._extensions:
                self._extensions[key] = number_extension(h.program.expr)
            return self._extensions[key]

    def trial_member(self, h: Hypothesis, t: Trial) -> bool:
        if isinstance(h.program, Unparsed):
            return False
        _require(h, SHAPE)
        key = (h.key, t)
        with self._lock:
            if key not in self._trials:
                self._trials[key] = eval_shape(h.program.expr, t.test, t.batch)
            return self._trials[key]


def _require(h: Hypothesis, domain: str) -> None:
    if isinstance(h.program, ConceptProgram) and h.program.domain != domain:
        raise DomainMismatch(
            f"hypothesis {h.nl_text!r} is a {h.program.domain} program, need {domain}"
        )


def number_loglikelihood(
    h: Hypothesis,
    examples: NumberExampleSet,
    epsilon: float,
    cache: EvalCache | None = None,
) -> float:
    """Sum of per-example log-likelihoods; -inf only when epsilon == 0
    and some example falls outside the extension."""
    cache = cache or EvalCache()
    ext = cache.extension(h)
    size = len(ext)
    total = 0.0
    for x in examples.examples:
        inside = (1.0 - epsilon) / size if size and x in ext else 0.0
        p = inside + epsilon / 100.0
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def trial_response_prob(
    h: Hypothesis, t: Trial, epsilon: float, alpha: float, cache: EvalCache | None = None
) -> float:
    """Probability assigned to the observed label of one trial."""
    cache = cache or EvalCache()
    member = cache.trial_member(h, t)
    p_positive = (1.0 - epsilon) * float(member) + epsilon * alpha
    return p_positive if t.label else 1.0 - p_positive


def decay_weights(n_trials: int, beta: float) -> np.ndarray:
    """(1 + K - k) ** -beta for k = 1..K; the last trial gets weight 1."""
    if n_trials == 0:
        return np.zeros(0)
    lag = np.arange(n_trials, 0, -1, dtype=float)  # 1 + K - k
    return lag**-beta


def decayed_sequence_loglik(
    h: Hypothesis,
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
    cache: EvalCache | None = None,
) -> float:
    """Memory-decayed log-likelihood of an ordered trial sequence."""
    trials = list(trials)
    if not trials:
        return 0.0
    weights = decay_weights(len(trials), beta)
    total = 0.0
    for w, t in zip(weights, trials):
        p = trial_response_prob(h, t, epsilon, alpha, cache=cache)
        if p <= 0.0:
            return -math.inf
        total += w * math.log(p)
    return total


def pool_number_logliks(
    pool: Sequence[Hypothesis],
    examples: NumberExampleSet,
    epsilon: float,
    cache: EvalCache | None = None,
) -> np.ndarray:
    """Per-hypothesis log-likelihood vector; unparsed entries get the
    NEG_LARGE sentinel so downstream arithmetic stays finite."""
    cache = cache or EvalCache()
    out = np.empty(len(pool))
    for i, h in enumerate(pool):
        if isinstance(h.program, Unparsed):
            out[i] = NEG_LARGE
            continue
        ll = number_loglikelihood(h, examples, epsilon, cache=cache)
        out[i] = NEG_LARGE if ll == -math.inf else ll
    return out


def pool_shape_logliks(
    pool: Sequence[Hypothesis],
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
    cache: EvalCache | None = None,
) -> np.ndarray:
    cache = cache or EvalCache()
    out = np.empty(len(pool))
    for i, h in enumerate(pool):
        if isinstance(h.program, Unparsed):
            out[i] = NEG_LARGE
            continue
        ll = decayed_sequence_loglik(h, trials, epsilon, alpha, beta, cache=cache)
        out[i] = NEG_LARGE if ll == -math.inf else ll
    return out

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

Each domain compiles a pool once against its data: `extension_matrix`
gives every hypothesis's extension as a row over 1..100, `truth_matrix`
every rule's truth value on each trial, evaluated over the encoded
trials. The public functions below are array formulas over those
matrices, and `harness` builds the tasks that fitting, online evaluation and the
baselines run on from the same two matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dsl import SHAPE, ConceptProgram, DomainMismatch
from .dsl.shape import encode_trials, truth_values
from .types import Hypothesis, NumberExampleSet, Trial

NEG_LARGE = -1e18  # finite stand-in for log(0) inside optimization


class EvalCache:
    """A hypothesis's number extension, memoized on its program
    (`ConceptProgram.extension`, which raises `DomainMismatch` on a
    shape rule), empty if unparsed. It holds no state: equal text with
    different programs never shares an extension."""

    @staticmethod
    def extension(h: Hypothesis) -> frozenset:
        return h.program.extension if h.parsed else frozenset()


def _require(h: Hypothesis, domain: str) -> None:
    if isinstance(h.program, ConceptProgram) and h.program.domain != domain:
        raise DomainMismatch(
            f"hypothesis {h.nl_text!r} is a {h.program.domain} program, need {domain}"
        )


def extension_matrix(pool: Sequence[Hypothesis]) -> np.ndarray:
    """(S, 100) membership of 1..100 in each hypothesis's extension,
    computed once per program (`ConceptProgram.extension`); column
    x - 1 is number x, rows of unparsed hypotheses are 0."""
    out = np.zeros((len(pool), 100))
    for i, h in enumerate(pool):
        ext = h.program.extension if h.parsed else frozenset()
        out[i, np.fromiter(ext, int, len(ext)) - 1] = 1.0
    return out


def truth_matrix(pool: Sequence[Hypothesis], trials: Sequence[Trial]) -> np.ndarray:
    """(S, K) truth value of each shape rule on each trial, each row one
    array evaluation of the rule over the encoded trials
    (`shape.truth_values`); rows of unparsed rules are 0."""
    for h in pool:
        _require(h, SHAPE)
    arrays = encode_trials(list(trials))
    out = np.zeros((len(pool), len(arrays.all)))
    for i, h in enumerate(pool):
        if h.parsed:
            out[i] = truth_values(h.program.expr, arrays)
    return out


def _weighted_loglik(p: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, sum_k weights[k] log p[:, k]; -inf for a row where some
    p <= 0, whatever its weight. Terms are added in column order, as a
    loop over examples or trials adds them: a dot product rounds
    differently and can reorder rules whose log-likelihoods tie in
    exact arithmetic."""
    terms = weights * np.log(np.where(p > 0.0, p, 1.0))
    total = np.cumsum(terms, axis=1)[:, -1] if terms.shape[1] else np.zeros(len(p))
    return np.where((p <= 0.0).any(axis=1), -np.inf, total)


def _pool_vector(pool: Sequence[Hypothesis], loglik: np.ndarray) -> np.ndarray:
    """NEG_LARGE for unparsed entries and -inf log-likelihoods, so
    downstream arithmetic stays finite."""
    parsed = np.array([h.parsed for h in pool], dtype=bool)
    return np.where(parsed & (loglik > -np.inf), loglik, NEG_LARGE)


def _number_logliks(ext: np.ndarray, examples: NumberExampleSet, epsilon: float) -> np.ndarray:
    member = ext[:, np.array(examples.examples) - 1]  # (S, N)
    size = ext.sum(axis=1, keepdims=True)
    inside = np.divide(1.0 - epsilon, size, out=np.zeros_like(size), where=size > 0)
    p = member * inside + epsilon / 100.0
    return _weighted_loglik(p, np.ones(len(examples)))


def number_loglikelihood(h: Hypothesis, examples: NumberExampleSet, epsilon: float) -> float:
    """Sum of per-example log-likelihoods; -inf only when epsilon == 0
    and some example falls outside the extension."""
    return float(_number_logliks(extension_matrix([h]), examples, epsilon)[0])


def pool_number_logliks(
    pool: Sequence[Hypothesis],
    examples: NumberExampleSet,
    epsilon: float,
    cache: EvalCache | None = None,
) -> np.ndarray:
    """Per-hypothesis log-likelihood vector; unparsed entries get the
    NEG_LARGE sentinel so downstream arithmetic stays finite. `cache`
    is not read; it is accepted for callers that pass an `EvalCache`."""
    return _pool_vector(pool, _number_logliks(extension_matrix(pool), examples, epsilon))


def _response_probs(truth: np.ndarray, trials: Sequence[Trial], epsilon: float, alpha: float):
    """(S, K) probability of each trial's observed label under each rule."""
    p_positive = (1.0 - epsilon) * truth + epsilon * alpha
    labels = np.array([t.label for t in trials], dtype=bool)
    return np.where(labels, p_positive, 1.0 - p_positive)


def trial_response_prob(h: Hypothesis, t: Trial, epsilon: float, alpha: float) -> float:
    """Probability assigned to the observed label of one trial."""
    return float(_response_probs(truth_matrix([h], [t]), [t], epsilon, alpha)[0, 0])


def decay_weights(n_trials: int, beta: float) -> np.ndarray:
    """(1 + K - k) ** -beta for k = 1..K; the last trial gets weight 1."""
    if n_trials == 0:
        return np.zeros(0)
    lag = np.arange(n_trials, 0, -1, dtype=float)  # 1 + K - k
    return lag**-beta


def _shape_logliks(pool, trials, epsilon, alpha, beta) -> np.ndarray:
    trials = list(trials)
    p = _response_probs(truth_matrix(pool, trials), trials, epsilon, alpha)
    return _weighted_loglik(p, decay_weights(len(trials), beta))


def decayed_sequence_loglik(
    h: Hypothesis,
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
) -> float:
    """Memory-decayed log-likelihood of an ordered trial sequence."""
    return float(_shape_logliks([h], trials, epsilon, alpha, beta)[0])


def pool_shape_logliks(
    pool: Sequence[Hypothesis],
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Per-rule decayed log-likelihood vector, NEG_LARGE for unparsed
    rules and impossible sequences."""
    return _pool_vector(pool, _shape_logliks(pool, trials, epsilon, alpha, beta))

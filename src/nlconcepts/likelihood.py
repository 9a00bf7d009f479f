"""Domain likelihoods, each defined once.

Number domain: examples are drawn uniformly from the concept's
extension with probability (1 - epsilon), otherwise uniformly from
1..100, so an example has probability g_in = (1 - epsilon) / |C| +
epsilon / 100 inside C and g_out = epsilon / 100 outside it
(`count_logliks`). This is what produces the size principle: among
consistent concepts, smaller extensions score higher.

Shape domain: responses follow the concept with probability
(1 - epsilon) and otherwise guess positive at base rate alpha
(`label_probs`). Older trials are down-weighted by a power-law memory
decay: trial k of K gets weight (1 + K - k) ** -beta, so the most
recent trial always has weight 1.

Each domain compiles a pool once against its data: `extension_matrix`
gives every hypothesis's extension as a row over 1..100, `truth_matrix`
every rule's truth value on each trial, evaluated over the encoded
trials. `harness` compiles the tasks of inference, fitting, online
evaluation and the baselines from them; `fit.number_weights`,
`fit.shape_forward` and the public functions below all score with
`count_logliks` and `label_probs`.
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


def count_logliks(n_inside, n_outside, inv_size, epsilon):
    """(n_in log g_in + n_out log g_out, g_in, g_out), elementwise; each
    log is floored at log 1e-300, so no examples at probability 0 add 0."""
    g_in = (1.0 - epsilon) * inv_size + epsilon / 100.0
    g_out = epsilon / 100.0
    loglik = n_inside * np.log(np.maximum(g_in, 1e-300))
    loglik = loglik + n_outside * np.log(np.maximum(g_out, 1e-300))
    return loglik, g_in, g_out


def label_probs(labels: np.ndarray, epsilon, alpha):
    """(r0, r1), each (K,): the probability of each trial's observed
    label under a rule false (r0) or true (r1) on the trial."""
    q0, q1 = epsilon * alpha, (1.0 - epsilon) + epsilon * alpha
    positive = labels > 0
    return np.where(positive, q0, 1.0 - q0), np.where(positive, q1, 1.0 - q1)


def _pool_vector(pool: Sequence[Hypothesis], loglik: np.ndarray) -> np.ndarray:
    """NEG_LARGE for unparsed entries and -inf log-likelihoods, so
    downstream arithmetic stays finite."""
    parsed = np.array([h.parsed for h in pool], dtype=bool)
    return np.where(parsed & (loglik > -np.inf), loglik, NEG_LARGE)


def _number_logliks(pool, examples: NumberExampleSet, epsilon: float) -> np.ndarray:
    """-inf where an example outside the extension has probability 0."""
    ext = extension_matrix(pool)
    sizes = ext.sum(axis=1)
    inv_size = np.divide(1.0, sizes, out=np.zeros_like(sizes), where=sizes > 0)
    n_inside = ext[:, np.array(examples.examples) - 1].sum(axis=1)
    n_outside = len(examples) - n_inside
    loglik, _, g_out = count_logliks(n_inside, n_outside, inv_size, epsilon)
    return np.where((n_outside > 0) & (g_out <= 0.0), -np.inf, loglik)


def number_loglikelihood(h: Hypothesis, examples: NumberExampleSet, epsilon: float) -> float:
    """Log-likelihood of the examples; -inf only when epsilon == 0 and
    some example falls outside the extension."""
    return float(_number_logliks([h], examples, epsilon)[0])


def pool_number_logliks(
    pool: Sequence[Hypothesis],
    examples: NumberExampleSet,
    epsilon: float,
    cache: EvalCache | None = None,
) -> np.ndarray:
    """Per-hypothesis log-likelihood vector; unparsed entries get the
    NEG_LARGE sentinel so downstream arithmetic stays finite. `cache`
    is not read; it is accepted for callers that pass an `EvalCache`."""
    return _pool_vector(pool, _number_logliks(pool, examples, epsilon))


def trial_response_prob(h: Hypothesis, t: Trial, epsilon: float, alpha: float) -> float:
    """Probability assigned to the observed label of one trial."""
    r0, r1 = label_probs(np.array([t.label]), epsilon, alpha)
    return float(r1[0] if truth_matrix([h], [t])[0, 0] else r0[0])


def decay_weights(n_trials: int, beta: float) -> np.ndarray:
    """(1 + K - k) ** -beta for k = 1..K; the last trial gets weight 1."""
    if n_trials == 0:
        return np.zeros(0)
    lag = np.arange(n_trials, 0, -1, dtype=float)  # 1 + K - k
    return lag**-beta


def _decayed_logliks(pool, trials, epsilon, alpha, beta) -> np.ndarray:
    """Per rule, sum_k w_k log r_k with decay weights w; -inf where some
    trial has probability 0, whatever its weight."""
    trials = list(trials)
    r0, r1 = label_probs(np.array([t.label for t in trials], dtype=bool), epsilon, alpha)
    r = np.where(truth_matrix(pool, trials) > 0.0, r1, r0)
    loglik = np.log(np.maximum(r, 1e-300)) @ decay_weights(len(trials), beta)
    return np.where((r <= 0.0).any(axis=1), -np.inf, loglik)


def decayed_sequence_loglik(
    h: Hypothesis,
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
) -> float:
    """Memory-decayed log-likelihood of an ordered trial sequence."""
    return float(_decayed_logliks([h], trials, epsilon, alpha, beta)[0])


def pool_shape_logliks(
    pool: Sequence[Hypothesis],
    trials: Sequence[Trial],
    epsilon: float,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Per-rule decayed log-likelihood vector, NEG_LARGE for unparsed
    rules and impossible sequences."""
    return _pool_vector(pool, _decayed_logliks(pool, trials, epsilon, alpha, beta))

"""Domain likelihoods and the compile step, each defined once.

Number domain: examples are drawn uniformly from the concept's
extension with probability (1 - epsilon), otherwise uniformly from
1..100, so an example has probability g_in = (1 - epsilon) / |C| +
epsilon / 100 inside C and g_out = epsilon / 100 outside it
(`count_logliks`). This is what produces the size principle: among
consistent concepts, smaller extensions score higher.

Shape domain: responses follow the concept with probability
(1 - epsilon) and otherwise guess positive at base rate alpha
(`positive_probs`). Older trials are down-weighted by a power-law
memory decay: trial k of K gets weight (1 + K - k) ** -beta, so the
most recent trial always has weight 1 (`decay_weights`). The shape
pass reads these weights off a lookup its task compiles once
(`fit.ShapeTask`), bit for bit the same.

Each domain compiles a pool once against its data: `extension_matrix`
gives every hypothesis's extension as a row over 1..100, `truth_matrix`
every rule's truth value on each trial, evaluated over the encoded
trials. `harness` compiles the tasks of inference, fitting, online
evaluation and the baselines from them, and `fit.number_weights` and
`fit.shape_forward`, the one forward pass of each domain, score them
with the functions below.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dsl import SHAPE, ConceptProgram, DomainMismatch
from .dsl.shape import encode_trials, truth_values
from .types import Hypothesis, Trial


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
    computed once per program (`EvalCache.extension`); column
    x - 1 is number x, rows of unparsed hypotheses are 0."""
    out = np.zeros((len(pool), 100))
    for i, h in enumerate(pool):
        ext = EvalCache.extension(h)
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


def positive_probs(epsilon, alpha):
    """(q0, q1): the probability of a positive response under a rule
    false (q0) or true (q1) on the trial."""
    return epsilon * alpha, (1.0 - epsilon) + epsilon * alpha


def decay_weights(n_trials: int, beta: float) -> np.ndarray:
    """(1 + K - k) ** -beta for k = 1..K; the last trial gets weight 1."""
    if n_trials == 0:
        return np.zeros(0)
    lag = np.arange(n_trials, 0, -1, dtype=float)  # 1 + K - k
    return lag**-beta

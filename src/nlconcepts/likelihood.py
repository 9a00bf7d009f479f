"""Domain likelihoods and the compile step, each defined once.

Number domain: examples are drawn uniformly from the concept's
extension with probability (1 - epsilon), otherwise uniformly from
1..100, so an example has probability g_in = (1 - epsilon) / |C| +
epsilon / 100 inside C and g_out = epsilon / 100 outside it
(`count_logliks`, one log1p of g_in / g_out per hypothesis). Hence the
size principle: among consistent concepts, smaller extensions score higher.

Shape domain: responses follow the concept with probability
(1 - epsilon) and otherwise guess positive at base rate alpha
(`positive_probs`). Older trials are down-weighted by a power-law
memory decay: trial k of K gets weight (1 + K - k) ** -beta, so the
most recent trial always has weight 1. The shape pass reads these
weights off a lookup its task compiles once (`fit.ShapeTask`).

Each domain compiles a pool once against its data: `extension_matrix`
stacks every hypothesis's truth row over 1..100, which its program
compiles by one array walk of the rule and memoizes
(`ConceptProgram.extension_values`), and `truth_matrix` gives every
rule's truth value on each trial, evaluated over the encoded trials.
`harness` compiles the tasks of inference, fitting, online
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
    """A hypothesis's number extension (`ConceptProgram.extension`),
    empty if unparsed. No library code calls it: it stays only because
    the benchmark passes one to `harness.build_shape_task`."""

    @staticmethod
    def extension(h: Hypothesis) -> frozenset:
        return h.program.extension if h.parsed else frozenset()


def _require(h: Hypothesis, domain: str) -> None:
    if isinstance(h.program, ConceptProgram) and h.program.domain != domain:
        raise DomainMismatch(
            f"hypothesis {h.nl_text!r} is a {h.program.domain} program, need {domain}"
        )


def extension_matrix(pool: Sequence[Hypothesis]) -> np.ndarray:
    """(S, 100) membership of 1..100 in each hypothesis's extension: the
    truth rows its programs compile once (`ConceptProgram.extension_values`,
    which raises `DomainMismatch` on a shape rule), stacked; column
    x - 1 is number x, rows of unparsed hypotheses are 0."""
    out = np.zeros((len(pool), 100))
    for i, h in enumerate(pool):
        if h.parsed:
            out[i] = h.program.extension_values
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


def count_logliks(n_inside, n_all, inv_size, epsilon):
    """(n_in log g_in + n_out log g_out, x), elementwise, each log floored
    at log 1e-300, as n_all log g_out + n_in log1p(x) for n_all = n_in +
    n_out and x = g_in / g_out - 1 = (1 - epsilon) / (g_out |C|). Only
    g_out reaches the floor (g_in >= 1/100 where n_in > 0), and then x
    leaves out epsilon / 100 / g_out - 1, in (-1, 0): below its rounding."""
    g_out = np.maximum(epsilon / 100.0, 1e-300)
    x = (1.0 - epsilon) / g_out * inv_size
    loglik = n_inside * np.log1p(x)
    loglik += n_all * np.log(g_out)
    return loglik, x


def positive_probs(epsilon, alpha):
    """(q0, q1): the probability of a positive response under a rule
    false (q0) or true (q1) on the trial."""
    return epsilon * alpha, (1.0 - epsilon) + epsilon * alpha

"""The posterior over a hypothesis pool, as the compiled tasks give it.

Two weighting schemes: deduplicated prior-times-likelihood weights (the
default, usable with proposal sources that hide their sample
probabilities; `dedup_pool`) and classic importance weights, which
divide by each proposal's probability (`proposal_logq`). Both are a
masked softmax of the tempered log-weights (`softmax_masked`), which
`fit.number_weights` and `fit.shape_forward` compute for inference,
fitting and the baselines alike; `posterior_state` wraps one row of
them with its diagnostics. Predictions read membership off
`likelihood.extension_matrix` and truth values off
`likelihood.truth_matrix`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .types import Hypothesis


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
        if not np.isfinite(self.weights).all():  # NaN fails both checks below
            raise ValueError("weights must be finite")
        if not self.degenerate:
            if np.any(self.weights < 0):
                raise ValueError("weights must be non-negative")
            if abs(self.weights.sum() - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")

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


def dedup_pool(pool: Sequence[Hypothesis]) -> List[Hypothesis]:
    """The pool with duplicates by canonical NL merged into their first
    occurrence, in order."""
    first: Dict[str, Hypothesis] = {}
    for h in pool:
        first.setdefault(h.key, h)
    return list(first.values())


def weight_diagnostics(weights) -> Dict[str, float]:
    """Effective sample size 1 / sum(w^2) and the largest weight of a
    normalized weight vector; both 0 when every weight is 0."""
    weights = np.asarray(weights, dtype=float)
    sum_sq = float(np.sum(weights**2))
    return {
        "ess": 1.0 / sum_sq if sum_sq > 0 else 0.0,
        "max_weight": float(np.max(weights, initial=0.0)),
    }


_LOWEST = -np.finfo(float).max


def softmax_masked(scores: np.ndarray, alive: np.ndarray, count=None, all_rows_alive=False) -> np.ndarray:
    """Softmax over the last axis among `alive` entries; all zeros where
    nothing is alive. With `count`, entry g stands for count[g] entries
    of equal score: the result is the weight of each of them, and it
    times `count` sums to 1. `all_rows_alive` says that every row has an
    alive entry, so that no row needs the test for an empty one."""
    # the reductions and ufuncs are called directly: on the small arrays
    # of a fit epoch, the wrappers of max, sum and zeros_like cost more.
    # The shift starts from the lowest finite float, so a row with no
    # finite score keeps its -inf entries, whose exp is 0
    shifted = np.where(alive, scores, -np.inf)
    shifted -= np.maximum.reduce(shifted, axis=-1, keepdims=True, initial=_LOWEST)
    e = np.exp(shifted, out=shifted)
    total = np.add.reduce(e if count is None else e * count, axis=-1, keepdims=True)
    if all_rows_alive or np.minimum.reduce(total, axis=None) > 0:  # no empty row: one plain division
        return np.divide(e, total, out=e)
    return np.divide(e, total, out=np.zeros(e.shape), where=total > 0)


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


# a probability read through a log or a logit is first clamped to
# [PROB_CLAMP, 1 - PROB_CLAMP], so the result stays finite
PROB_CLAMP = 1e-6


def expit(x):
    """The logistic 1 / (1 + exp(-x)), elementwise. exp's argument is
    capped at 709 so it never overflows: below x = -709 the result
    stays at expit(-709), about 1.2e-308."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


def logit(p):
    """log(p / (1 - p)), elementwise: the inverse of expit on (0, 1)."""
    return np.log(p / (1.0 - p))

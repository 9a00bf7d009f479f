"""Comparison systems: latent-language maximum likelihood, directly
querying the LM with yes/no questions, and the unconditioned-proposal
ablation.

The number baselines hold their raw predictions (the chosen
hypothesis's membership, or the LM's yes/no ratio) as one-hypothesis
`NumberTask`s and Platt-calibrate them by the model's own
cross-validated fit (`harness.cross_validate`)."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .fit import FitConfig, NumberTask, number_weights, pack_params, rule_weights, shape_forward, stack_tasks
from .harness import (
    ExperimentConfig,
    PredictionRecord,
    cross_validate,
    group_judgments,
    load_data,
    map_rules,
    number_tasks,
    online_metrics,
    run_experiment,
    shape_tasks,
)
from .propose.prompts import serialize_numbers, serialize_shape_batches
from .types import Hypothesis, LearningCurve, ModelParams


class AllSamplesDiscarded(RuntimeError):
    """Every sample failed the yes/no format check."""


class NoViableHypothesis(RuntimeError):
    """No parsed hypothesis in the pool has nonzero likelihood."""


# ---------------------------------------------------------------------------
# Shared Platt calibration (logistic regression on the raw prediction)

# the calibration fit of every number baseline, whatever the config's `fit`
_PLATT_FIT = FitConfig(learning_rate=0.01, epochs=1000, trainable=("platt",))


def _raw_task(raw: Sequence[float], targets: Sequence[float], ids: Sequence[str]) -> NumberTask:
    """One hypothesis whose test membership is the raw prediction of
    each row, in [0, 1]: its weight is 1, so the pass predicts the raw
    prediction Platt-calibrated."""
    return NumberTask(
        features=None,
        base_logprior=np.zeros(1),
        parsed=np.ones(1, dtype=bool),
        member=np.zeros((1, 0)),
        inv_size=np.ones(1),
        test_member=np.asarray(raw, dtype=float)[:, None],
        targets=np.asarray(targets, dtype=float),
        ids=list(ids),
        names=["raw prediction"],
    )


def _calibrate(cfg: ExperimentConfig, tasks: Sequence[NumberTask]):
    """(metrics, records) of the raw tasks' Platt fit, cross-validated
    over `cfg`'s folds and seed."""
    return cross_validate(replace(cfg, fit=_PLATT_FIT, params=None, prior="uniform"), tasks)[:2]


# ---------------------------------------------------------------------------
# Latent language baseline: MLE over a single hypothesis
#
# The maximum-likelihood hypothesis is the first argmax of the compiled
# posterior's weights under a uniform prior at temperature 1.


def latent_language_number(
    cfg: ExperimentConfig,
    judgments=None,
    pools: Optional[Dict[str, List[Hypothesis]]] = None,
):
    """Per example set, keep only the maximum-likelihood hypothesis
    (ties break toward the earliest pool entry) and predict its
    membership indicator through a cross-validated Platt transform.
    Returns (metrics, records, chosen NL per set)."""
    tasks = number_tasks(replace(cfg, prior="uniform", weighting="dedup"), judgments, pools)
    params = ModelParams(epsilon=(cfg.params or ModelParams()).epsilon)
    weights = number_weights(pack_params(params)[None], stack_tasks(list(tasks.values())))[0]
    raw_tasks = []
    chosen: Dict[str, str] = {}
    for (set_id, task), w in zip(tasks.items(), weights[0]):
        if not task.parsed.any():
            raise NoViableHypothesis(f"pool for {set_id} has no parsed hypothesis")
        best = int(np.argmax(w))
        chosen[set_id] = task.names[best]
        raw_tasks.append(_raw_task(task.test_member[:, best], task.targets, task.ids))
    return (*_calibrate(cfg, raw_tasks), chosen)


def latent_language_shape(
    cfg: ExperimentConfig,
    curves: Optional[Sequence[LearningCurve]] = None,
    pools: Optional[Dict[str, List[Hypothesis]]] = None,
):
    """Online MLE: each batch keeps only the visible rule that best
    explains the previous trials, and predicts through the model's pass
    (`shape_forward`) with that rule alone visible, a count of one in
    its class, so eps * alpha where no rule is visible; curves and pools
    are loaded from `cfg` when None. Returns (metrics, records,
    per-curve chosen NL per batch, None where no rule is visible)."""
    if curves is None:
        curves = load_data(cfg)
    params = replace(cfg.params or ModelParams(), temperature=1.0)
    records: List[PredictionRecord] = []
    chosen: Dict[str, List[Optional[str]]] = {}
    for curve, task in zip(curves, shape_tasks(replace(cfg, prior="uniform"), curves, pools)):
        best = map_rules(*rule_weights(task, shape_forward(task, params)[1]))
        chosen[curve.concept_id] = [None if s is None else task.names[s] for s in best]
        only = np.zeros_like(task.count)
        for b, s in enumerate(best):
            if s is not None:
                only[b, task.rule_class[s]] = 1.0
        preds = shape_forward(replace(task, count=only), params)[0]
        records.extend(
            PredictionRecord(i, float(p), h, "holdout")
            for i, p, h in zip(task.ids, preds, curve.human_positive_rate)
        )
    return online_metrics(records, curves), records, chosen


# ---------------------------------------------------------------------------
# Direct LM baseline: yes/no querying

NUMBER_DIRECT_TEMPLATE = """\
Here are a few example number concepts:
-- The number is even
-- The number is between 30 and 45
-- The number is a power of 3
-- The number is less than 10

Here are some random examples of numbers belonging to a possibly different number concept:
{examples}

Question: Does the number {test} belong to the same concept as the above numbers?
Answer (one word, yes/no):"""

SHAPE_DIRECT_TEMPLATE = """\
Here are some example concepts defined by a logical rule:

Rule for Concept #1: Something is positive if it is the biggest yellow object in the example
Rule for Concept #2: Something is positive if there is another object with the same color in the example
Rule for Concept #3: Something is positive if it is the same color as the smallest triangle in the example

Now please look at the following examples for a new logical rule.

{examples}

Now we get a new collection of examples for Concept #4:
{batch}
Question: Based on the above example, is a ({test}) in the concept?
Answer (one word, just write yes/no):"""

DIRECT_SAMPLES = 10
# sampling parameters of every direct query: DIRECT_SAMPLES answers at temperature 1
DIRECT_PARAMS = {"temperature": 1.0, "n": DIRECT_SAMPLES, "max_tokens": 8}


def yes_no_ratio(samples: Sequence[str]) -> float:
    """Fraction of kept samples starting with 'y'; samples starting with
    neither 'y' nor 'n' (case-insensitive) are discarded."""
    kept = []
    for s in samples:
        first = s.strip()[:1].lower()
        if first in ("y", "n"):
            kept.append(first == "y")
    if not kept:
        raise AllSamplesDiscarded("no sample began with y or n")
    return sum(kept) / len(kept)


def direct_number_prompt(example_set, test_number: int) -> str:
    return NUMBER_DIRECT_TEMPLATE.format(
        examples=serialize_numbers(example_set), test=test_number
    )


def direct_shape_prompt(past_batches, current_batch, test) -> str:
    batch_line = " ".join(f"({t.test.describe()})" for t in current_batch)
    return SHAPE_DIRECT_TEMPLATE.format(
        examples=serialize_shape_batches(past_batches),
        batch=batch_line,
        test=test.describe(),
    )


def _direct_samples(backend, prompt: str) -> List[str]:
    return [c["text"] for c in backend.completions(prompt, dict(DIRECT_PARAMS))]


def direct_llm_number(cfg: ExperimentConfig, backend, judgments=None):
    """Ask the LM directly whether each test number belongs, estimate
    p(yes) from 10 temperature-1 samples, then Platt-calibrate;
    judgments are loaded from `cfg` when None."""
    if judgments is None:
        judgments = load_data(cfg)
    tasks = []
    for set_id, group in group_judgments(judgments).items():
        ratios = [
            yes_no_ratio(_direct_samples(backend, direct_number_prompt(j.example_set, j.test_number)))
            for j in group
        ]
        ids = [f"{set_id}:{j.test_number}" for j in group]
        tasks.append(_raw_task(ratios, [j.mean_rating for j in group], ids))
    return _calibrate(cfg, tasks)


def direct_llm_shape(cfg: ExperimentConfig, backend):
    """Per-trial yes/no querying for the logical domain on the curves of
    `cfg`; returns (metrics, records) with raw sample ratios as
    predictions."""
    curves = load_data(cfg)
    records: List[PredictionRecord] = []
    for curve in curves:
        trial_index = 0
        for b, batch in enumerate(curve.batches):
            for t in batch:
                prompt = direct_shape_prompt(curve.batches[:b], batch, t.test)
                ratio = yes_no_ratio(_direct_samples(backend, prompt))
                human = curve.human_positive_rate[trial_index]
                records.append(
                    PredictionRecord(
                        f"{curve.concept_id}:{trial_index}", ratio, human, "holdout"
                    )
                )
                trial_index += 1
    return online_metrics(records, curves), records


# ---------------------------------------------------------------------------
# Proposal-distribution ablation


def no_proposal_ablation(cfg: ExperimentConfig, shared_pool_path, judgments=None):
    """Full model, but every example set draws from one shared pool of
    hypotheses proposed without conditioning on the examples."""
    if judgments is None:
        judgments = load_data(cfg)
    pools = {set_id: str(shared_pool_path) for set_id in group_judgments(judgments)}
    return run_experiment(replace(cfg, pools=pools), judgments)[:3]

"""End-to-end experiments over the tasks compiled here: `run_experiment`,
the one experiment path of both domains, which reads its data and pools
through `load_data` and `load_pools`, the posterior of one pool
(`infer_number`, `infer_shape`), and tidy CSV emission for plotting.
`run_number_experiment`, `run_online_experiment`, `fit_online_params`
and `build_shape_task`'s `cache` stay only because the benchmark calls
them: no library code does, and one test holds them to the entry points."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import io
from .dsl import NUMBER as NUMBER_DOMAIN
from .dsl import SHAPE as SHAPE_DOMAIN
from .fit import (
    FitConfig,
    FitResult,
    NumberTask,
    ShapeTask,
    TaskBatch,
    fit_params,
    kfold_rows,
    loss_and_grad,
    number_weights,
    pack_params,
    r_squared,
    rule_weights,
    shape_forward,
    stack_tasks,
)
from .likelihood import EvalCache, extension_matrix, truth_matrix
from .posterior import PosteriorState, dedup_pool, posterior_state, proposal_logq, weight_diagnostics
from .prior import FEATURE_DIM, FeatureExtractor, MissingFeature
from .types import (
    HumanNumberJudgment,
    Hypothesis,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    check_finite_number,
    check_integer,
)


@dataclass
class PredictionRecord:
    datum_id: str
    prediction: float
    human: Optional[float] = None
    split: str = "holdout"

    def __post_init__(self):
        check_finite_number("prediction", self.prediction)


class ConfigError(ValueError):
    """An experiment configuration no run can use."""


def _from_json(cls, raw: dict, where: str):
    """`cls(**raw)`; a key that is not a field of `cls`, or a value `cls`
    refuses or cannot compare, is a ConfigError, and so is a `raw` that
    is not a JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, not {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def params_from_json(raw: dict) -> ModelParams:
    """ModelParams from their JSON object (`params_to_json`'s form)."""
    return _from_json(ModelParams, raw, "params")


def params_to_json(params: ModelParams) -> dict:
    """The JSON object of `params`: each field by name, theta as a list."""
    raw = {f.name: getattr(params, f.name) for f in fields(ModelParams)}
    raw["theta"] = [float(x) for x in params.theta]
    return raw


PRIORS = ("uniform", "tuned", "external")


def _check_theta(cfg: ExperimentConfig, params: Optional[ModelParams]) -> None:
    """ConfigError unless a tuned prior's theta has `feature_dim` entries."""
    if cfg.prior == "tuned" and params is not None and len(params.theta) != cfg.feature_dim:
        raise ConfigError(
            f"params theta has {len(params.theta)} entries; "
            f"the tuned prior needs feature_dim = {cfg.feature_dim}"
        )


@dataclass
class ExperimentConfig:
    domain: str  # "number" | "shape"
    data_path: str = ""  # judgments CSV or directory of curve JSONs
    pools: Dict[str, str] = field(default_factory=dict)  # set/concept id -> pool file
    prior: str = "uniform"  # uniform | tuned | external
    weighting: str = "dedup"  # dedup | importance
    budget: int = 100
    scores_path: str = ""  # external prior scores (JSONL)
    feature_dim: int = FEATURE_DIM
    fit: FitConfig = field(default_factory=FitConfig)
    params: Optional[ModelParams] = None  # skip fitting if provided
    seed: int = 0
    k_folds: int = 10

    def __post_init__(self):
        choices = {"domain": ("number", "shape"), "prior": PRIORS, "weighting": ("dedup", "importance")}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, not {getattr(self, name)!r}")
        for name, least in (("budget", 1), ("k_folds", 2), ("seed", 0), ("feature_dim", None)):
            check_integer(name, getattr(self, name), least, ConfigError)
        for name in ("data_path", "scores_path"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, not {getattr(self, name)!r}")
        if not isinstance(self.pools, dict) or not all(isinstance(s, str) for kv in self.pools.items() for s in kv):
            raise ConfigError(f"pools must be an object of id strings to path strings, not {self.pools!r}")
        if self.domain == SHAPE_DOMAIN and self.weighting == "importance":
            raise ConfigError("importance weighting needs the number domain")
        if self.prior == "tuned" and self.feature_dim < 1:
            raise ConfigError(f"the tuned prior needs feature_dim >= 1, not {self.feature_dim}")
        _check_theta(self, self.params)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, not {raw!r}")
        nested = {"fit": _from_json(FitConfig, raw.get("fit", {}), "fit")}
        if raw.get("params") is not None:
            nested["params"] = params_from_json(raw["params"])
        return _from_json(cls, {**raw, **nested}, "config")


def _prior_pieces(cfg: ExperimentConfig, pool: Sequence[Hypothesis], extractor, scores=None):
    """(features or None, base log-prior vector) for a deduped pool;
    the external prior reads `cfg.scores_path` unless given `scores`,
    and MissingFeature names that file and the first canonical NL it
    has no score for."""
    if cfg.prior == "tuned":
        features = extractor.matrix(pool) if pool else np.zeros((0, extractor.dim))
        return features, np.zeros(len(pool))
    if cfg.prior == "external":
        if scores is None:
            scores = io.load_score_file(cfg.scores_path)
        missing = next((h.key for h in pool if h.key not in scores), None)
        if missing is not None:
            raise MissingFeature(cfg.scores_path, missing)
        return None, np.array([scores[h.key] for h in pool], dtype=float)
    return None, np.zeros(len(pool))


def load_data(cfg: ExperimentConfig):
    """The judgments in the CSV `cfg.data_path` (numbers), or the
    learning curves in the directory `cfg.data_path` by file name
    (shapes); a directory that holds no `*.json` file is a ValueError
    naming it, and an unset `data_path` a ConfigError naming the key."""
    if not cfg.data_path:
        raise ConfigError("data_path is not set: the config names no judgments file or curve directory")
    if cfg.domain == NUMBER_DOMAIN:
        return io.load_number_judgments(cfg.data_path)
    paths = sorted(Path(cfg.data_path).glob("*.json"))
    if not paths:
        raise ValueError(f"curve directory {cfg.data_path} holds no *.json curve file")
    return [io.load_learning_curve(p) for p in paths]


def load_pools(cfg: ExperimentConfig) -> Dict[str, List[Hypothesis]]:
    """Every entry of each pool file in `cfg.pools`, by set or concept
    id, each distinct file read once; io.EmptyPool names the first
    file that holds none."""
    by_path = {path: io.load_pool(path, cfg.domain) for path in dict.fromkeys(cfg.pools.values())}
    empty = next((path for path, pool in by_path.items() if not pool), None)
    if empty is not None:
        raise io.EmptyPool(empty)
    return {key: by_path[path] for key, path in cfg.pools.items()}


# ---------------------------------------------------------------------------
# Task construction


def build_number_task(
    cfg: ExperimentConfig,
    pool: Sequence[Hypothesis],
    example_set: NumberExampleSet,
    tests: Sequence[Tuple[int, float, str]],  # (test number, target, id)
    extractor: FeatureExtractor,
    scores: Optional[Dict[str, float]] = None,
) -> NumberTask:
    """Compile an example set against its pool: the extension rows
    (`likelihood.extension_matrix`) at the examples and test numbers,
    1/|C| and the prior pieces. `scores` are the external prior's, read
    from `cfg.scores_path` when None."""
    unique = list(pool) if cfg.weighting == "importance" else dedup_pool(pool)
    return _number_task(cfg, unique, example_set, tests, extractor, scores)


def _number_task(cfg, unique, example_set, tests, extractor, scores) -> NumberTask:
    """`build_number_task` on the hypotheses the posterior spans."""
    log_q = proposal_logq(unique) if cfg.weighting == "importance" else 0.0
    features, base = _prior_pieces(cfg, unique, extractor, scores)
    base = base - log_q
    parsed = np.array([h.parsed for h in unique], dtype=bool)
    ext = extension_matrix(unique)
    sizes = ext.sum(axis=1)
    inv_size = np.divide(1.0, sizes, out=np.zeros_like(sizes), where=sizes > 0)
    member = ext[:, np.array(example_set.examples) - 1]
    test_member = ext[:, [t - 1 for t, _, _ in tests]].T
    return NumberTask(
        features=features,
        base_logprior=base,
        parsed=parsed,
        member=member,
        inv_size=inv_size,
        test_member=test_member,
        targets=np.array([r for _, r, _ in tests]),
        ids=[i for _, _, i in tests],
        names=[h.nl_text for h in unique],
    )


def build_shape_task(
    cfg: ExperimentConfig,
    pool: Sequence[Hypothesis],
    curve: LearningCurve,
    extractor: FeatureExtractor,
    cache: Optional[EvalCache] = None,
    scores: Optional[Dict[str, float]] = None,
    *,
    after_last: bool = False,
) -> ShapeTask:
    """Compile a curve against its deduplicated pool: the truth matrix
    of its rules on the curve's trials (`likelihood.truth_matrix`), kept
    once per class of rules the posterior cannot tell apart, the batches
    the trials fall in, and per batch the number of each class's rules
    visible at it (`ShapeTask`). A rule is visible from its source batch
    on, from the first batch without one, and never when unparsed. With
    `after_last`, `count` has one more row, the rules visible after the
    last batch, as `infer_shape` reads them. `scores` are the external
    prior's, read from `cfg.scores_path` when None. `cache` is not read;
    it stays for callers that pass an `EvalCache` positionally."""
    return _shape_task(cfg, dedup_pool(pool), curve, extractor, scores, after_last)


def _shape_task(cfg, unique, curve, extractor, scores, after_last) -> ShapeTask:
    """`build_shape_task` on a deduplicated pool."""
    features, base = _prior_pieces(cfg, unique, extractor, scores)
    trials = curve.trials
    n_batches = len(curve.batches)
    truth = truth_matrix(unique, trials)
    # two bits per truth value, c != 0 and c != 1: rules merge only on
    # equal 0/1 rows, and a value in between stays for ShapeTask to reject
    bits = np.packbits(np.concatenate([truth != 0.0, truth != 1.0], axis=1), axis=1)
    keys = [[row.tobytes() for row in bits], base.tolist()]
    if features is not None:
        keys.append([row.tobytes() for row in features])
    classes: Dict[tuple, int] = {}  # key -> class, numbered in the order of first rules
    first, rule_class = [], []  # the first rule of each class, the class of each rule
    for s, key in enumerate(zip(*keys)):
        if key not in classes:
            classes[key] = len(first)
            first.append(s)
        rule_class.append(classes[key])
    rule_class = np.array(rule_class, dtype=int)
    # the row (from 0) a rule is first visible at: its source batch less
    # one, or row 0 without one; past every row (n_batches + 1) when it
    # never parses or joins after the last batch
    first_batch = np.array(
        [max(h.source_batch or 1, 1) - 1 if h.parsed else n_batches for h in unique], dtype=int
    )
    first_batch[first_batch >= n_batches] = n_batches + 1
    # count[b, g]: one bincount over the (row, class) pairs of visible rules
    n_rows, n_classes = n_batches + after_last, len(first)
    rows = np.arange(n_rows)[:, None]
    pairs = (rows * n_classes + rule_class)[first_batch <= rows]
    count = np.bincount(pairs, minlength=n_rows * n_classes).reshape(n_rows, n_classes)
    return ShapeTask(
        features=None if features is None else features[first],
        base_logprior=base[first],
        consist=truth[first],
        labels=np.array([float(t.label) for t in trials]),
        batch=np.repeat(np.arange(n_batches), [len(b) for b in curve.batches]),
        count=count,
        targets=np.array(curve.human_positive_rate, dtype=float),
        ids=[f"{curve.concept_id}:{k}" for k in range(len(trials))],
        names=[h.nl_text for h in unique],
        rule_class=rule_class,
        first_batch=first_batch,
    )


def default_params(cfg: ExperimentConfig) -> ModelParams:
    dim = cfg.feature_dim if cfg.prior == "tuned" else 0
    return ModelParams(theta=np.zeros(dim), epsilon=0.5, alpha=0.5, beta=1.0)


# ---------------------------------------------------------------------------
# Inference


def infer_number(
    cfg: ExperimentConfig,
    pool: Sequence[Hypothesis],
    examples: NumberExampleSet,
    params: ModelParams,
) -> PosteriorState:
    """The posterior over a number pool given the examples, at `params`:
    the example set compiled alone (`build_number_task`) and weighed by
    the fit's forward pass (`fit.number_weights`). It spans the pool's
    first occurrences under dedup weighting and every entry under
    importance weighting; unparsed entries get weight 0."""
    _check_theta(cfg, params)
    kept = list(pool) if cfg.weighting == "importance" else dedup_pool(pool)
    task = _number_task(cfg, kept, examples, [], FeatureExtractor(dim=cfg.feature_dim), None)
    weights = number_weights(pack_params(params)[None], stack_tasks([task]))[0][0, 0]
    return posterior_state(kept, len(pool), weights, task.parsed)


def infer_shape(
    cfg: ExperimentConfig,
    pool: Sequence[Hypothesis],
    curve: LearningCurve,
    upto_batch: int,
    params: ModelParams,
) -> PosteriorState:
    """The posterior over a shape pool after the curve's first
    `upto_batch` batches (0..B), at `params`: the weights the online
    model predicts batch upto_batch + 1 from (`fit.shape_forward`), and
    after the last batch the weights of every parsed rule. A rule joins
    at its source batch; unparsed and not yet visible rules get weight 0."""
    n_batches = len(curve.batches)
    if not 0 <= upto_batch <= n_batches:
        raise ValueError(f"upto_batch must lie in 0..{n_batches}, not {upto_batch}")
    _check_theta(cfg, params)
    kept = dedup_pool(pool)
    if upto_batch == n_batches:  # every batch seen: every parsed rule is visible
        kept = [replace(h, source_batch=None) for h in kept]
    task = _shape_task(cfg, kept, curve, FeatureExtractor(dim=cfg.feature_dim), None, True)
    weights, alive = rule_weights(task, shape_forward(task, params)[1])
    return posterior_state(kept, len(pool), weights[upto_batch], alive[upto_batch])


# ---------------------------------------------------------------------------
# Number Game


def group_judgments(judgments: Sequence[HumanNumberJudgment]):
    """Group judgments by example set, in order of first judgment. A
    test number judged twice for one set is a ConfigError that names
    the first such `set_id:test_number`: its copies would share one
    record id, and a fold could train on one copy and predict the
    other."""
    by_set: Dict[str, List[HumanNumberJudgment]] = {}
    seen = set()
    for j in judgments:
        key = f"{j.set_id}:{j.test_number}"
        if key in seen:
            raise ConfigError(f"judgment {key} is repeated; each test number is judged once per example set")
        seen.add(key)
        by_set.setdefault(j.set_id, []).append(j)
    if not by_set:
        raise ValueError("no judgments to model")
    return by_set


def _require_pools(kind: str, keys, pools) -> None:
    """ConfigError naming the first of `keys` that has no pool, and the configured pools."""
    missing = next((key for key in keys if key not in pools), None)
    if missing is not None:
        configured = f"the pools are for {', '.join(map(repr, pools))}" if pools else "the config configures none"
        raise ConfigError(f"{kind} {missing!r} has no pool; {configured}")


def number_tasks(
    cfg: ExperimentConfig,
    judgments: Optional[Sequence[HumanNumberJudgment]],
    pools: Optional[Dict[str, List[Hypothesis]]],
) -> Dict[str, NumberTask]:
    """Each example set's judgments compiled against the first
    `cfg.budget` entries of its pool, by set id; judgments and pools
    are loaded from `cfg` when None. A set with no pool is a
    ConfigError that names it."""
    if judgments is None:
        judgments = load_data(cfg)
    if pools is None:
        pools = load_pools(cfg)
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    scores = io.load_score_file(cfg.scores_path) if cfg.prior == "external" else None
    by_set = group_judgments(judgments)
    _require_pools("example set", by_set, pools)
    tasks = {}
    for set_id, group in by_set.items():
        tests = [(j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in group]
        example_set = group[0].example_set
        pool = pools[set_id][: cfg.budget]
        tasks[set_id] = build_number_task(cfg, pool, example_set, tests, extractor, scores=scores)
    return tasks


def run_number_experiment(cfg: ExperimentConfig, judgments=None, pools=None):
    """(metrics, records, per-set top verbalizations) of `run_experiment`."""
    return run_experiment(cfg, judgments, pools)[:3]


def cross_validate(cfg: ExperimentConfig, tasks):
    """Holdout predictions of number tasks (a sequence or their
    TaskBatch): at `cfg.params` when given, else from `cfg.k_folds`
    folds cut by row (`kfold_rows` at `cfg.seed`) and fit by `cfg.fit`,
    all folds and the final fit on every row run as one stacked fit.
    Returns (metrics dict, prediction records, the final parameters)."""
    batch = stack_tasks(tasks)
    if cfg.params is not None:
        final_params = cfg.params
        u = pack_params(final_params)
        _, _, holdout = loss_and_grad(u, batch, len(final_params.theta), want_grad=False)
    else:
        n = len(batch.ids)
        # every fold and the final fit on all rows, as one stacked fit
        rows = np.vstack([kfold_rows(n, min(cfg.k_folds, n), cfg.seed), np.ones((1, n), dtype=bool)])
        *fold_results, final = fit_params(cfg.fit, batch, default_params(cfg), train_rows=rows)
        holdout = [record for result in fold_results for record in result.holdout_predictions]
        final_params = final.params
    records = [PredictionRecord(i, p, t, "holdout") for i, p, t in holdout]

    preds = [r.prediction for r in records]
    targets = [r.human for r in records]
    metrics = {
        "holdout_r2": r_squared(preds, targets),
        "n_predictions": len(records),
    }
    return metrics, records, final_params


TOP_K = 5


def number_top_verbalizations(
    tasks: Dict[str, NumberTask], batch: TaskBatch, params: ModelParams
) -> Dict[str, List[Tuple[str, float]]]:
    """The TOP_K highest-weight hypotheses per example set: the
    posterior weights the model predicts from at `params`, read off
    `batch`, the tasks compiled together."""
    weights = number_weights(pack_params(params)[None], batch)[0]
    out = {}
    for (set_id, task), w in zip(tasks.items(), weights[0]):
        order = np.argsort(-w[: len(task.names)], kind="stable")[:TOP_K]
        out[set_id] = [(task.names[i], float(w[i])) for i in order]
    return out


def map_rules(weights: np.ndarray, visible: np.ndarray) -> List[Optional[int]]:
    """Per batch, the first rule of largest weight, from the rule
    weights and visibility (B, S) of `fit.rule_weights`; None where no
    rule is visible."""
    return [int(np.argmax(w)) if v.any() else None for w, v in zip(weights, visible)]


# ---------------------------------------------------------------------------
# Online logical concepts


def shape_tasks(
    cfg: ExperimentConfig,
    curves: Sequence[LearningCurve],
    pools: Optional[Dict[str, List[Hypothesis]]] = None,
) -> List[ShapeTask]:
    """Each curve compiled against its pool, in curve order, with one
    read of the external prior's score file: the tasks that fitting,
    online evaluation and the latent-language baseline all read. Pools
    are loaded from `cfg` when None; a curve with no pool is a
    ConfigError that names it."""
    if pools is None:
        pools = load_pools(cfg)
    _require_pools("curve", (c.concept_id for c in curves), pools)
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    scores = io.load_score_file(cfg.scores_path) if cfg.prior == "external" else None
    return [
        build_shape_task(cfg, pools[c.concept_id], c, extractor, scores=scores)
        for c in curves
    ]


def online_metrics(records: Sequence[PredictionRecord], curves: Sequence[LearningCurve]) -> Dict:
    """Accuracy of predictions thresholded at 0.5 against the trial
    labels, records in curve and trial order."""
    labels = [t.label for curve in curves for t in curve.trials]
    return {
        "accuracy": float(np.mean([(r.prediction >= 0.5) == y for r, y in zip(records, labels)])),
        "n_trials": len(records),
    }


def evaluate_online(curves: Sequence[LearningCurve], tasks: Sequence[ShapeTask], params: ModelParams):
    """Online protocol over compiled tasks (`shape_tasks`): per batch,
    weigh the rules visible so far by the decayed likelihood of all
    *previous* trials, and predict each trial in the batch before its
    label is revealed. Each curve is one forward pass over its task
    (the model the fit optimizes, with the gradient off).

    Returns (metrics, records, per-curve details); each detail's
    `per_batch` rows give the batch's accuracy, its MAP rule (None when
    no rule is visible), and the effective sample size and largest
    weight of the posterior it was predicted from.
    """
    records: List[PredictionRecord] = []
    details = {}
    for curve, task in zip(curves, tasks):
        preds, p, _ = shape_forward(task, params)
        weights, visible = rule_weights(task, p)
        correct = (preds >= 0.5) == (task.labels > 0)
        records.extend(
            PredictionRecord(i, float(p), h, "holdout")
            for i, p, h in zip(task.ids, preds, curve.human_positive_rate)
        )
        per_batch = [
            {
                "batch": b + 1,
                "accuracy": float(correct[task.batch == b].mean()),
                "map_nl": None if s is None else task.names[s],
                **weight_diagnostics(w),
            }
            for b, (s, w) in enumerate(zip(map_rules(weights, visible), weights))
        ]
        details[curve.concept_id] = {"per_batch": per_batch}
    metrics = online_metrics(records, curves)
    humans = [r.human for r in records]
    if len(set(humans)) > 1:
        metrics["r2_vs_human"] = r_squared([r.prediction for r in records], humans)
    return metrics, records, details


def run_online_experiment(cfg: ExperimentConfig, curves=None, pools=None, params=None):
    """(metrics, records, details) of `run_experiment` at `params`, else
    `cfg.params`, else the default parameters: it never fits."""
    return run_experiment(cfg, curves, pools, params or cfg.params or default_params(cfg))[:3]


def fit_online_params(
    cfg: ExperimentConfig,
    curves: Sequence[LearningCurve],
    pools: Dict[str, List[Hypothesis]],
) -> FitResult:
    """Fit epsilon/alpha/beta/temperature (and theta under a tuned
    prior) against the learning curves, compiled by `shape_tasks`."""
    return fit_params(cfg.fit, shape_tasks(cfg, curves, pools), default_params(cfg))


# ---------------------------------------------------------------------------
# The experiment


class ExperimentResult(NamedTuple):
    metrics: Dict
    records: List[PredictionRecord]
    details: Dict  # numbers: top verbalizations per set; shapes: per-batch rows per curve
    params: ModelParams


def run_experiment(cfg: ExperimentConfig, data=None, pools=None, params=None) -> ExperimentResult:
    """The judgments or learning curves in `data` compiled once against
    `pools`, both loaded from `cfg` when None, and predicted at `params`,
    else `cfg.params`, else at parameters fit by the stacked k-fold fit
    of `cross_validate` (numbers, held-out predictions) or by one
    in-sample fit (shapes, predicted online by `evaluate_online`)."""
    if params is not None:  # through the constructor's check of theta
        cfg = replace(cfg, params=params)
    if cfg.domain == NUMBER_DOMAIN:
        tasks = number_tasks(cfg, data, pools)
        batch = stack_tasks(list(tasks.values()))
        metrics, records, params = cross_validate(cfg, batch)
        return ExperimentResult(metrics, records, number_top_verbalizations(tasks, batch, params), params)
    curves = load_data(cfg) if data is None else data
    tasks = shape_tasks(cfg, curves, pools)
    params = cfg.params or fit_params(cfg.fit, tasks, default_params(cfg)).params
    return ExperimentResult(*evaluate_online(curves, tasks, params), params)


# ---------------------------------------------------------------------------
# Plot data


def emit_plot_data(records: Sequence[PredictionRecord], path) -> None:
    """Tidy CSV of predictions vs. human values, one row per datum."""
    if not records:
        raise ValueError("no records to emit")
    rows = ([r.datum_id, f"{r.prediction:.10f}", "" if r.human is None else f"{r.human:.10f}", r.split] for r in records)
    io.write_csv(path, ["datum_id", "prediction", "human", "split"], rows)


def emit_learning_curves(details: Dict, path) -> None:
    """Per-batch accuracy and MAP verbalization, one row per batch of
    each concept's curve."""
    rows = (
        [cid, row["batch"], f"{row['accuracy']:.10f}", row["map_nl"] or ""]
        for cid, info in details.items()
        for row in info["per_batch"]
    )
    io.write_csv(path, ["concept_id", "batch", "accuracy", "map_nl"], rows)


def emit_sweep_table(rows: Sequence[Dict], path) -> None:
    """Budget-sweep results: mean and SEM of holdout R^2 per budget."""
    table = ([row["budget"], f"{row['mean_r2']:.10f}", f"{row['sem_r2']:.10f}", row["n_runs"]] for row in rows)
    io.write_csv(path, ["budget", "mean_r2", "sem_r2", "n_runs"], table)


def budget_sweep(cfg: ExperimentConfig, budgets: Sequence[int], seeds: Sequence[int]) -> List[Dict]:
    """Holdout fit quality as a function of the proposal budget,
    mean +/- SEM over seeds.

    A seed only reshuffles the CV folds: the pool at each budget is
    always the first `budget` lines of the same pool files, so proposals
    are never resampled. Each pool file is read once, after every
    budget and seed has passed the config's checks."""
    runs = [[replace(cfg, budget=budget, seed=seed) for seed in seeds] for budget in budgets]
    judgments, pools = load_data(cfg), load_pools(cfg)
    rows = []
    for budget, budget_runs in zip(budgets, runs):
        r2s = np.array([run_experiment(c, judgments, pools).metrics["holdout_r2"] for c in budget_runs])
        sem = float(r2s.std(ddof=1) / math.sqrt(len(r2s))) if len(r2s) > 1 else 0.0
        rows.append(
            {
                "budget": budget,
                "mean_r2": float(r2s.mean()),
                "sem_r2": sem,
                "n_runs": len(r2s),
            }
        )
    return rows

import csv
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlconcepts
from nlconcepts import io
from nlconcepts.baselines import latent_language_shape
from nlconcepts.dsl.generate import random_shape_expr
from nlconcepts.dsl.shape import format_shape_concept
from nlconcepts.fit import FitConfig, ShapeTask, kfold_rows, rule_weights, shape_forward, stack_tasks
from nlconcepts.harness import (
    ConfigError,
    ExperimentConfig,
    PredictionRecord,
    budget_sweep,
    build_number_task,
    build_shape_task,
    default_params,
    emit_learning_curves,
    emit_plot_data,
    emit_sweep_table,
    fit_online_params,
    group_judgments,
    infer_shape,
    load_data,
    load_pools,
    number_tasks,
    params_from_json,
    params_to_json,
    run_experiment,
    run_number_experiment,
    run_online_experiment,
    shape_tasks,
)
from nlconcepts.likelihood import EvalCache, truth_matrix
from nlconcepts.posterior import dedup_pool
from nlconcepts.prior import FeatureExtractor, MissingFeature
from nlconcepts.types import (
    HumanNumberJudgment,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    Trial,
)

import oracle
from conftest import exchangeable_shape_pool, synthetic_shape_curve, synthetic_shape_pool, write_repeated_judgments


def load_fixture_curve(fixtures_dir):
    return io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")


def load_fixture_pool(fixtures_dir):
    return io.load_pool(fixtures_dir / "shape" / "green_triangles_pool.jsonl", "shape")


def test_experiment_config_from_json(fixtures_dir):
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_tuned.json")
    assert cfg.domain == "number"
    assert cfg.prior == "tuned"
    assert cfg.feature_dim == 64
    assert cfg.fit.epochs == 1000
    assert len(cfg.pools) == 8
    cfg_u = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_uniform.json")
    assert cfg_u.fit.trainable == ("epsilon", "temperature", "platt")


def test_params_json_round_trips_every_field():
    params = ModelParams(
        theta=np.array([0.5, -1.25, 3.0]), epsilon=0.2, alpha=0.3, beta=1.5, temperature=0.7, platt_a=2.0, platt_b=-0.4
    )
    names = [f.name for f in dataclasses.fields(ModelParams)]
    assert all(getattr(params, n) != getattr(ModelParams(), n) for n in names[1:])  # theta: 3 entries, not 0
    raw = params_to_json(params)
    assert list(raw) == names
    back = params_from_json(json.loads(json.dumps(raw)))
    for name in names:
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name), err_msg=name)


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"k_fold": 3, "seeds": [1]}, "unknown config key(s): 'k_fold', 'seeds'"),
        ({"fit": {"epoch": 3}}, "unknown fit key(s): 'epoch'"),
        ({"params": {"epsilon": 0.2, "epsilom": 0.1}}, "unknown params key(s): 'epsilom'"),
        ({"trainable": ["epsilon"]}, "unknown config key(s): 'trainable'"),
    ],
    ids=["top", "fit", "params", "trainable-outside-fit"],
)
def test_config_json_refuses_unknown_keys(extra, message, fixtures_dir, tmp_path):
    """A mistyped key is a ConfigError naming it, not a TypeError from a
    constructor, at the top level and in each nested object."""
    raw = json.loads((fixtures_dir / "configs" / "number_uniform.json").read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, **extra}))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(path)
    assert str(err.value) == message


def test_build_number_task_shapes(fixtures_dir):
    cfg = ExperimentConfig(domain="number", prior="tuned", feature_dim=16)
    ext = FeatureExtractor(dim=16)
    pool = io.load_pool(fixtures_dir / "number" / "set01.jsonl", "number")
    task = build_number_task(
        cfg, pool, NumberExampleSet([2, 4, 8, 16]), [(32, 0.9, "a"), (3, 0.1, "b")], ext
    )
    n_unique = len({h.key for h in pool})
    assert task.features.shape == (n_unique, 16)
    assert task.member.shape == (n_unique, 4)
    assert task.test_member.shape == (2, n_unique)
    assert task.ids == ["a", "b"]
    # dedup is by text: the duplicate-meaning pair (same extension,
    # different phrasing) stays as two entries
    assert n_unique == len(pool)
    exts = [h.program.extension for h in pool if h.parsed]
    assert len(set(exts)) < len(exts)
    # one deliberately unparsed entry
    assert (~task.parsed).sum() == 1


def test_number_tasks_keep_each_sets_own_program():
    """Two example sets whose pools translate the same words to
    different programs: each set's task uses its own pool's program."""
    special = {"a": "even(x)", "b": "odd(x)"}
    pools = {
        set_id: [
            io.make_hypothesis("the number is special", src, "number"),
            io.make_hypothesis("the number is below 10", "x < 10", "number"),
        ]
        for set_id, src in special.items()
    }
    judgments = [
        HumanNumberJudgment(NumberExampleSet(examples), 5, 0.5, set_id)
        for set_id, examples in (("a", [2, 4]), ("b", [3, 7]))
    ]
    cfg = ExperimentConfig(domain="number", prior="uniform", feature_dim=0)
    tasks = number_tasks(cfg, judgments, pools)
    assert tasks["a"].member.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert tasks["b"].member.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert tasks["a"].test_member.tolist() == [[0.0, 1.0]]
    assert tasks["b"].test_member.tolist() == [[1.0, 1.0]]
    assert tasks["a"].inv_size[0] == tasks["b"].inv_size[0] == 1 / 50


def test_external_prior_missing_score_raises_missing_feature(tmp_path):
    scores = tmp_path / "scores.jsonl"
    io.save_score_file(scores, {"the number is even": -1.0})
    cfg = ExperimentConfig(domain="number", prior="external", scores_path=str(scores))
    pool = [
        io.make_hypothesis("the number is even", "even(x)", "number"),
        io.make_hypothesis("the number is odd", "odd(x)", "number"),
    ]
    args = (NumberExampleSet([2]), [(4, 0.8, "a")], FeatureExtractor(dim=0))
    assert build_number_task(cfg, pool[:1], *args).base_logprior.tolist() == [-1.0]
    with pytest.raises(MissingFeature, match="the number is odd"):
        build_number_task(cfg, pool, *args)


def test_number_tasks_read_the_score_file_once(fixtures_dir, tmp_path, monkeypatch):
    """Under the external prior, the score file is read once for all
    eight fixture sets, and each task is the one its set's builder
    makes on its own."""
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_tuned.json")
    cfg = dataclasses.replace(
        cfg,
        prior="external",
        scores_path=str(tmp_path / "scores.jsonl"),
        data_path=str(fixtures_dir / "number_judgments.csv"),
        pools={k: str(fixtures_dir / "number" / f"{k}.jsonl") for k in cfg.pools},
    )
    pools = {k: io.load_pool(path, "number") for k, path in cfg.pools.items()}
    nl = {h.key for pool in pools.values() for h in pool}
    io.save_score_file(cfg.scores_path, {key: -len(key) / 10 for key in sorted(nl)})
    reads = []
    load_score_file = io.load_score_file
    monkeypatch.setattr(io, "load_score_file", lambda path: reads.append(path) or load_score_file(path))
    tasks = number_tasks(cfg, None, None)
    assert len(tasks) == 8 and reads == [cfg.scores_path]
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    for set_id, group in group_judgments(io.load_number_judgments(cfg.data_path)).items():
        tests = [(j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in group]
        alone = build_number_task(cfg, pools[set_id], group[0].example_set, tests, extractor)
        task = tasks[set_id]
        for field in dataclasses.fields(task):
            got, want = getattr(task, field.name), getattr(alone, field.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, field.name
    assert len(reads) == 1 + len(tasks)


def test_shape_experiments_read_the_score_file_once(fixtures_dir, tmp_path, monkeypatch):
    """Under the external prior, `shape_tasks` reads the score file once
    for two curves and builds each task as `build_shape_task` does on
    its own; the fit and online evaluation read it once each, and the
    latent-language baseline, which forces the uniform prior, not at all."""
    curve = load_fixture_curve(fixtures_dir)
    twin = LearningCurve("green_triangles_twin", curve.ground_truth_nl, curve.batches, curve.human_positive_rate)
    pool = load_fixture_pool(fixtures_dir)
    curves, pools = [curve, twin], {curve.concept_id: pool, twin.concept_id: pool}
    cfg = ExperimentConfig(
        domain="shape",
        prior="external",
        feature_dim=0,
        scores_path=str(tmp_path / "scores.jsonl"),
        fit=FitConfig(epochs=3, trainable=("epsilon", "alpha", "beta", "temperature")),
    )
    io.save_score_file(cfg.scores_path, {key: -len(key) / 10 for key in sorted({h.key for h in pool})})
    reads = []
    load_score_file = io.load_score_file
    monkeypatch.setattr(io, "load_score_file", lambda path: reads.append(path) or load_score_file(path))
    tasks = shape_tasks(cfg, curves, pools)
    assert len(tasks) == 2 and reads == [cfg.scores_path]
    for c, task in zip(curves, tasks):
        alone = build_shape_task(cfg, pool, c, FeatureExtractor(dim=cfg.feature_dim))
        for field in dataclasses.fields(task):
            got, want = getattr(task, field.name), getattr(alone, field.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, field.name
    for experiment, n_reads in ((fit_online_params, 1), (run_online_experiment, 1), (latent_language_shape, 0)):
        reads.clear()
        experiment(cfg, curves, pools)
        assert len(reads) == n_reads, experiment.__name__


@pytest.mark.parametrize("source", ["fixture", "synthetic"])
def test_build_shape_task_truth_matrix_is_zero_one(source, fixtures_dir):
    """The shape kernel is affine in the truth matrix, which holds for
    0/1 entries only; both pools have unparsed rules and duplicates."""
    if source == "fixture":
        pool, curve = load_fixture_pool(fixtures_dir), load_fixture_curve(fixtures_dir)
    else:
        pool, curve = synthetic_shape_pool(), synthetic_shape_curve()
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0))
    assert set(np.unique(task.consist).tolist()) == {0.0, 1.0}


def test_shape_task_rejects_a_truth_value_between_zero_and_one(fixtures_dir):
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    pool, curve = load_fixture_pool(fixtures_dir), load_fixture_curve(fixtures_dir)
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0))
    consist = task.consist.copy()
    consist[2, 5] = 0.5
    message = r"shape task 'green_triangles': .* found 0\.5 for rule .* on trial 5"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(task, consist=consist)


def test_shape_task_rejects_a_truth_value_between_zero_and_one_in_a_class(monkeypatch):
    """A rule whose truth row holds 0.5 where an otherwise equal rule
    holds 1 is not merged into that rule's class, so the check sees it."""
    import nlconcepts.harness as harness

    curve = synthetic_shape_curve()
    pool = [
        io.make_hypothesis("it is green", "this.color == green", "shape"),
        io.make_hypothesis("it is a green thing", "this.color == green", "shape"),
    ]
    truth_matrix = harness.truth_matrix

    def half_true(rules, trials):
        truth = truth_matrix(rules, trials)
        truth[1, 0] *= 0.5
        return truth

    monkeypatch.setattr(harness, "truth_matrix", half_true)
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    with pytest.raises(ValueError, match=r"found 0\.5 for rule 'it is a green thing' on trial 0"):
        build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0))


def test_build_shape_task_masks_respect_source_batch(fixtures_dir):
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    ext = FeatureExtractor(dim=0)
    cache = EvalCache()
    curve = load_fixture_curve(fixtures_dir)
    pool = load_fixture_pool(fixtures_dir)
    task = build_shape_task(cfg, pool, curve, ext, cache)
    assert task.consist.shape[1] == len(curve.trials)
    assert task.ids == [f"{curve.concept_id}:{k}" for k in range(len(curve.trials))]
    unique = []
    seen = set()
    for h in pool:
        if h.key not in seen:
            seen.add(h.key)
            unique.append(h)
    assert task.visible.shape == (len(curve.batches), len(unique))
    # before batch b (from 1) a rule is visible iff it parsed and its
    # source batch is unset or at most b; batch 1 sees only batch-1 proposals
    for b, visible in enumerate(task.visible, start=1):
        expected = [h.parsed and (h.source_batch is None or h.source_batch <= b) for h in unique]
        assert visible.tolist() == expected, b
    assert task.visible[-1].tolist() == [h.parsed for h in unique]
    assert not task.visible[0].all() and task.visible[0].any()
    # each trial carries its own batch index, in trial order
    sizes = [len(b) for b in curve.batches]
    assert task.batch.tolist() == [b for b, n in enumerate(sizes) for _ in range(n)]
    assert np.flatnonzero(task.batch == task.batch[-1])[0] == sum(sizes[:-1])


def test_shape_task_classes_follow_the_prior(fixtures_dir):
    """Rules merge into one class when nothing the posterior reads tells
    them apart: equal external scores merge, distinct tuned features
    do not, and without a merge there is one class per rule. The batch
    a rule joins at is not part of its class: a class counts, per
    batch, the rules of it visible there."""
    curve = synthetic_shape_curve()
    pool = [
        io.make_hypothesis("it is green", "this.color == green", "shape"),
        io.make_hypothesis("it is a green thing", "this.color == green", "shape"),
    ]
    external = ExperimentConfig(domain="shape", prior="external", feature_dim=0)
    for scores, count in (([-1.0, -1.0], [2]), ([-1.0, -2.0], [1, 1])):
        by_key = {h.key: score for h, score in zip(pool, scores)}
        task = build_shape_task(external, pool, curve, FeatureExtractor(dim=0), scores=by_key)
        assert task.count.tolist() == [count] * len(curve.batches), scores
        assert task.base_logprior[task.rule_class].tolist() == scores
    tuned = ExperimentConfig(domain="shape", prior="tuned", feature_dim=16)
    task = build_shape_task(tuned, pool, curve, FeatureExtractor(dim=16))
    assert task.count[-1].tolist() == [1, 1] and task.rule_class.tolist() == [0, 1]
    assert not np.array_equal(task.features[0], task.features[1])
    uniform = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    joined = [dataclasses.replace(h, source_batch=b) for h, b in zip(pool, (4, 2))]
    task = build_shape_task(uniform, joined, curve, FeatureExtractor(dim=0))
    assert task.rule_class.tolist() == [0, 0] and task.first_batch.tolist() == [3, 1]
    assert task.count.tolist() == [[0], [1], [1], [2], [2]]

    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "shape_online.json")
    pool = load_fixture_pool(fixtures_dir)
    task = build_shape_task(cfg, pool, load_fixture_curve(fixtures_dir), FeatureExtractor(dim=0))
    assert len(task.names) == len(pool) == 10
    assert task.count[-1].tolist() == [float(h.parsed) for h in pool]
    assert task.rule_class.tolist() == list(range(10))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prior=st.sampled_from(["uniform", "external", "tuned"]),
    after_last=st.booleans(),
    data=st.data(),
)
def test_shape_task_classes_are_distinct_and_count_the_rules_joined(seed, prior, after_last, data):
    """On random pools (empty, all unparsed, rules of equal truth rows
    joining at random batches, source batches before the first batch
    and after the last): no two classes share a truth row, base
    log-prior and feature row; each rule's class has the rule's own;
    count[b, g] is the number of parsed rules of class g joined by
    batch b + 1 (the row after the last batch counting those of the
    last); and the rule weights of a batch sum to 1 where a rule is
    visible, else to 0."""
    curve = synthetic_shape_curve()
    n_batches = len(curve.batches)
    rng = random.Random(seed)
    pool = []
    for i in range(data.draw(st.integers(0, 12), label="n_rules")):
        src = format_shape_concept(random_shape_expr(rng, rng.randint(0, 2)))
        if data.draw(st.booleans(), label="unparsed"):
            src = "exists(o in"
        batch = data.draw(st.one_of(st.none(), st.integers(-1, n_batches + 2)), label="batch")
        pool.append(io.make_hypothesis(f"rule {i}: {src}", src, "shape", batch=batch))
    cfg = ExperimentConfig(domain="shape", prior=prior, feature_dim=4 if prior == "tuned" else 0)
    unique, _ = dedup_pool(pool)
    scores = {h.key: float(rng.choice([-1.0, -2.0])) for h in unique}
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    task = build_shape_task(cfg, pool, curve, extractor, scores=scores, after_last=after_last)

    n_classes = task.consist.shape[0]
    features = np.zeros((n_classes, 0)) if task.features is None else task.features
    keys = zip(task.consist, task.base_logprior.tolist(), features)
    assert len({(c.tobytes(), base, f.tobytes()) for c, base, f in keys}) == n_classes
    assert np.array_equal(task.consist[task.rule_class], truth_matrix(unique, curve.trials))
    if prior == "external":
        assert task.base_logprior[task.rule_class].tolist() == [scores[h.key] for h in unique]
    if prior == "tuned" and unique:
        assert np.array_equal(task.features[task.rule_class], extractor.matrix(unique))
    want = np.zeros((n_batches + after_last, n_classes))
    for h, g in zip(unique, task.rule_class):
        join = max(h.source_batch or 1, 1)
        if h.parsed and join <= n_batches:
            want[join - 1 :, g] += 1
    assert task.count.tolist() == want.tolist()
    params = ModelParams(theta=np.ones(cfg.feature_dim), epsilon=0.2, alpha=0.4, beta=1.0)
    weights, visible = rule_weights(task, shape_forward(task, params)[1])
    assert np.allclose(weights.sum(axis=1), visible.any(axis=1), rtol=0, atol=1e-12)


def test_map_rule_of_tied_classes_is_the_earlier_rule():
    """At batch 2 "small and green" and "green" agree on every earlier
    trial, so their classes tie exactly; the MAP rule is the earlier of
    the two, although the class of "green" holds two rules."""
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    curve = synthetic_shape_curve()
    rules = [
        ("it is blue", "this.color == blue"),
        ("it is small and green", "this.color == green and this.size == 1"),
        ("it is green", "this.color == green"),
        ("it is a green thing", "this.color == green"),
    ]
    pool = [io.make_hypothesis(nl, src, "shape") for nl, src in rules]
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0))
    assert task.rule_class.tolist() == [0, 1, 2, 2]
    params = ModelParams(theta=np.zeros(0), epsilon=0.1, alpha=0.5, beta=1.0)
    _, p, _ = shape_forward(task, params)
    assert p[1, 1] == p[1, 2] > p[1, 0]
    assert p[1, 2] * task.count[1, 2] > p[1, 1] * task.count[1, 1]
    _, _, details = run_online_experiment(cfg, [curve], {curve.concept_id: pool}, params)
    per_batch = details[curve.concept_id]["per_batch"]
    assert per_batch[1]["map_nl"] == "it is small and green"
    assert per_batch[1]["max_weight"] == p[1, 1]
    _, _, chosen = latent_language_shape(cfg, [curve], {curve.concept_id: pool})
    assert chosen[curve.concept_id][1] == "it is small and green"


def test_budget_sweep_loads_each_pool_once(fixtures_dir, monkeypatch):
    """The sweep reads every pool file once and its rows equal the
    per-budget experiments, each of which reads its own pools."""
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_uniform.json")
    cfg.fit = FitConfig(epochs=5, trainable=("epsilon", "platt"))
    cfg.data_path = str(fixtures_dir / "number_judgments.csv")
    cfg.pools = {k: str(fixtures_dir / "number" / f"{k}.jsonl") for k in cfg.pools}
    budgets, seeds = (2, 4), (0, 1)
    want = []
    for budget in budgets:
        runs = [run_number_experiment(dataclasses.replace(cfg, budget=budget, seed=s)) for s in seeds]
        r2s = np.array([metrics["holdout_r2"] for metrics, _, _ in runs])
        sem = float(r2s.std(ddof=1) / np.sqrt(len(r2s)))
        want.append({"budget": budget, "mean_r2": float(r2s.mean()), "sem_r2": sem, "n_runs": 2})
    loads = []
    load_pool = io.load_pool
    monkeypatch.setattr(io, "load_pool", lambda *a, **k: loads.append(a) or load_pool(*a, **k))
    assert budget_sweep(cfg, budgets, seeds) == want
    assert sorted(str(a[0]) for a in loads) == sorted(cfg.pools.values())


def _sweep_refusal(fixtures_dir, monkeypatch, budgets, seeds):
    """The ConfigError of a sweep, checked to come before any pool is read."""
    cfg = _fixture_config(fixtures_dir, "number_uniform.json")
    loads = []
    monkeypatch.setattr(io, "load_pool", lambda *a, **k: loads.append(a))
    with pytest.raises(ConfigError) as err:
        budget_sweep(cfg, budgets, seeds)
    assert loads == []
    return str(err.value)


def test_budget_sweep_rejects_an_empty_budget(fixtures_dir, monkeypatch):
    """Budget 0 is the config's refusal, not a slice of empty pools."""
    assert _sweep_refusal(fixtures_dir, monkeypatch, (10, 0), (0,)) == "budget must be >= 1, not 0"


def test_budget_sweep_rejects_a_negative_seed(fixtures_dir, monkeypatch):
    assert _sweep_refusal(fixtures_dir, monkeypatch, (10,), (0, -1)) == "seed must be >= 0, not -1"


def test_budget_sweep_names_an_empty_pool_file(fixtures_dir, tmp_path):
    cfg = _fixture_config(fixtures_dir, "number_uniform.json")
    empty = tmp_path / "set01.jsonl"
    empty.write_text("")
    cfg = dataclasses.replace(cfg, pools={**cfg.pools, "set01": str(empty)})
    with pytest.raises(io.EmptyPool, match=re.escape(f"pool file {empty} holds no hypotheses")):
        budget_sweep(cfg, (10,), (0,))


def _fixture_config(fixtures_dir, name):
    """A fixture config with its data and pool paths made absolute."""
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / name)
    root = fixtures_dir.parent
    return dataclasses.replace(
        cfg, data_path=str(root / cfg.data_path), pools={k: str(root / v) for k, v in cfg.pools.items()}
    )


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_rows_equal_numpys_set_difference(seed, k, fixtures_dir):
    """Each fold's training rows (`kfold_rows`) are numpy's
    `isin(..., invert=True)` on the fixture judgments' ids, with the
    held-out ids those of order[i::k] of the seeded permutation."""
    ids = np.array(stack_tasks(list(number_tasks(_fixture_config(fixtures_dir, "number_uniform.json"), None, None).values())).ids)
    assert len(ids) == 48 and len(set(ids)) == 48
    order = np.random.default_rng(seed).permutation(len(ids))
    rows = kfold_rows(len(ids), k, seed)
    assert rows.shape == (k, len(ids)) and rows.dtype == bool
    for i in range(k):
        holdout = ids[order[i::k]]
        np.testing.assert_array_equal(rows[i], np.isin(ids, holdout, invert=True))
        assert rows[i].sum() == len(ids) - len(holdout)


def test_a_repeated_judgment_is_refused(fixtures_dir, tmp_path):
    """A test number judged twice for one example set is a ConfigError
    that names it, not two rows under one record id that one fold could
    train on while another predicts them."""
    path = write_repeated_judgments(tmp_path / "judgments.csv")
    judgments = io.load_number_judgments(path)
    assert len(judgments) == 49
    with pytest.raises(ConfigError, match="judgment set01:11 is repeated"):
        group_judgments(judgments)
    cfg = dataclasses.replace(_fixture_config(fixtures_dir, "number_uniform.json"), data_path=str(path))
    with pytest.raises(ConfigError, match="judgment set01:11 is repeated"):
        number_tasks(cfg, None, None)


@pytest.mark.parametrize("pools, message", [
    (["set01", "set02"], "example set 'set03' has no pool; the pools are for 'set01', 'set02'"),
    ([], "example set 'set01' has no pool; the config configures none"),
])
def test_number_tasks_name_an_example_set_with_no_pool(pools, message, fixtures_dir):
    """A judgment whose example set has no pool is a ConfigError that
    names the set, not a judgment left out; without pools, grouping
    keeps every set."""
    cfg = _fixture_config(fixtures_dir, "number_uniform.json")
    cfg = dataclasses.replace(cfg, pools={k: cfg.pools[k] for k in pools})
    with pytest.raises(ConfigError, match=re.escape(message)):
        number_tasks(cfg, None, None)
    judgments = load_data(cfg)
    assert list(group_judgments(judgments)) == [f"set{i:02d}" for i in range(1, 9)]
    with pytest.raises(ValueError, match="no judgments"):
        group_judgments([])


def _run_fresh(code, cwd):
    """Run `code` in a fresh interpreter that imports this nlconcepts;
    fail with its stderr unless it exits 0."""
    src = str(Path(nlconcepts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_number_experiment_leaves_numpy_ma_unloaded(fixtures_dir):
    """A fresh interpreter that runs the number fixture experiment, at
    its 10 folds and at 2, never loads numpy.ma, numpy.random or
    secrets: the folds are row masks cut from `pcg64.permutation`, not
    by numpy's set routines, which sort string ids through numpy.ma, nor
    by numpy.random, which imports secrets and OpenSSL."""
    code = (
        "import dataclasses, sys; from nlconcepts import harness; "
        f"cfg = harness.ExperimentConfig.from_json({str(fixtures_dir / 'configs' / 'number_tuned.json')!r}); "
        "harness.run_experiment(cfg); "
        "harness.run_experiment(dataclasses.replace(cfg, k_folds=2, fit=dataclasses.replace(cfg.fit, epochs=2))); "
        "loaded = sorted({'numpy.ma', 'numpy.random', 'secrets'} & set(sys.modules)); "
        "assert not loaded, loaded"
    )
    _run_fresh(code, cwd=fixtures_dir.parent)


def test_shape_and_uniform_prior_runs_leave_openssl_unloaded(fixtures_dir, tmp_path):
    """A fresh interpreter that runs the shape fixture experiment, `fit`
    on its config, `fit` on the uniform-prior number config and a
    uniform-prior number `infer` never loads `_hashlib` (OpenSSL): only
    tuned-prior features and replay keys hash, and each imports hashlib
    on first use. The tuned prior's first feature extraction then loads
    it."""
    configs = fixtures_dir / "configs"
    pool = fixtures_dir / "number_pool_size_principle.jsonl"
    shape_out, number_out = tmp_path / "shape", tmp_path / "number"
    code = (
        "import sys; from nlconcepts import cli, harness, prior; "
        f"harness.run_experiment(harness.ExperimentConfig.from_json({str(configs / 'shape_online.json')!r})); "
        f"assert cli.main(['fit', '--config', {str(configs / 'shape_online.json')!r}, '--out-dir', {str(shape_out)!r}]) == 0; "
        f"assert cli.main(['fit', '--config', {str(configs / 'number_uniform.json')!r}, '--out-dir', {str(number_out)!r}]) == 0; "
        f"assert cli.main(['infer', '--domain', 'number', '--pool', {str(pool)!r}, '--examples', '16,8,2,64']) == 0; "
        "assert '_hashlib' not in sys.modules; "
        "prior.extract_features('the number is even'); "
        "assert '_hashlib' in sys.modules"
    )
    _run_fresh(code, cwd=fixtures_dir.parent)
    assert (shape_out / "metrics.json").exists() and (number_out / "metrics.json").exists()


@pytest.mark.parametrize("name", ["number_tuned.json", "number_uniform.json"])
def test_run_number_experiment_is_the_runner(name, fixtures_dir):
    cfg = _fixture_config(fixtures_dir, name)
    assert run_number_experiment(cfg) == run_experiment(cfg)[:3]


@pytest.mark.parametrize(
    "name, r2", [("number_tuned.json", 0.9977069131873986), ("number_uniform.json", 0.6857791742188053)]
)
def test_number_fixture_fit_keeps_its_holdout_r2(name, r2, fixtures_dir):
    """The stacked CV fit of each number fixture config, at its seed 0,
    keeps the holdout R2 it has always had; the tolerance allows for
    the last bits a BLAS build may change."""
    cfg = _fixture_config(fixtures_dir, name)
    assert cfg.seed == 0
    assert run_experiment(cfg).metrics["holdout_r2"] == pytest.approx(r2, rel=0.0, abs=1e-9)


def test_shape_fixture_fit_keeps_its_parameters(fixtures_dir):
    """The in-sample fit of `shape_online.json` lands on the parameters
    it has always fit, to 1e-12."""
    params = run_experiment(_fixture_config(fixtures_dir, "shape_online.json")).params
    got = [params.epsilon, params.alpha, params.beta, params.temperature]
    want = [0.4749787112338355, 0.47581600815075653, 0.9022645848657168, 0.9024028486373963]
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)
    assert (params.theta.size, params.platt_a, params.platt_b) == (0, 1.0, 0.0)


def test_run_online_experiment_is_the_runner_and_never_fits(fixtures_dir):
    cfg = _fixture_config(fixtures_dir, "shape_online.json")
    curves, pools = load_data(cfg), load_pools(cfg)
    params = ModelParams(epsilon=0.2, alpha=0.45, beta=0.3, temperature=0.6)
    assert run_online_experiment(cfg, curves, pools, params) == run_experiment(cfg, curves, pools, params)[:3]
    assert run_online_experiment(cfg) == run_experiment(cfg, params=default_params(cfg))[:3]


def test_run_number_experiment_with_fixed_params(fixtures_dir):
    true = json.loads((fixtures_dir / "params_true.json").read_text())
    params = ModelParams(
        theta=np.asarray(true["theta"]),
        epsilon=true["epsilon"],
        alpha=true["alpha"],
        beta=true["beta"],
        temperature=true["temperature"],
        platt_a=true["platt_a"],
        platt_b=true["platt_b"],
    )
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_tuned.json")
    cfg.params = params
    cfg.data_path = str(fixtures_dir / "number_judgments.csv")
    cfg.pools = {k: str(fixtures_dir / "number" / f"{k}.jsonl") for k in cfg.pools}
    metrics, records, verbalizations = run_number_experiment(cfg)
    assert metrics["n_predictions"] == 48
    # the fixture ratings were generated by exactly these parameters
    assert metrics["holdout_r2"] == pytest.approx(1.0, abs=1e-9)
    assert set(verbalizations) == set(cfg.pools)
    for top in verbalizations.values():
        weights = [w for _, w in top]
        assert weights == sorted(weights, reverse=True)


def test_top_verbalizations_under_importance_weighting_correct_for_q():
    """Top-k lists the weights the model predicts from: under importance
    weighting they are divided by q and duplicates are not merged."""
    pool = [
        io.make_hypothesis("the number is even", "even(x)", "number", logq=-0.1),
        io.make_hypothesis("an even number", "even(x)", "number", logq=-3.0),
        io.make_hypothesis("the number is odd", "odd(x)", "number", logq=-0.5),
        io.make_hypothesis("the number is even", "even(x)", "number", logq=-0.1),
    ]
    example_set = NumberExampleSet([2, 4])
    judgments = [HumanNumberJudgment(example_set, t, r, "s") for t, r in [(6, 0.9), (7, 0.1)]]
    params = ModelParams(epsilon=0.02)
    tops = {}
    for weighting in ("dedup", "importance"):
        cfg = ExperimentConfig(domain="number", weighting=weighting, params=params)
        _, _, top = run_number_experiment(cfg, judgments=judgments, pools={"s": pool})
        tops[weighting] = top["s"]
    # equal likelihoods: the first entry leads under dedup, log q reorders them
    assert [nl for nl, _ in tops["dedup"]][:2] == ["the number is even", "an even number"]
    assert [nl for nl, _ in tops["importance"]][:3] == [
        "an even number",
        "the number is even",
        "the number is even",
    ]
    loglik = oracle.pool_number_logliks(pool, example_set, params.epsilon)
    want = oracle.importance_weights(pool, oracle.prior_of("uniform"), loglik)
    order = np.argsort(-want.weights, kind="stable")
    assert [nl for nl, _ in tops["importance"]] == [pool[i].nl_text for i in order]
    got = [w for _, w in tops["importance"]]
    np.testing.assert_allclose(got, want.weights[order], rtol=0, atol=1e-12)


def test_online_experiment_results(fixtures_dir):
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5)
    curve = load_fixture_curve(fixtures_dir)
    pool = load_fixture_pool(fixtures_dir)
    metrics, records, details = run_online_experiment(
        cfg, [curve], {"green_triangles": pool}, params
    )
    assert metrics["n_trials"] == len(curve.trials)
    per_batch = details["green_triangles"]["per_batch"]
    assert len(per_batch) == 15
    assert per_batch[-1]["accuracy"] >= 0.9
    assert per_batch[0]["map_nl"] == curve.ground_truth_nl


def test_online_experiment_per_batch_diagnostics():
    """Each batch reports the accuracy, MAP rule, effective sample size
    and largest weight of the posterior the reference functions give."""
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.1, alpha=0.4, beta=0.8, temperature=0.7)
    curve, pool = synthetic_shape_curve(), synthetic_shape_pool()
    _, records, details = run_online_experiment(cfg, [curve], {curve.concept_id: pool}, params)
    per_batch = details[curve.concept_id]["per_batch"]
    assert [row["batch"] for row in per_batch] == [1, 2, 3, 4, 5]
    # nothing is visible before batch 2
    assert per_batch[0] == {"batch": 1, "accuracy": 0.5, "map_nl": None, "ess": 0.0, "max_weight": 0.0}
    seen = 0
    unique, _ = dedup_pool(pool)
    for b, (batch, row) in enumerate(zip(curve.batches, per_batch), start=1):
        visible = [h for h in unique if h.source_batch is None or h.source_batch <= b]
        loglik = oracle.pool_shape_logliks(
            visible, curve.trials[:seen], params.epsilon, params.alpha, params.beta
        )
        state = oracle.dedup_weights(visible, oracle.prior_of("uniform"), loglik, params.temperature)
        preds = [r.prediction for r in records[seen : seen + len(batch)]]
        assert row["accuracy"] == np.mean([(p >= 0.5) == t.label for p, t in zip(preds, batch)])
        seen += len(batch)
        if state.degenerate:
            continue
        assert row["map_nl"] == state.pool[int(np.argmax(state.weights))].nl_text
        assert row["ess"] == pytest.approx(state.diagnostics["ess"], rel=1e-12)
        assert row["max_weight"] == pytest.approx(state.diagnostics["max_weight"], rel=1e-12)
        assert 1.0 <= row["ess"] <= sum(h.parsed for h in visible)


@pytest.mark.parametrize("dsl_srcs", [[], ["???", "this.color =="]], ids=["empty", "unparsed"])
def test_online_experiment_without_live_rules_predicts_noise(dsl_srcs):
    cfg = ExperimentConfig(domain="shape", prior="tuned", feature_dim=8)
    params = ModelParams(theta=np.ones(8), epsilon=0.2, alpha=0.3, beta=0.5)
    curve = synthetic_shape_curve()
    pool = [io.make_hypothesis(f"rule {i}", src, "shape") for i, src in enumerate(dsl_srcs)]
    _, records, details = run_online_experiment(cfg, [curve], {curve.concept_id: pool}, params)
    assert [r.prediction for r in records] == [pytest.approx(0.2 * 0.3)] * len(curve.trials)
    assert all(row["map_nl"] is None for row in details[curve.concept_id]["per_batch"])


def test_online_experiment_causality(fixtures_dir):
    """Predictions for batch t may depend only on labels before t."""
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5)
    curve = load_fixture_curve(fixtures_dir)
    pool = load_fixture_pool(fixtures_dir)
    _, records, _ = run_online_experiment(
        cfg, [curve], {"green_triangles": pool}, params
    )
    # flip every label in the last 5 batches
    cut = sum(len(b) for b in curve.batches[:10])
    flipped_batches = [
        [
            Trial(t.batch, t.test, (not t.label) if i >= 10 else t.label)
            for t in batch
        ]
        for i, batch in enumerate(curve.batches)
    ]
    flipped = LearningCurve(
        curve.concept_id, curve.ground_truth_nl, flipped_batches, curve.human_positive_rate
    )
    _, records2, _ = run_online_experiment(
        cfg, [flipped], {"green_triangles": pool}, params
    )
    for r1, r2 in zip(records[:cut], records2[:cut]):
        assert r1.prediction == r2.prediction  # bitwise identical


def test_prediction_record_rejects_nonfinite():
    with pytest.raises(ValueError):
        PredictionRecord("x", float("nan"))


def test_emit_plot_data(tmp_path):
    records = [
        PredictionRecord("a", 0.25, 0.3),
        PredictionRecord("b", 0.75, None),
    ]
    path = tmp_path / "pred.csv"
    emit_plot_data(records, path)
    rows = list(csv.DictReader(path.open()))
    assert rows[0]["datum_id"] == "a"
    assert float(rows[0]["prediction"]) == 0.25
    assert rows[1]["human"] == ""
    with pytest.raises(ValueError):
        emit_plot_data([], tmp_path / "empty.csv")


def test_emit_learning_curves_and_sweep_table(tmp_path):
    details = {"c1": {"per_batch": [{"batch": 1, "accuracy": 0.5, "map_nl": "rule"}]}}
    emit_learning_curves(details, tmp_path / "lc.csv")
    rows = list(csv.DictReader((tmp_path / "lc.csv").open()))
    assert rows[0]["concept_id"] == "c1"
    assert rows[0]["map_nl"] == "rule"

    emit_sweep_table(
        [{"budget": 3, "mean_r2": 0.5, "sem_r2": 0.01, "n_runs": 3}],
        tmp_path / "sweep.csv",
    )
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert rows[0]["budget"] == "3"


def test_number_experiment_short_fit_is_deterministic(fixtures_dir):
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_uniform.json")
    cfg.fit = FitConfig(epochs=3, trainable=("epsilon", "platt"))
    cfg.pools = {k: str(fixtures_dir / "number" / f"{k}.jsonl") for k in cfg.pools}
    cfg.data_path = str(fixtures_dir / "number_judgments.csv")
    m1, r1, _ = run_number_experiment(cfg)
    m2, r2, _ = run_number_experiment(cfg)
    assert m1 == m2
    assert [(r.datum_id, r.prediction) for r in r1] == [
        (r.datum_id, r.prediction) for r in r2
    ]


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(domain="nubmer"), "domain must be one of"),
        (dict(prior="tunde"), "prior must be one of"),
        (dict(weighting="importanse"), "weighting must be one of"),
        (dict(budget=-3), "budget must be >= 1"),
        (dict(k_folds=1), "k_folds must be >= 2"),
        (dict(domain="shape", weighting="importance"), "importance weighting needs the number domain"),
        (dict(seed=-1), "seed must be >= 0, not -1"),
    ],
)
def test_experiment_config_refuses_what_no_run_can_use(fields, message):
    """A value no run can use is refused when the config is made, so a
    typo cannot silently run another model."""
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{"domain": "number", **fields})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ExperimentConfig("number"), **fields)


def test_a_config_value_that_cannot_compare_is_a_config_error(tmp_path):
    """A tuned prior's feature_dim given as a string, which the
    constructor cannot compare with 1, is a ConfigError naming
    feature_dim, not Python's TypeError."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"domain": "number", "prior": "tuned", "feature_dim": "16"}))
    with pytest.raises(ConfigError, match="^feature_dim is not an integer: '16'$"):
        ExperimentConfig.from_json(path)


def test_infer_shape_compiles_its_task_once(fixtures_dir, monkeypatch):
    """`build_shape_task(..., after_last=True)` adds the row of rules
    visible after the last batch, so `infer_shape` compiles one task;
    its weights are the bytes of a task built and then replaced with
    that row."""
    pool = io.load_pool(fixtures_dir / "shape" / "green_triangles_pool.jsonl", "shape")
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    cfg = ExperimentConfig("shape")
    params = ModelParams(epsilon=0.3, alpha=0.4, beta=1.0, temperature=1.0)
    post_init = ShapeTask.__post_init__
    compiled = []

    def counted(task):
        compiled.append(task)
        post_init(task)

    n_batches = len(curve.batches)
    for upto in range(n_batches + 1):
        compiled.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ShapeTask, "__post_init__", counted)
            state = infer_shape(cfg, pool, curve, upto, params)
        assert len(compiled) == 1
        source = [dataclasses.replace(h, source_batch=None) for h in pool] if upto == n_batches else pool
        task = build_shape_task(cfg, source, curve, FeatureExtractor(dim=0))
        task = dataclasses.replace(task, count=np.vstack([task.count, task.count[-1:]]))
        assert np.array_equal(compiled[0].count, task.count)
        weights = rule_weights(task, shape_forward(task, params)[1])[0][upto]
        assert state.weights.tobytes() == weights.tobytes()

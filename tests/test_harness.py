import csv
import dataclasses
import json

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.fit import FitConfig
from nlconcepts.harness import (
    ExperimentConfig,
    PredictionRecord,
    build_number_task,
    build_shape_task,
    emit_learning_curves,
    emit_plot_data,
    emit_sweep_table,
    run_number_experiment,
    run_online_experiment,
)
from nlconcepts.likelihood import EvalCache, pool_number_logliks, pool_shape_logliks
from nlconcepts.posterior import dedup_pool, dedup_weights, importance_weights
from nlconcepts.prior import FeatureExtractor, Uniform
from nlconcepts.types import (
    HumanNumberJudgment,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    Trial,
)

from conftest import synthetic_shape_curve, synthetic_shape_pool


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


def test_build_number_task_shapes(fixtures_dir):
    cfg = ExperimentConfig(domain="number", prior="tuned", feature_dim=16)
    ext = FeatureExtractor(dim=16)
    cache = EvalCache()
    pool = io.load_pool(fixtures_dir / "number" / "set01.jsonl", "number")
    task = build_number_task(
        cfg, pool, NumberExampleSet([2, 4, 8, 16]), [(32, 0.9, "a"), (3, 0.1, "b")], ext, cache
    )
    n_unique = len({h.key for h in pool})
    assert task.features.shape == (n_unique, 16)
    assert task.member.shape == (n_unique, 4)
    assert task.test_member.shape == (2, n_unique)
    assert task.ids == ["a", "b"]
    # dedup is by text: the duplicate-meaning pair (same extension,
    # different phrasing) stays as two entries
    assert n_unique == len(pool)
    exts = [cache.extension(h) for h in pool if h.parsed]
    assert len(set(exts)) < len(exts)
    # one deliberately unparsed entry
    assert (~task.parsed).sum() == 1


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
    loglik = pool_number_logliks(pool, example_set, params.epsilon)
    want = importance_weights(pool, Uniform(), loglik)
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
    and largest weight of the posterior the scalar functions give."""
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.1, alpha=0.4, beta=0.8, temperature=0.7)
    curve, pool = synthetic_shape_curve(), synthetic_shape_pool()
    _, records, details = run_online_experiment(cfg, [curve], {curve.concept_id: pool}, params)
    per_batch = details[curve.concept_id]["per_batch"]
    assert [row["batch"] for row in per_batch] == [1, 2, 3, 4, 5]
    # nothing is visible before batch 2
    assert per_batch[0] == {"batch": 1, "accuracy": 0.5, "map_nl": None, "ess": 0.0, "max_weight": 0.0}
    cache, seen = EvalCache(), 0
    unique, _ = dedup_pool(pool)
    for b, (batch, row) in enumerate(zip(curve.batches, per_batch), start=1):
        visible = [h for h in unique if h.source_batch is None or h.source_batch <= b]
        loglik = pool_shape_logliks(
            visible, curve.trials[:seen], params.epsilon, params.alpha, params.beta, cache
        )
        state = dedup_weights(visible, Uniform(), loglik, params.temperature)
        preds = [r.prediction for r in records[seen : seen + len(batch)]]
        assert row["accuracy"] == np.mean([(p >= 0.5) == t.label for p, t in zip(preds, batch)])
        seen += len(batch)
        if state.degenerate:
            continue
        assert row["map_nl"] == state.map_hypothesis().nl_text
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
    details = {
        "c1": {"per_batch": [{"batch": 1, "accuracy": 0.5, "map_nl": "rule"}], "records": []}
    }
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

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logit

from nlconcepts import baselines, io
from nlconcepts.baselines import (
    DIRECT_PARAMS,
    AllSamplesDiscarded,
    NoViableHypothesis,
    _raw_task,
    direct_llm_number,
    direct_llm_shape,
    direct_number_prompt,
    direct_shape_prompt,
    latent_language_number,
    latent_language_shape,
    no_proposal_ablation,
    yes_no_ratio,
)
from nlconcepts.fit import FitConfig, fit_params
from nlconcepts.harness import ExperimentConfig, run_experiment
from nlconcepts.io import make_hypothesis
from nlconcepts.posterior import platt
from nlconcepts.propose import ReplayBackend, ReplayStore
from nlconcepts.types import HumanNumberJudgment, ModelParams, NumberExampleSet, ShapeObject, Trial


def test_fit_platt_recovers_known_transform():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.05, 0.95, 200)
    a_true, b_true = 1.8, -0.6
    targets = expit(b_true + a_true * logit(raw))
    # one hypothesis whose membership is the raw prediction: the model's
    # fit with only the Platt pair trainable is a logistic regression on logit(raw)
    task = _raw_task(raw, targets, [str(i) for i in range(len(raw))])
    fit = FitConfig(learning_rate=0.01, epochs=4000, trainable=("platt",))
    params = fit_params(fit, [task], ModelParams()).params
    a, b = params.platt_a, params.platt_b
    assert a == pytest.approx(a_true, abs=0.05)
    assert b == pytest.approx(b_true, abs=0.05)
    assert platt(0.5, a, b) == pytest.approx(expit(b_true), abs=0.01)


def latent_choice(pool, examples):
    """The latent baseline's chosen NL for one hand-built example set."""
    example_set = NumberExampleSet(examples)
    judgments = [
        HumanNumberJudgment(example_set, test, rating, "s")
        for test, rating in [(16, 0.9), (6, 0.4), (23, 0.1)]
    ]
    cfg = ExperimentConfig(domain="number", params=ModelParams(epsilon=0.02), k_folds=3)
    _, _, chosen = latent_language_number(cfg, judgments=judgments, pools={"s": pool})
    return chosen["s"]


def test_latent_language_number_prefers_small_extension_and_breaks_ties_first():
    even = make_hypothesis("the number is even", "even(x)", "number")
    power = make_hypothesis("the number is a power of 2", "power(2, x)", "number")
    junk = make_hypothesis("junk", "???", "number")
    assert latent_choice([even, power, junk], [2, 4, 8]) == power.nl_text
    # exact tie: first pool entry wins
    also_even = make_hypothesis("an even number", "even(x)", "number")
    assert latent_choice([even, also_even], [2]) == even.nl_text
    assert latent_choice([also_even, even], [2]) == also_even.nl_text
    with pytest.raises(NoViableHypothesis):
        latent_choice([junk], [2])


def _fixture_cfg(fixtures_dir, prior="uniform"):
    cfg = ExperimentConfig(
        domain="number",
        data_path=str(fixtures_dir / "number_judgments.csv"),
        pools={
            f"set{i:02d}": str(fixtures_dir / "number" / f"set{i:02d}.jsonl")
            for i in range(1, 9)
        },
        prior=prior,
        feature_dim=64,
        seed=0,
    )
    return cfg


def test_latent_language_number_runs(fixtures_dir):
    cfg = _fixture_cfg(fixtures_dir)
    metrics, records, chosen = latent_language_number(cfg)
    assert metrics["n_predictions"] == 48
    assert set(chosen) == set(cfg.pools)
    assert all(0.0 <= r.prediction <= 1.0 for r in records)
    # a single-hypothesis point estimate underfits graded human ratings
    assert metrics["holdout_r2"] < 0.99


def test_number_baseline_calibration_has_converged(fixtures_dir, monkeypatch):
    """Five times the Platt calibration's epochs give the same holdout R^2."""
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_uniform.json")
    cfg.data_path = str(fixtures_dir / "number_judgments.csv")
    cfg.pools = {k: str(fixtures_dir / "number" / f"{k}.jsonl") for k in cfg.pools}
    r2 = latent_language_number(cfg)[0]["holdout_r2"]
    longer = replace(baselines._PLATT_FIT, epochs=5 * baselines._PLATT_FIT.epochs)
    monkeypatch.setattr(baselines, "_PLATT_FIT", longer)
    assert latent_language_number(cfg)[0]["holdout_r2"] == pytest.approx(r2, abs=1e-6)


def test_latent_language_shape(fixtures_dir):
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    cfg.params = ModelParams(theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5)
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    pool = io.load_pool(fixtures_dir / "shape" / "green_triangles_pool.jsonl", "shape")
    metrics, records, chosen = latent_language_shape(
        cfg, [curve], {"green_triangles": pool}
    )
    assert metrics["n_trials"] == len(curve.trials)
    assert metrics["accuracy"] > 0.8


def test_yes_no_ratio():
    assert yes_no_ratio(["Yes", "no", "yes."]) == pytest.approx(2 / 3)
    assert yes_no_ratio(["  YES", "N"]) == pytest.approx(0.5)
    # malformed samples are discarded, not counted
    assert yes_no_ratio(["maybe", "yes"]) == 1.0
    with pytest.raises(AllSamplesDiscarded):
        yes_no_ratio(["maybe", "dunno", ""])


def test_direct_prompts():
    prompt = direct_number_prompt(NumberExampleSet([98, 81, 86, 93]), 42)
    assert "98, 81, 86, 93" in prompt
    assert "Does the number 42 belong" in prompt
    assert prompt.endswith("Answer (one word, yes/no):")

    a = ShapeObject("triangle", "green", 1)
    b = ShapeObject("circle", "blue", 2)
    past = [[Trial([a, b], a, True), Trial([a, b], b, False)]]
    current = [Trial([a], a, True)]
    prompt = direct_shape_prompt(past, current, a)
    assert "POSITIVES: (small green triangle)" in prompt
    assert "(small green triangle)" in prompt.splitlines()[-3]
    assert "is a (small green triangle) in the concept?" in prompt
    assert prompt.endswith("Answer (one word, just write yes/no):")


class CannedBackend:
    """Returns the same completions for every request."""

    def __init__(self, texts):
        self.texts = texts
        self.prompts = []

    def completions(self, prompt, params):
        self.prompts.append((prompt, params))
        return [{"text": t, "logprob": None} for t in self.texts]


def test_direct_llm_number(fixtures_dir):
    cfg = _fixture_cfg(fixtures_dir)
    backend = CannedBackend(["yes"] * 7 + ["no"] * 2 + ["eh"])
    metrics, records = direct_llm_number(cfg, backend)
    assert metrics["n_predictions"] == 48
    # ten samples per datum at temperature 1
    assert all(p[1]["n"] == 10 and p[1]["temperature"] == 1.0 for p in backend.prompts)
    assert len(backend.prompts) == 48


def test_direct_llm_shape(fixtures_dir, tmp_path):
    """One replayed query per trial of the curves in the config's data
    directory, predicted by its raw yes ratio under the id concept:k;
    samples that all fail the yes/no format are refused."""
    cfg = ExperimentConfig(domain="shape", data_path=str(fixtures_dir / "shape"), feature_dim=0)
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    store = ReplayStore(tmp_path / "store")
    trials = [(b, batch, t) for b, batch in enumerate(curve.batches) for t in batch]
    for k, (b, batch, t) in enumerate(trials):
        answers = ["yes"] * (k % 11) + ["no"] * (10 - k % 11)
        completions = [{"text": a, "logprob": None} for a in answers]
        store.record(direct_shape_prompt(curve.batches[:b], batch, t.test), DIRECT_PARAMS, completions)
    assert len(store.keys()) == len(trials)
    metrics, records = direct_llm_shape(cfg, ReplayBackend(store))
    assert metrics["n_trials"] == len(records) == len(trials)
    assert [r.datum_id for r in records] == [f"green_triangles:{k}" for k in range(len(trials))]
    assert [r.prediction for r in records] == [(k % 11) / 10 for k in range(len(trials))]
    assert [r.human for r in records] == list(curve.human_positive_rate)
    with pytest.raises(AllSamplesDiscarded):
        direct_llm_shape(cfg, CannedBackend(["maybe", "", "perhaps"]))


def test_no_proposal_ablation_uses_shared_pool(fixtures_dir):
    cfg = _fixture_cfg(fixtures_dir)
    cfg.fit = FitConfig(epochs=3, trainable=("epsilon", "platt"))
    metrics, records, _ = no_proposal_ablation(
        cfg, fixtures_dir / "number_pool_size_principle.jsonl"
    )
    assert metrics["n_predictions"] == 48


def test_the_model_and_the_number_baselines_hold_out_the_same_rows(fixtures_dir):
    """The model's CV fit, the latent-language baseline's Platt
    calibration and the no-proposal ablation cut the same folds: on
    `number_uniform.json` their records name the same 48 judgments in
    the same order, fold after fold."""
    cfg = ExperimentConfig.from_json(fixtures_dir / "configs" / "number_uniform.json")
    root = fixtures_dir.parent
    cfg = replace(
        cfg,
        data_path=str(root / cfg.data_path),
        pools={k: str(root / v) for k, v in cfg.pools.items()},
        fit=replace(cfg.fit, epochs=3),
    )
    model = [r.datum_id for r in run_experiment(cfg).records]
    latent = [r.datum_id for r in latent_language_number(cfg)[1]]
    ablation = [r.datum_id for r in no_proposal_ablation(cfg, fixtures_dir / "number" / "set01.jsonl")[1]]
    assert len(model) == len(set(model)) == 48
    assert latent == model
    assert ablation == model

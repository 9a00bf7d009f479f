"""The model that is fit is the model that is evaluated.

For random parameters, every prediction of the fit path
(`fit.loss_and_grad`) must equal the inference path's prediction for
the same datum within 1e-12, in both domains.
"""

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.fit import loss_and_grad, pack_params
from nlconcepts.harness import (
    ExperimentConfig,
    build_number_task,
    build_shape_task,
    group_judgments,
    prior_spec_for,
    run_online_experiment,
)
from nlconcepts.likelihood import EvalCache, pool_number_logliks
from nlconcepts.posterior import dedup_weights, platt, predict_membership
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import ModelParams

from conftest import FIXTURES

TOL = 1e-12
DIM = 16


def random_params(rng, dim):
    return ModelParams(
        theta=rng.normal(0, 0.5, dim),
        epsilon=float(rng.uniform(0.02, 0.6)),
        alpha=float(rng.uniform(0.2, 0.8)),
        beta=float(rng.uniform(0.2, 2.0)),
        temperature=float(rng.uniform(0.4, 2.0)),
        platt_a=float(rng.uniform(0.5, 2.0)),
        platt_b=float(rng.uniform(-0.5, 0.5)),
    )


def config(domain, prior):
    return ExperimentConfig(
        domain=domain, prior=prior, feature_dim=DIM if prior == "tuned" else 0
    )


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
def test_number_fit_path_matches_inference_path(prior):
    cfg = config("number", prior)
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    cache = EvalCache()
    pools = {
        f"set{i:02d}": io.load_pool(FIXTURES / "number" / f"set{i:02d}.jsonl", "number")
        for i in range(1, 9)
    }
    by_set = group_judgments(
        io.load_number_judgments(FIXTURES / "number_judgments.csv"), pools
    )
    tasks = [
        build_number_task(
            cfg,
            pools[set_id],
            group[0].example_set,
            [(j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in group],
            extractor,
            cache,
        )
        for set_id, group in by_set.items()
    ]
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_params(rng, cfg.feature_dim)
        _, _, records = loss_and_grad(
            pack_params(params), tasks, cfg.feature_dim, want_grad=False
        )
        fit_path = {datum_id: pred for datum_id, pred, _ in records}
        prior_spec = prior_spec_for(cfg, params, extractor)
        n_checked = 0
        for set_id, group in by_set.items():
            pool = pools[set_id]
            loglik = pool_number_logliks(pool, group[0].example_set, params.epsilon, cache)
            state = dedup_weights(pool, prior_spec, loglik, params.temperature)
            for j in group:
                p = predict_membership(state, j.test_number, cache)
                want = platt(p, params.platt_a, params.platt_b)
                got = fit_path[f"{set_id}:{j.test_number}"]
                assert abs(got - want) <= TOL, (set_id, j.test_number, got, want)
                n_checked += 1
        assert n_checked == len(records) == 48


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
def test_shape_fit_path_matches_online_experiment(prior):
    cfg = config("shape", prior)
    curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    task = build_shape_task(
        cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim), EvalCache()
    )
    rng = np.random.default_rng(12)
    for _ in range(3):
        params = random_params(rng, cfg.feature_dim)
        _, _, records = loss_and_grad(
            pack_params(params), [task], cfg.feature_dim, want_grad=False
        )
        _, online, _ = run_online_experiment(
            cfg, [curve], {curve.concept_id: pool}, params
        )
        assert [datum_id for datum_id, _, _ in records] == [r.datum_id for r in online]
        gaps = [abs(pred - r.prediction) for (_, pred, _), r in zip(records, online)]
        assert max(gaps) <= TOL, max(gaps)

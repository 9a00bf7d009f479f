"""The model that is fit is the model that is evaluated.

For random parameters, every prediction of the fit path
(`fit.loss_and_grad`) must equal the inference path's prediction for
the same datum within 1e-12, in both domains. The shape paths, top-k
verbalizations and the latent-language baselines are checked against
the per-hypothesis reference in `oracle`, rebuilt batch by batch.
"""

import itertools
import random

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.baselines import _calibrated_records, latent_language_number, latent_language_shape
from nlconcepts.dsl.generate import random_shape_expr
from nlconcepts.dsl.shape import format_shape_concept
from nlconcepts.fit import _unpack, loss_and_grad, pack_params, shape_forward
from nlconcepts.harness import (
    ExperimentConfig,
    build_number_task,
    build_shape_task,
    group_judgments,
    prior_spec_for,
    run_number_experiment,
    run_online_experiment,
)
from nlconcepts.io import make_hypothesis
from nlconcepts.likelihood import EvalCache, pool_number_logliks
from nlconcepts.posterior import ZERO_CUTOFF, dedup_pool, dedup_weights, platt, predict_membership
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import ModelParams

import oracle
from conftest import FIXTURES, synthetic_shape_curve, synthetic_shape_pool

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


def scalar_online_predictions(cfg, pool, curve, params):
    """The online protocol from the reference functions: before each
    batch, the visible rules' decayed log-likelihoods of all earlier
    trials, deduplicated weights, then each trial's expected response."""
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    prior = prior_spec_for(cfg, params, extractor)
    unique, _ = dedup_pool(pool)
    preds, seen = [], 0
    for b, batch in enumerate(curve.batches, start=1):
        visible = [h for h in unique if h.source_batch is None or h.source_batch <= b]
        loglik = oracle.pool_shape_logliks(
            visible, curve.trials[:seen], params.epsilon, params.alpha, params.beta
        )
        state = oracle.dedup_weights(visible, prior, loglik, params.temperature)
        for t in batch:
            if state.degenerate:
                preds.append(params.epsilon * params.alpha)
            else:
                preds.append(oracle.predict_response(state, t, params.epsilon, params.alpha))
        seen += len(batch)
    return preds


def assert_shape_paths_match_oracle(cfg, pool, curve, params):
    """Online and fit-path predictions against the scalar oracle; the
    fit path at the parameters its unconstrained vector encodes."""
    _, online, _ = run_online_experiment(cfg, [curve], {curve.concept_id: pool}, params)
    want = scalar_online_predictions(cfg, pool, curve, params)
    assert [r.datum_id for r in online] == [f"{curve.concept_id}:{k}" for k in range(len(want))]
    gaps = [abs(r.prediction - w) for r, w in zip(online, want)]
    assert max(gaps) <= TOL, (params, max(gaps))

    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim), EvalCache())
    u = pack_params(params)
    _, _, records = loss_and_grad(u, [task], cfg.feature_dim, want_grad=False)
    want = scalar_online_predictions(cfg, pool, curve, _unpack(u, cfg.feature_dim))
    assert [datum_id for datum_id, _, _ in records] == [r.datum_id for r in online]
    gaps = [abs(pred - w) for (_, pred, _), w in zip(records, want)]
    assert max(gaps) <= TOL, (params, max(gaps))


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
def test_shape_fit_path_matches_online_experiment(prior):
    cfg = config("shape", prior)
    curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    rng = np.random.default_rng(12)
    for _ in range(3):
        assert_shape_paths_match_oracle(cfg, pool, curve, random_params(rng, cfg.feature_dim))


SPECIAL_PARAMS = [
    dict(epsilon=0.1, alpha=0.4, beta=0.0, temperature=1.0),
    dict(epsilon=0.2, alpha=0.6, beta=8.0, temperature=1.3),
    dict(epsilon=0.15, alpha=0.5, beta=1.0, temperature=0.05),
    dict(epsilon=1e-4, alpha=0.3, beta=0.7, temperature=0.8),
    dict(epsilon=1e-4, alpha=0.7, beta=0.0, temperature=0.05),
]


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
@pytest.mark.parametrize("special", SPECIAL_PARAMS, ids=lambda p: "-".join(f"{v:g}" for v in p.values()))
def test_shape_paths_match_scalar_oracle_on_synthetic_pool(prior, special):
    cfg = config("shape", prior)
    pool, curve = synthetic_shape_pool(), synthetic_shape_curve()
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim), EvalCache())
    assert not task.visible[0].any() and task.visible[1].any()
    assert len(dedup_pool(pool)[0]) == len(pool) - 2
    rng = np.random.default_rng(13)
    params = ModelParams(theta=rng.normal(0, 0.5, cfg.feature_dim), **special)
    assert_shape_paths_match_oracle(cfg, pool, curve, params)


# ---------------------------------------------------------------------------
# The shape kernel against its dense reference

EDGE = 1.0 - 1e-16
KERNEL_GRID = list(
    itertools.product((1e-300, 0.3, EDGE), (1e-300, 0.3, EDGE), (0.0, 1.0, 8.0), (1e-3, 1.0, 50.0))
)


def fuzzed_shape_pool(seed, n_rules, joins):
    """`n_rules` random rules, each joining at a batch drawn from
    `joins` (None: from the first batch), then one that never parses."""
    rng = random.Random(seed)
    pool = []
    for i in range(n_rules):
        src = format_shape_concept(random_shape_expr(rng, rng.randint(0, 3)))
        pool.append(make_hypothesis(f"rule {i}: {src}", src, "shape", batch=rng.choice(joins)))
    return pool + [make_hypothesis("it is garbled", "exists(o in", "shape", batch=None)]


def kernel_tasks():
    """Fuzzed pools on the fixture curve (64 trials, 15 batches) and the
    synthetic one (12 trials, 5 batches); the pools of seeds 1 and 2
    leave batch 1 with no visible rule."""
    cfg = config("shape", "tuned")
    curves = [
        io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json"),
        synthetic_shape_curve(),
    ]
    joins = {0: (None, 1, 2, 5), 1: (2, 3, 5), 2: (2, 4)}
    for seed, curve in itertools.product(joins, curves):
        pool = fuzzed_shape_pool(seed, 60, joins[seed])
        yield seed, build_shape_task(cfg, pool, curve, FeatureExtractor(dim=DIM))


def test_shape_kernel_matches_dense_reference():
    """`fit.shape_forward` against `oracle.shape_forward_dense` on every
    combination of eps, alpha in {1e-300, 0.3, 1 - 1e-16}, beta in
    {0, 1, 8} and T in {1e-3, 1, 50}: predictions and weights within
    1e-12 and gradients within 1e-9 of each magnitude, every output
    finite. Both kernels round; where T = 1e-3 or the clip edges make a
    log-weight large, each tolerance also allows the summation bound
    2 (K + 2) u z (u the unit roundoff, z the largest tempered
    log-weight magnitude, `oracle.shape_forward_magnitudes`), and no
    gradient is held closer than the smallest normal number."""
    u, tiny = np.finfo(float).eps, np.finfo(float).tiny
    empty_batches = 0
    for seed, task in kernel_tasks():
        empty_batches += int((~task.visible.any(axis=1)).sum())
        rng = np.random.default_rng(seed)
        theta = rng.normal(0, 0.5, DIM)
        dl_dpred = rng.normal(size=len(task.labels))
        for eps, alpha, beta, temp in KERNEL_GRID:
            params = ModelParams(theta=theta, epsilon=eps, alpha=alpha, beta=beta, temperature=temp)
            at = f"seed {seed}, K = {len(task.labels)}, params {(eps, alpha, beta, temp)}"
            pred, w, backward = shape_forward(task, params)
            want_pred, want_w, want_backward = oracle.shape_forward_dense(task, params)
            z, scale = oracle.shape_forward_magnitudes(task, params, dl_dpred)
            rounding = 2 * (len(task.labels) + 2) * u * z
            assert np.isfinite(pred).all() and np.isfinite(w).all(), at
            assert np.all(np.abs(pred - want_pred) <= 1e-12 + rounding), at
            assert np.all(np.abs(w - want_w) <= 1e-12 + rounding * want_w), at
            grads = backward(dl_dpred)
            for name, got, want, mag in zip(
                ("theta", "eps", "alpha", "beta", "T"), grads, want_backward(dl_dpred), scale
            ):
                assert np.isfinite(got).all(), f"{name} at {at}"
                # below the smallest normal number no digit is significant
                bound = np.maximum((1e-9 + rounding) * np.maximum(np.abs(want), mag), tiny)
                assert np.all(np.abs(got - want) <= bound), f"{name} at {at}: {got} vs {want}"
    assert empty_batches


# ---------------------------------------------------------------------------
# Top-k verbalizations and the latent-language baselines


def fixture_number_pools():
    return {
        f"set{i:02d}": io.load_pool(FIXTURES / "number" / f"set{i:02d}.jsonl", "number")
        for i in range(1, 9)
    }


def fixture_number_config(prior, params):
    cfg = config("number", prior)
    cfg.data_path = str(FIXTURES / "number_judgments.csv")
    cfg.pools = {set_id: "" for set_id in fixture_number_pools()}
    cfg.params = params
    return cfg


TOPK_PARAMS = [
    dict(epsilon=0.02, temperature=1.0),
    dict(epsilon=0.3, temperature=0.5),
    dict(epsilon=0.6, temperature=2.0),
]


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
@pytest.mark.parametrize("setting", TOPK_PARAMS, ids=["cold", "warm", "hot"])
def test_number_top_verbalizations_match_dedup_weights(prior, setting):
    rng = np.random.default_rng(14)
    dim = DIM if prior == "tuned" else 0
    params = ModelParams(theta=rng.normal(0, 1.0, dim), **setting)
    cfg = fixture_number_config(prior, params)
    pools = fixture_number_pools()
    judgments = io.load_number_judgments(cfg.data_path)
    _, _, top = run_number_experiment(cfg, judgments=judgments, pools=pools)

    extractor = FeatureExtractor(dim=cfg.feature_dim)
    prior_spec = prior_spec_for(cfg, params, extractor)
    assert set(top) == set(pools)
    for set_id, group in group_judgments(judgments, pools).items():
        pool = pools[set_id]
        loglik = oracle.pool_number_logliks(pool, group[0].example_set, params.epsilon)
        state = oracle.dedup_weights(pool, prior_spec, loglik, params.temperature)
        order = np.argsort(-state.weights, kind="stable")[:5]
        assert [nl for nl, _ in top[set_id]] == [state.pool[i].nl_text for i in order]
        gaps = [abs(w - state.weights[i]) for (_, w), i in zip(top[set_id], order)]
        assert max(gaps) <= TOL, (set_id, max(gaps))


def first_argmax(pool, loglik):
    """Index of the first parsed maximum-likelihood entry, or None."""
    alive = np.array([h.parsed for h in pool], dtype=bool) & (loglik > ZERO_CUTOFF)
    if not alive.any():
        return None
    return int(np.argmax(np.where(alive, loglik, -np.inf)))


@pytest.mark.parametrize("epsilon", [None, 0.02, 0.4])
def test_latent_language_number_matches_scalar_oracle(epsilon):
    params = None if epsilon is None else ModelParams(epsilon=epsilon)
    cfg = fixture_number_config("uniform", params)
    pools = fixture_number_pools()
    judgments = io.load_number_judgments(cfg.data_path)
    metrics, records, chosen = latent_language_number(cfg, judgments=judgments, pools=pools)

    eps = 0.1 if params is None else params.epsilon
    raw_by_id, want_chosen = {}, {}
    for set_id, group in group_judgments(judgments, pools).items():
        pool, _ = dedup_pool(pools[set_id])
        loglik = oracle.pool_number_logliks(pool, group[0].example_set, eps)
        best = pool[first_argmax(pool, loglik)]
        want_chosen[set_id] = best.nl_text
        for j in group:
            raw = float(j.test_number in oracle.extension(best))
            raw_by_id[f"{set_id}:{j.test_number}"] = (raw, j.mean_rating)
    want = _calibrated_records(raw_by_id, cfg.k_folds, cfg.seed)
    assert chosen == want_chosen
    assert [r.datum_id for r in records] == [r.datum_id for r in want]
    assert max(abs(r.prediction - w.prediction) for r, w in zip(records, want)) <= TOL
    assert metrics["n_predictions"] == 48


def scalar_latent_shape(pool, curve, eps, alpha, beta):
    """Before each batch, the first maximum-likelihood visible rule on
    all earlier trials; its prediction, eps * alpha without one."""
    unique, _ = dedup_pool(pool)
    preds, chosen, seen = [], [], 0
    for b, batch in enumerate(curve.batches, start=1):
        visible = [h for h in unique if h.source_batch is None or h.source_batch <= b]
        loglik = oracle.pool_shape_logliks(visible, curve.trials[:seen], eps, alpha, beta)
        best = first_argmax(visible, loglik)
        chosen.append(None if best is None else visible[best].nl_text)
        for t in batch:
            c = 0.0 if best is None else float(oracle.trial_member(visible[best], t))
            preds.append((1.0 - eps) * c + eps * alpha)
        seen += len(batch)
    return preds, chosen


LATENT_SHAPE_PARAMS = [
    None,
    ModelParams(epsilon=0.05, alpha=0.5, beta=0.5),
    ModelParams(epsilon=0.3, alpha=0.2, beta=2.0, temperature=0.3),
]


@pytest.mark.parametrize("source", ["fixture", "synthetic"])
@pytest.mark.parametrize("params", LATENT_SHAPE_PARAMS, ids=["default", "mild", "sharp"])
def test_latent_language_shape_matches_scalar_oracle(source, params):
    if source == "fixture":
        curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
        pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    else:
        curve, pool = synthetic_shape_curve(), synthetic_shape_pool()
    cfg = config("shape", "uniform")
    cfg.params = params
    metrics, records, chosen = latent_language_shape(cfg, [curve], {curve.concept_id: pool})

    p = params or ModelParams(epsilon=0.1, alpha=0.5, beta=0.0)
    want, want_chosen = scalar_latent_shape(pool, curve, p.epsilon, p.alpha, p.beta)
    assert chosen == {curve.concept_id: want_chosen}
    assert [r.datum_id for r in records] == [f"{curve.concept_id}:{k}" for k in range(len(want))]
    assert max(abs(r.prediction - w) for r, w in zip(records, want)) <= TOL
    assert [r.human for r in records] == list(curve.human_positive_rate)
    if source == "synthetic":
        assert want_chosen[0] is None and want_chosen[1] is not None

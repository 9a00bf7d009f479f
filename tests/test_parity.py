"""The model that is fit is the model that is evaluated.

For random parameters, every prediction of the fit path
(`fit.loss_and_grad`) must equal the prediction of the per-hypothesis
inference in `oracle` for the same datum within 1e-12, in both
domains. The shape paths, top-k verbalizations and the latent-language
baselines are checked against the same reference, rebuilt batch by
batch, and the number baselines' calibration against its scalar
cross-validated Platt fit (`oracle.platt_cv`).
"""

import itertools
import random

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.baselines import direct_llm_number, direct_number_prompt, latent_language_number, latent_language_shape
from nlconcepts.dsl.generate import random_shape_expr
from nlconcepts.dsl.shape import format_shape_concept
from nlconcepts.fit import _unpack, loss_and_grad, pack_params, r_squared, rule_weights, shape_forward
from nlconcepts.harness import (
    ExperimentConfig,
    build_number_task,
    build_shape_task,
    group_judgments,
    run_experiment,
)
from nlconcepts.io import make_hypothesis
from nlconcepts.posterior import dedup_pool
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import ModelParams, NumberExampleSet

import oracle
from conftest import FIXTURES, exchangeable_shape_pool, synthetic_shape_curve, synthetic_shape_pool

TOL = 1e-12
# the learning rate of the number baselines' Platt calibration
PLATT_LR = 0.01
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


def oracle_prior(cfg, params):
    """The reference prior of `cfg` at `params` (uniform or tuned)."""
    return oracle.prior_of(cfg.prior, params.theta)


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
def test_number_fit_path_matches_inference_path(prior):
    cfg = config("number", prior)
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    pools = {
        f"set{i:02d}": io.load_pool(FIXTURES / "number" / f"set{i:02d}.jsonl", "number")
        for i in range(1, 9)
    }
    by_set = group_judgments(io.load_number_judgments(FIXTURES / "number_judgments.csv"))
    tasks = [
        build_number_task(
            cfg,
            pools[set_id],
            group[0].example_set,
            [(j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in group],
            extractor,
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
        prior = oracle_prior(cfg, params)
        n_checked = 0
        for set_id, group in by_set.items():
            pool = pools[set_id]
            loglik = oracle.pool_number_logliks(pool, group[0].example_set, params.epsilon)
            state = oracle.dedup_weights(pool, prior, loglik, params.temperature)
            for j in group:
                p = oracle.predict_membership(state, j.test_number)
                want = oracle.platt(p, params.platt_a, params.platt_b)
                got = fit_path[f"{set_id}:{j.test_number}"]
                assert abs(got - want) <= TOL, (set_id, j.test_number, got, want)
                n_checked += 1
        assert n_checked == len(records) == 48


def scalar_online_predictions(cfg, pool, curve, params):
    """The online protocol from the reference functions: before each
    batch, the visible rules' decayed log-likelihoods of all earlier
    trials, deduplicated weights, then each trial's expected response."""
    prior = oracle_prior(cfg, params)
    unique = dedup_pool(pool)
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
    online = run_experiment(cfg, [curve], {curve.concept_id: pool}, params).records
    want = scalar_online_predictions(cfg, pool, curve, params)
    assert [r.datum_id for r in online] == [f"{curve.concept_id}:{k}" for k in range(len(want))]
    gaps = [abs(r.prediction - w) for r, w in zip(online, want)]
    assert max(gaps) <= TOL, (params, max(gaps))

    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim))
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
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim))
    assert not task.visible[0].any() and task.visible[1].any()
    assert len(dedup_pool(pool)) == len(pool) - 2
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


def assert_kernel_matches_dense(task, params, dl_dpred, at):
    """`fit.shape_forward` on a compiled task against
    `oracle.shape_forward_dense` on its rule-level expansion: every
    output finite, predictions and rule weights within 1e-12 and
    gradients within 1e-9 of each magnitude. Both kernels round; where
    T = 1e-3 or the clip edges make a log-weight large, each tolerance
    also allows the summation bound 2 (K + 2) u z (u the unit roundoff,
    z the largest tempered log-weight magnitude,
    `oracle.shape_forward_magnitudes`), and no gradient is held closer
    than the smallest normal number."""
    u, tiny = np.finfo(float).eps, np.finfo(float).tiny
    rules = oracle.rule_level(task)
    pred, p, backward = shape_forward(task, params)
    w = rule_weights(task, p)[0]
    want_pred, want_w, want_backward = oracle.shape_forward_dense(rules, params)
    z, scale = oracle.shape_forward_magnitudes(rules, params, dl_dpred)
    rounding = 2 * (len(task.labels) + 2) * u * z
    assert np.isfinite(pred).all() and np.isfinite(w).all(), at
    assert np.all(np.abs(pred - want_pred) <= 1e-12 + rounding), at
    assert np.all(np.abs(w - want_w) <= 1e-12 + rounding * want_w), at
    grads = backward(dl_dpred)
    for name, got, want, mag in zip(
        ("theta", "eps", "alpha", "beta", "T"), grads, want_backward(dl_dpred), scale
    ):
        if want is None:  # no theta without a tuned prior
            assert got is None, at
            continue
        assert np.isfinite(got).all(), f"{name} at {at}"
        # below the smallest normal number no digit is significant
        bound = np.maximum((1e-9 + rounding) * np.maximum(np.abs(want), mag), tiny)
        assert np.all(np.abs(got - want) <= bound), f"{name} at {at}: {got} vs {want}"


def test_shape_kernel_matches_dense_reference():
    """`assert_kernel_matches_dense` on every combination of eps, alpha
    in {1e-300, 0.3, 1 - 1e-16}, beta in {0, 1, 8} and T in
    {1e-3, 1, 50}."""
    empty_batches = 0
    for seed, task in kernel_tasks():
        empty_batches += int((~task.visible.any(axis=1)).sum())
        rng = np.random.default_rng(seed)
        theta = rng.normal(0, 0.5, DIM)
        dl_dpred = rng.normal(size=len(task.labels))
        for eps, alpha, beta, temp in KERNEL_GRID:
            params = ModelParams(theta=theta, epsilon=eps, alpha=alpha, beta=beta, temperature=temp)
            at = f"seed {seed}, K = {len(task.labels)}, params {(eps, alpha, beta, temp)}"
            assert_kernel_matches_dense(task, params, dl_dpred, at)
    assert empty_batches


def merged_shape_pool():
    """Rules on `synthetic_shape_curve` whose classes merge across join
    batches: one truth row joining at batches 3, 1 and 4, an all-false
    rule and an unparsed one, whose row of zeros matches it, and rules
    that join at the last batch and after it."""
    rules = [
        ("it is green", "this.color == green", 3),
        ("it is a green thing", "this.color == green", 1),
        ("it is green and blue", "this.color == green and this.color == blue", 2),
        ("it shimmers", "this.shimmer ==", 1),  # never parses
        ("it is not blue", "not this.color == blue", 5),
        ("its colour is green", "this.color == green", 4),
        ("it is a triangle", "this.shape == triangle", 6),  # after the last batch
    ]
    return [make_hypothesis(nl, src, "shape", batch=b) for nl, src, b in rules]


@pytest.mark.parametrize("prior", ["uniform", "external"])
def test_shape_kernel_over_classes_matches_dense_reference_over_rules(prior):
    """Rules that share a truth row and a base log-prior are one class
    of the compiled task, whatever batches they join at; the kernel over
    the classes gives the predictions, gradients and rule weights of the
    dense reference over the rules. The second pool is compiled with the
    row after the last batch, as `infer_shape` compiles it."""
    cfg = config("shape", prior)
    curve = synthetic_shape_curve()
    rng = np.random.default_rng(15)
    dl_dpred = rng.normal(size=len(curve.trials))
    grid = [random_params(rng, 0) for _ in range(3)] + [ModelParams(**p) for p in SPECIAL_PARAMS]
    for eps, alpha, beta, temp in KERNEL_GRID[::5]:
        grid.append(ModelParams(epsilon=eps, alpha=alpha, beta=beta, temperature=temp))
    # equal scores keep the classes of the uniform prior, except for each
    # pool's second rule, which the external prior tells apart
    inputs = [
        (exchangeable_shape_pool(), False, [[0, 1, 2, 3], [4, 5], [6], [7, 9], [8], [10]]),
        (merged_shape_pool(), True, [[0, 1, 5], [2, 3], [4], [6]]),
    ]
    for pool, after_last, want_classes in inputs:
        scores = {h.key: -1.0 for h in pool}
        scores[pool[1].key] = -2.5
        task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0), scores=scores, after_last=after_last)
        if prior == "external":
            want_classes = [[c for c in want_classes[0] if c != 1], [1]] + want_classes[1:]
        classes = [np.flatnonzero(task.rule_class == g).tolist() for g in range(task.consist.shape[0])]
        assert classes == want_classes
        for params in grid:
            assert_kernel_matches_dense(task, params, dl_dpred, f"{prior}, {params}")
    if prior == "uniform":
        for pool, _, _ in inputs:
            assert_shape_paths_match_oracle(cfg, pool, curve, grid[0])


# ---------------------------------------------------------------------------
# The number kernel against its dense reference

NUMBER_KERNEL_GRID = list(itertools.product((1e-300, 0.3, EDGE), (1e-3, 1.0, 50.0)))


def number_kernel_tasks(prior, keep):
    """The fixture example sets compiled under `prior`, set i keeping
    the judgments keep(i, its judgments) picks, with a set whose one
    rule never parses placed third."""
    cfg = config("number", prior)
    extractor = FeatureExtractor(dim=cfg.feature_dim)
    pools = fixture_number_pools()
    rng = np.random.default_rng(16)
    dead = [make_hypothesis("nonsense", "???", "number")]
    scores = {h.key: float(rng.normal(-2.0, 1.0)) for pool in [*pools.values(), dead] for h in pool}
    by_set = group_judgments(io.load_number_judgments(FIXTURES / "number_judgments.csv"))
    tasks = []
    for i, (set_id, group) in enumerate(by_set.items()):
        tests = [(j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in keep(i, group)]
        tasks.append(build_number_task(cfg, pools[set_id], group[0].example_set, tests, extractor, scores))
    tasks.insert(2, build_number_task(
        cfg, dead, NumberExampleSet([5]), [(10, 0.5, "dead:10"), (3, 0.2, "dead:3")], extractor, scores
    ))
    return tasks


@pytest.mark.parametrize("prior", ["uniform", "tuned", "external"])
@pytest.mark.parametrize("counts", ["equal", "unequal"])
def test_number_kernel_matches_dense_reference(prior, counts):
    """`fit.loss_and_grad` on number tasks against
    `oracle.number_rows_dense`, for three fits with random row masks,
    at random parameters and at every combination of eps in
    {1e-300, 0.3, 1 - 1e-16} and T in {1e-3, 1, 50}: predictions within
    1e-12, losses within 1e-12 of their value and gradients within 1e-9
    of each magnitude. As in `assert_kernel_matches_dense`, where
    T = 1e-3 makes a log-weight large, each tolerance also allows the
    summation bound 2 (D + 4) u z (u the unit roundoff, z the largest
    tempered log-weight magnitude), and no gradient is held closer than
    the smallest normal number."""
    keep = (lambda i, group: group) if counts == "equal" else (lambda i, group: group[: 1 + i % len(group)])
    tasks = number_kernel_tasks(prior, keep)
    dim = DIM if prior == "tuned" else 0
    n_rows = sum(len(t.targets) for t in tasks)
    if counts == "unequal":
        assert len({len(t.targets) for t in tasks}) > 2
    u, tiny = np.finfo(float).eps, np.finfo(float).tiny
    rng = np.random.default_rng(17)
    grid = [random_params(rng, dim) for _ in range(3)]
    for eps, temp in NUMBER_KERNEL_GRID:
        grid.append(ModelParams(theta=rng.normal(0, 0.5, dim), epsilon=eps, temperature=temp, platt_a=1.3, platt_b=-0.2))
    for params in grid:
        stack = np.tile(pack_params(params), (3, 1))
        stack[1:, dim + 4 :] += rng.normal(0, 0.3, (2, 2))  # other Platt parameters per fit
        rows = rng.random((3, n_rows)) < 0.8
        loss, grad, pred = loss_and_grad(stack, tasks, dim, rows=rows)
        want_loss, want_pred, want_grad, mag, z = oracle.number_rows_dense(tasks, stack, dim, rows)
        rounding = (2 * (dim + 4) * u * z)[:, None]
        at = f"{prior}, {counts}, {params}"
        assert np.isfinite(pred).all() and np.isfinite(grad).all(), at
        assert np.all(np.abs(pred - want_pred) <= 1e-12 + rounding), at
        assert np.all(np.abs(loss - want_loss) <= (1e-12 + rounding[:, 0]) * want_loss), at
        bound = np.maximum((1e-9 + rounding) * np.maximum(np.abs(want_grad), mag), tiny)
        assert np.all(np.abs(grad - want_grad) <= bound), f"{at}: {grad} vs {want_grad}"


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
    top = run_experiment(cfg, judgments, pools).details

    prior = oracle_prior(cfg, params)
    assert set(top) == set(pools)
    for set_id, group in group_judgments(judgments).items():
        pool = pools[set_id]
        loglik = oracle.pool_number_logliks(pool, group[0].example_set, params.epsilon)
        state = oracle.dedup_weights(pool, prior, loglik, params.temperature)
        order = np.argsort(-state.weights, kind="stable")[:5]
        assert [nl for nl, _ in top[set_id]] == [state.pool[i].nl_text for i in order]
        gaps = [abs(w - state.weights[i]) for (_, w), i in zip(top[set_id], order)]
        assert max(gaps) <= TOL, (set_id, max(gaps))


def first_argmax(pool, loglik):
    """Index of the first parsed maximum-likelihood entry, or None."""
    alive = np.array([h.parsed for h in pool], dtype=bool) & (loglik > oracle.ZERO_CUTOFF)
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
    rows, want_chosen = [], {}
    for set_id, group in group_judgments(judgments).items():
        pool = dedup_pool(pools[set_id])
        loglik = oracle.pool_number_logliks(pool, group[0].example_set, eps)
        best = pool[first_argmax(pool, loglik)]
        want_chosen[set_id] = best.nl_text
        for j in group:
            raw = float(j.test_number in oracle.extension(best))
            rows.append((f"{set_id}:{j.test_number}", raw, j.mean_rating))
    want = oracle.platt_cv(rows, cfg.k_folds, cfg.seed, PLATT_LR)
    assert chosen == want_chosen
    assert [r.datum_id for r in records] == [i for i, _, _ in want]
    assert max(abs(r.prediction - p) for r, (_, p, _) in zip(records, want)) <= TOL
    assert metrics["n_predictions"] == 48


class RatioBackend:
    """Answers each direct query with (test number mod 11) yeses out of
    ten, so the yes/no ratios run from 0.0 to 1.0."""

    def __init__(self, judgments):
        self.n_yes = {direct_number_prompt(j.example_set, j.test_number): j.test_number % 11 for j in judgments}

    def completions(self, prompt, params):
        n_yes = self.n_yes[prompt]
        return [{"text": "yes" if k < n_yes else "no", "logprob": None} for k in range(params["n"])]


@pytest.mark.parametrize("seed, k_folds", [(0, 10), (1, 3)])
def test_direct_llm_number_matches_scalar_oracle(seed, k_folds):
    cfg = fixture_number_config("uniform", None)
    cfg.seed, cfg.k_folds = seed, k_folds
    judgments = io.load_number_judgments(cfg.data_path)
    metrics, records = direct_llm_number(cfg, RatioBackend(judgments), judgments=judgments)

    rows = [
        (f"{set_id}:{j.test_number}", (j.test_number % 11) / 10, j.mean_rating)
        for set_id, group in group_judgments(judgments).items()
        for j in group
    ]
    assert {0.0, 1.0} <= {raw for _, raw, _ in rows}  # the clamp at both ends is exercised
    want = oracle.platt_cv(rows, k_folds, seed, PLATT_LR)
    assert [r.datum_id for r in records] == [i for i, _, _ in want]
    assert max(abs(r.prediction - p) for r, (_, p, _) in zip(records, want)) <= TOL
    want_r2 = r_squared([p for _, p, _ in want], [h for _, _, h in want])
    assert abs(metrics["holdout_r2"] - want_r2) <= TOL
    assert metrics["n_predictions"] == 48


def scalar_latent_shape(pool, curve, eps, alpha, beta):
    """Before each batch, the first maximum-likelihood visible rule on
    all earlier trials; its prediction, eps * alpha without one."""
    unique = dedup_pool(pool)
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

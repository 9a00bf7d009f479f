"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line on success; tolerances and runtime
bounds are asserted, not advisory. Criterion 11 is data-dependent and
skips unless the user supplies the published human data and a captured
proposal replay under data/.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.baselines import _raw_task
from nlconcepts.dsl import parse_concept
from nlconcepts.dsl.shape import eval_shape
from nlconcepts.fit import loss_and_grad, pack_params
from nlconcepts.harness import ExperimentConfig, build_shape_task, infer_number, infer_shape, run_experiment
from nlconcepts.likelihood import extension_matrix
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import (
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    Trial,
    shape_universe,
)

from conftest import FIXTURES, REPO


def _tuned_cfg():
    cfg = ExperimentConfig.from_json(FIXTURES / "configs" / "number_tuned.json")
    cfg.data_path = str(FIXTURES / "number_judgments.csv")
    cfg.pools = {k: str(FIXTURES / "number" / f"{k}.jsonl") for k in cfg.pools}
    return cfg


def _uniform_cfg():
    cfg = ExperimentConfig.from_json(FIXTURES / "configs" / "number_uniform.json")
    cfg.data_path = str(FIXTURES / "number_judgments.csv")
    cfg.pools = {k: str(FIXTURES / "number" / f"{k}.jsonl") for k in cfg.pools}
    return cfg


@pytest.fixture(scope="module")
def tuned_run():
    start = time.monotonic()
    metrics, records, _, _ = run_experiment(_tuned_cfg())
    return metrics, records, time.monotonic() - start


@pytest.fixture(scope="module")
def uniform_run():
    start = time.monotonic()
    metrics, records, _, _ = run_experiment(_uniform_cfg())
    return metrics, records, time.monotonic() - start


def _infer_number(pool, x, eps, temperature=1.0):
    """The posterior `nlconcepts infer` prints, under the uniform prior."""
    params = ModelParams(epsilon=eps, temperature=temperature)
    return infer_number(ExperimentConfig(domain="number"), pool, x, params)


def _membership(state, t):
    """P(t in concept) under the posterior."""
    return float(state.weights @ extension_matrix(state.pool)[:, t - 1])


def test_01_exact_bayes_oracle():
    start = time.monotonic()
    sources = [
        ("the number is even", "even(x)"),
        ("the number is odd", "odd(x)"),
        ("the number is a power of 2", "power(2, x)"),
        ("the number is a power of 3", "power(3, x)"),
        ("the number is a perfect square", "square(x)"),
        ("the number is prime", "prime(x)"),
        ("the number is a multiple of 5", "multiple(5, x)"),
        ("the number is less than 20", "x < 20"),
        ("the number ends in 4", "ends_in(4, x)"),
        ("the number is one of 2, 4, 8", "in_set({2, 4, 8}, x)"),
    ]
    pool = [io.make_hypothesis(nl, dsl, "number") for nl, dsl in sources]
    eps = 0.05
    for examples in ([2, 4, 8], [9, 3, 81], [4, 44, 64], [7]):
        x = NumberExampleSet(examples)
        # library path
        state = _infer_number(pool, x, eps, 1.0)
        # exhaustive enumeration oracle
        unnorm = []
        for h in pool:
            ext = h.program.extension
            w = 1.0
            for xi in examples:
                inside = (1 - eps) / len(ext) if ext and xi in ext else 0.0
                w *= inside + eps / 100.0
            unnorm.append(w)
        expected = np.array(unnorm) / sum(unnorm)
        assert np.abs(state.weights - expected).max() <= 1e-12
        for t in (1, 16, 44, 81, 100):
            enum = sum(
                w for w, h in zip(expected, pool) if t in h.program.extension
            )
            assert abs(_membership(state, t) - enum) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: exact-Bayes oracle, max err <= 1e-12 ({elapsed:.2f}s)")


def test_02_size_principle():
    start = time.monotonic()
    pool = io.load_pool(FIXTURES / "number_pool_size_principle.jsonl", "number")
    x = NumberExampleSet([16, 8, 2, 64])
    state = _infer_number(pool, x, 0.02, 1.0)
    p32 = _membership(state, 32)
    p23 = _membership(state, 23)
    assert p32 >= 0.9, p32
    assert p23 <= 0.01, p23
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: size principle P(32)={p32:.4f} P(23)={p23:.2e} ({elapsed:.2f}s)")


def test_03_gradient_correctness():
    from test_fit import DIM, number_task, random_u, shape_task

    start = time.monotonic()
    rng = np.random.default_rng(42)
    tasks_menu = [
        [number_task()],
        [shape_task()],
    ]
    checked = 0
    for i in range(20):
        tasks = tasks_menu[i % len(tasks_menu)]
        u = random_u(rng)
        _, grad, _ = loss_and_grad(u, tasks, DIM)
        h = 1e-4
        for j in range(len(u)):
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            lp, _, _ = loss_and_grad(up, tasks, DIM, want_grad=False)
            ln, _, _ = loss_and_grad(dn, tasks, DIM, want_grad=False)
            fd = (lp - ln) / (2 * h)
            denom = max(1e-8, abs(fd), abs(grad[j]))
            ok = abs(fd - grad[j]) / denom < 1e-3 or abs(fd - grad[j]) < 1e-7
            assert ok, f"fixture {i} param {j}: {grad[j]} vs {fd}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: {checked} analytic gradients match FD ({elapsed:.1f}s)")


def test_04_prior_recovery(tuned_run):
    metrics, records, elapsed = tuned_run
    mae = float(np.mean([abs(r.prediction - r.human) for r in records]))
    assert mae < 0.02, mae
    assert metrics["holdout_r2"] >= 0.99, metrics
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 PASS: recovery holdout R2={metrics['holdout_r2']:.4f} "
        f"MAE={mae:.4f} ({elapsed:.0f}s)"
    )


def test_05_tuned_beats_uniform(tuned_run, uniform_run):
    tuned_metrics, _, t_elapsed = tuned_run
    uniform_metrics, _, u_elapsed = uniform_run
    gap = tuned_metrics["holdout_r2"] - uniform_metrics["holdout_r2"]
    assert gap >= 0.02, (tuned_metrics, uniform_metrics)
    assert t_elapsed + u_elapsed < 300.0
    print(
        f"\nACCEPTANCE 5 PASS: tuned R2={tuned_metrics['holdout_r2']:.4f} vs "
        f"uniform R2={uniform_metrics['holdout_r2']:.4f} (gap {gap:.3f})"
    )


def test_06_likelihood_laws():
    universe = shape_universe()
    rng = np.random.default_rng(6)
    lags = {}  # K -> the lags a shape task of K trials compiles
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        beta = float(rng.uniform(0.0, 4.0))
        if k not in lags:
            trials = [Trial([universe[i % 27]], universe[i % 27], True) for i in range(k)]
            curve = LearningCurve("c", "", [trials], [0.5] * k)
            lags[k] = build_shape_task(ExperimentConfig("shape"), [], curve, FeatureExtractor(dim=0)).lags
        w = np.power(lags[k], -beta)  # the decay weights, as the shape pass raises them
        exact = (1.0 + k - np.arange(1, k + 1)) ** -beta
        np.testing.assert_array_equal(w, exact)  # formula holds exactly
        assert np.all(np.diff(w) >= 0)  # monotone in recency
        assert w[-1] == 1.0
    # beta = 0: the compiled posterior after the last trial is the softmax
    # of each rule's iid sum of log P(label), computed trial by trial
    import math

    pool = [
        io.make_hypothesis("something is positive if it is green", "this.color == green", "shape"),
        io.make_hypothesis("something is positive if it is small", "this.size == 1", "shape"),
        io.make_hypothesis("something is positive if it is a circle", "this.shape == circle", "shape"),
    ]
    trials = [
        Trial([universe[i], universe[(i + 5) % 27]], universe[i], bool(i % 2))
        for i in range(0, 20, 2)
    ]
    curve = LearningCurve("c", pool[0].nl_text, [trials[:4], trials[4:]], [0.5] * len(trials))
    params = ModelParams(epsilon=0.2, alpha=0.4, beta=0.0)
    state = infer_shape(ExperimentConfig(domain="shape"), pool, curve, 2, params)
    iid = []
    for h in pool:
        total = 0.0
        for t in trials:
            p_positive = 0.8 * eval_shape(h.program.expr, t.test, t.batch) + 0.2 * 0.4
            total += math.log(p_positive if t.label else 1.0 - p_positive)
        iid.append(total)
    top = max(iid)
    expected = np.exp(np.array(iid) - top) / sum(math.exp(v - top) for v in iid)
    assert np.abs(state.weights - expected).max() <= 1e-12
    print("\nACCEPTANCE 6 PASS: decay weight laws over 1000 random (K, beta)")


def test_07_dsl_oracle_equivalence():
    from test_dsl_shape import ORACLES

    universe = shape_universe()
    mismatches = 0
    total = 0
    compiled = [(parse_concept(src, "shape").expr, oracle) for src, oracle in ORACLES]
    for size in (1, 2, 3):  # exhaustive over all batches of size <= 3
        for batch in itertools.combinations_with_replacement(universe, size):
            for test in set(batch):
                for expr, oracle in compiled:
                    total += 1
                    if eval_shape(expr, test, batch) != oracle(test, batch):
                        mismatches += 1
    rng = random.Random(7)
    for _ in range(10_000):  # random larger batches
        size = rng.choice([4, 5])
        batch = tuple(rng.choices(universe, k=size))
        test = rng.choice(batch)
        for expr, oracle in compiled:
            total += 1
            if eval_shape(expr, test, batch) != oracle(test, batch):
                mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 7 PASS: {total} shape evaluations match brute force")


def test_08_online_protocol():
    curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5)
    _, records, details, _ = run_experiment(cfg, [curve], {"green_triangles": pool}, params)
    per_batch = details["green_triangles"]["per_batch"]
    assert per_batch[-1]["accuracy"] >= 0.9
    # planted rule enters the pool in batch 1 and is MAP from then on
    entry = min(h.source_batch for h in pool if h.nl_text == curve.ground_truth_nl)
    for row in per_batch[entry - 1:]:
        assert row["map_nl"] == curve.ground_truth_nl, row
    # causality: flipping future labels leaves past predictions bitwise unchanged
    cut_batch = 10
    cut = sum(len(b) for b in curve.batches[:cut_batch])
    flipped = LearningCurve(
        curve.concept_id,
        curve.ground_truth_nl,
        [
            [
                Trial(t.batch, t.test, (not t.label) if i >= cut_batch else t.label)
                for t in batch
            ]
            for i, batch in enumerate(curve.batches)
        ],
        curve.human_positive_rate,
    )
    records2 = run_experiment(cfg, [flipped], {"green_triangles": pool}, params).records
    for r1, r2 in zip(records[:cut], records2[:cut]):
        assert r1.prediction == r2.prediction
    print(
        f"\nACCEPTANCE 8 PASS: batch-15 accuracy {per_batch[-1]['accuracy']:.2f}, "
        f"MAP stable from batch {entry}, causality bitwise"
    )


def test_09_calibration_identities():
    # the number pass predicts a raw prediction unchanged at the Platt pair (1, 0)
    raw = np.linspace(0.001, 0.999, 23)
    task = _raw_task(raw, raw, [str(i) for i in range(len(raw))])
    _, _, records = loss_and_grad(pack_params(ModelParams()), [task], 0, want_grad=False)
    assert max(abs(pred - p) for (_, pred, _), p in zip(records, raw)) <= 1e-9
    pool = io.load_pool(FIXTURES / "number_pool_size_principle.jsonl", "number")
    x = NumberExampleSet([16, 8, 2, 64])
    w1 = _infer_number(pool, x, 0.02, 1.0).weights
    base = infer_number(ExperimentConfig(domain="number"), pool, x, ModelParams(epsilon=0.02)).weights
    np.testing.assert_array_equal(w1, base)  # T=1 changes nothing
    hot = _infer_number(pool, x, 0.02, 1e9).weights
    support = hot[hot > 0]
    assert np.abs(support - 1.0 / len(support)).max() <= 1e-6
    print("\nACCEPTANCE 9 PASS: Platt identity, T=1 no-op, T=1e9 uniform")


def test_10_replay_reproducibility(tmp_path):
    from nlconcepts.cli import main

    outputs = []
    for run in (1, 2):
        pool_path = tmp_path / f"pool{run}.jsonl"
        translated = tmp_path / f"translated{run}.jsonl"
        assert main([
            "propose", "--domain", "number", "--examples", "16,8,2,64",
            "--budget", "5", "--backend", "replay",
            "--store", str(FIXTURES / "replay"), "--out", str(pool_path),
        ]) == 0
        assert main([
            "translate", "--domain", "number", "--in", str(pool_path),
            "--out", str(translated), "--backend", "replay",
            "--store", str(FIXTURES / "replay"),
        ]) == 0
        out_dir = tmp_path / f"eval{run}"
        cfg = {
            "domain": "number",
            "data_path": str(FIXTURES / "number_judgments.csv"),
            "pools": {
                f"set{i:02d}": str(FIXTURES / "number" / f"set{i:02d}.jsonl")
                for i in range(1, 9)
            },
            "prior": "tuned",
            "feature_dim": 64,
            "seed": 0,
            "params": json.loads((FIXTURES / "params_true.json").read_text()),
        }
        cfg_path = tmp_path / f"cfg{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        outputs.append(
            (
                pool_path.read_bytes(),
                translated.read_bytes(),
                (out_dir / "predictions.csv").read_bytes(),
                (out_dir / "metrics.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10 PASS: replay-backed runs byte-identical")


PUBLISHED_CSV = REPO / "data" / "number_game_human.csv"
PUBLISHED_REPLAY = REPO / "data" / "replay"


@pytest.mark.skipif(
    not (PUBLISHED_CSV.exists() and PUBLISHED_REPLAY.exists()),
    reason="published human data and captured replay not supplied under data/",
)
def test_11_published_data_directional(tmp_path):
    """Tuned model beats the latent-language baseline and the
    no-proposal ablation on user-supplied published data."""
    from nlconcepts.baselines import latent_language_number, no_proposal_ablation
    from nlconcepts.propose import ProposalRequest, ReplayBackend, ReplayStore
    from nlconcepts.propose import propose as propose_fn
    from nlconcepts.propose.backends import translate_pool

    judgments = io.load_number_judgments(PUBLISHED_CSV)
    backend = ReplayBackend(ReplayStore(PUBLISHED_REPLAY))
    by_set = {}
    for j in judgments:
        by_set.setdefault(j.set_id, j.example_set)
    pools = {}
    for set_id, examples in by_set.items():
        req = ProposalRequest(domain="number", examples=examples, budget=100, seed=0)
        pools[set_id] = translate_pool(propose_fn(req, backend), "number", backend)
    shared_req = ProposalRequest(
        domain="ablation_unconditioned", examples=None, budget=100, seed=0
    )
    shared = translate_pool(propose_fn(shared_req, backend), "number", backend)
    shared_path = tmp_path / "shared.jsonl"
    io.save_pool(shared_path, shared)

    cfg = ExperimentConfig(domain="number", prior="tuned", feature_dim=384, seed=0)
    full = run_experiment(cfg, judgments, pools).metrics
    latent, _, _ = latent_language_number(cfg, judgments=judgments, pools=pools)
    cfg_abl = ExperimentConfig(domain="number", prior="tuned", feature_dim=384, seed=0)
    ablation, _, _ = no_proposal_ablation(cfg_abl, shared_path, judgments=judgments)
    assert full["holdout_r2"] > latent["holdout_r2"]
    assert full["holdout_r2"] > ablation["holdout_r2"]
    print("\nACCEPTANCE 11 PASS: tuned model beats both baselines on published data")

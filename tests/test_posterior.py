import itertools
import math
import random
import warnings

import numpy as np
import pytest
from scipy import special

from nlconcepts import io
from nlconcepts.fit import shape_forward
from nlconcepts.harness import ExperimentConfig, build_shape_task, infer_number
from nlconcepts.io import make_hypothesis
from nlconcepts.likelihood import extension_matrix
from nlconcepts.posterior import (
    MissingLogQ,
    PosteriorState,
    dedup_pool,
    expit,
    logit,
    platt,
    weight_diagnostics,
)
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import Hypothesis, LearningCurve, ModelParams, NumberExampleSet, ShapeObject, Trial

import oracle


def H(nl, dsl, logq=None):
    h = make_hypothesis(nl, dsl, "number")
    return Hypothesis(h.nl_text, h.program, proposal_logprob=logq)


POOL = [
    H("the number is a power of 2", "power(2, x)"),
    H("the number is even", "even(x)"),
    H("the number is a perfect square", "square(x)"),
    H("the number is less than 70", "x < 70"),
]
X = NumberExampleSet([16, 8, 2, 64])


def posterior(pool, x, eps=0.02, temperature=1.0, cfg=None):
    """`infer_number` under the uniform prior, unless `cfg` says otherwise."""
    params = ModelParams(epsilon=eps, temperature=temperature)
    return infer_number(cfg or ExperimentConfig("number"), pool, x, params)


def exhaustive_bayes(pool, x, eps):
    """Direct enumeration oracle over the (small, complete) pool."""
    weights = []
    for h in pool:
        ext = h.program.extension
        w = 1.0  # uniform prior
        for xi in x.examples:
            inside = (1 - eps) / len(ext) if xi in ext else 0.0
            w *= inside + eps / 100.0
        weights.append(w)
    total = sum(weights)
    return [w / total for w in weights]


def test_matches_exhaustive_bayes():
    state = posterior(POOL, X)
    expected = exhaustive_bayes(POOL, X, 0.02)
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)
    member = extension_matrix(state.pool)
    for t in (32, 23, 57, 64):
        enum = sum(w for w, h in zip(expected, POOL) if t in h.program.extension)
        assert state.weights @ member[:, t - 1] == pytest.approx(enum, abs=1e-12)


def test_example_order_does_not_matter():
    base = posterior(POOL, X)
    for perm in itertools.permutations([16, 8, 2, 64]):
        state = posterior(POOL, NumberExampleSet(perm))
        np.testing.assert_allclose(state.weights, base.weights, atol=1e-12)


def test_pool_order_permutation_consistency():
    rng = random.Random(3)
    base = posterior(POOL, X)
    by_key = dict(zip((h.key for h in base.pool), base.weights))
    for _ in range(5):
        shuffled = POOL[:]
        rng.shuffle(shuffled)
        state = posterior(shuffled, X)
        for h, w in zip(state.pool, state.weights):
            assert w == pytest.approx(by_key[h.key], abs=1e-12)


def test_dedup_pool_merges_by_canonical_text():
    dup = POOL + [H("The number is EVEN.", "even(x)")]
    unique, counts = dedup_pool(dup)
    assert len(unique) == 4
    assert counts.tolist() == [1, 2, 1, 1]
    # first occurrence wins
    assert unique[1].nl_text == "the number is even"


def test_duplicates_do_not_change_dedup_weights():
    state = posterior(POOL, X)
    dup = POOL + [POOL[0], POOL[0], POOL[1]]
    state2 = posterior(dup, X)
    np.testing.assert_allclose(state2.weights, state.weights, atol=1e-12)
    assert state2.diagnostics["duplicates_merged"] == 3


def test_unparsed_kept_with_zero_weight():
    pool = POOL + [H("gibberish", "???")]
    state = posterior(pool, X)
    assert len(state.pool) == 5
    assert state.weights[-1] == 0.0
    assert state.diagnostics["unparsed"] == 1
    assert state.weights.sum() == pytest.approx(1.0)


def test_weight_diagnostics_effective_sample_size():
    one_hot = weight_diagnostics([0.0, 1.0, 0.0])
    assert one_hot == {"ess": 1.0, "max_weight": 1.0}
    for n in (1, 4, 7):
        uniform = weight_diagnostics(np.full(n, 1.0 / n))
        assert uniform["ess"] == pytest.approx(n, rel=1e-12)
        assert uniform["max_weight"] == pytest.approx(1.0 / n)
    assert weight_diagnostics(np.zeros(3)) == {"ess": 0.0, "max_weight": 0.0}
    # the posterior reports them alongside its other diagnostics
    state = posterior(POOL, X)
    assert state.diagnostics["ess"] == pytest.approx(1.0 / np.sum(state.weights**2))
    assert state.diagnostics["max_weight"] == state.weights.max()


def test_degenerate_pool():
    pool = [H("gibberish", "???"), H("also gibberish", "????")]
    state = posterior(pool, X)
    assert state.degenerate
    assert not state.weights.any()
    assert state.diagnostics["zero_weight"] == 2


def test_temperature_identity_and_flattening():
    state_t1 = posterior(POOL, X, temperature=1.0)
    base = posterior(POOL, X)
    np.testing.assert_allclose(state_t1.weights, base.weights)
    hot = posterior(POOL, X, temperature=1e9)
    support = hot.weights[hot.weights > 0]
    np.testing.assert_allclose(support, 1.0 / len(support), atol=1e-6)
    cold = posterior(POOL, X, temperature=1e-2)
    assert cold.weights.max() > base.weights.max()


def test_temperature_applies_to_unnormalized_product(tmp_path):
    # w ~ (prior * lik)^(1/T), not a Platt-style output transform
    scores = tmp_path / "scores.jsonl"
    io.save_score_file(scores, {h.key: -float(i) for i, h in enumerate(POOL)})
    ll = oracle.pool_number_logliks(POOL, X, 0.02)
    T = 2.5
    state = posterior(POOL, X, temperature=T, cfg=ExperimentConfig("number", prior="external", scores_path=str(scores)))
    logs = np.array([-float(i) for i in range(len(POOL))]) + ll
    expected = np.exp(logs / T)
    expected /= expected.sum()
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)


IMPORTANCE = ExperimentConfig("number", weighting="importance")


def test_importance_weights():
    pool = [
        H("the number is a power of 2", "power(2, x)", logq=-1.0),
        H("the number is even", "even(x)", logq=-3.0),
    ]
    ll = oracle.pool_number_logliks(pool, X, 0.02)
    state = posterior(pool, X, cfg=IMPORTANCE)
    expected = np.exp(ll - np.array([-1.0, -3.0]))
    expected /= expected.sum()
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)


def test_importance_weights_require_logq():
    with pytest.raises(MissingLogQ):
        posterior(POOL, X, cfg=IMPORTANCE)


def test_importance_weights_keep_duplicates():
    pool = [
        H("the number is even", "even(x)", logq=-1.0),
        H("the number is even", "even(x)", logq=-1.0),
    ]
    state = posterior(pool, X, eps=0.5, cfg=IMPORTANCE)
    assert len(state.pool) == 2
    np.testing.assert_allclose(state.weights, [0.5, 0.5])


def test_predict_response():
    """A trial's prediction is the posterior expectation of each rule's
    response probability (1 - eps) member + eps alpha, under the weights
    before its batch."""
    gt = make_hypothesis(
        "something is positive if it is a green triangle",
        "this.color == green and this.shape == triangle",
        "shape",
    )
    other = make_hypothesis(
        "something is positive if it is green", "this.color == green", "shape"
    )
    tri = ShapeObject("triangle", "green", 1)
    circle = ShapeObject("circle", "green", 2)
    t = Trial([tri, circle], circle, False)
    curve = LearningCurve("c", gt.nl_text, [[t], [t]], [0.1, 0.2])
    task = build_shape_task(ExperimentConfig("shape"), [gt, other], curve, FeatureExtractor(dim=0))
    eps, alpha = 0.2, 0.5
    pred, p, _ = shape_forward(task, ModelParams(epsilon=eps, alpha=alpha, beta=0.5))
    # batch 1's "no" has probability 1 - eps alpha under gt, eps alpha under other
    np.testing.assert_allclose(p[1, task.rule_class], [0.9, 0.1], atol=1e-12)
    # per-hypothesis response prob is (1-eps)*member + eps*alpha
    expected = 0.9 * (eps * alpha) + 0.1 * ((1 - eps) + eps * alpha)
    assert pred[1] == pytest.approx(expected)


def test_state_validation():
    with pytest.raises(ValueError):
        PosteriorState([POOL[0]], np.array([0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        PosteriorState(POOL[:2], np.array([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("degenerate", [False, True])
def test_state_rejects_non_finite_weights(bad, degenerate):
    # NaN fails both "< 0" and "sum far from 1", so it needs its own check
    with pytest.raises(ValueError, match="finite"):
        PosteriorState(POOL[:3], np.array([bad, bad, bad]), degenerate)
    with pytest.raises(ValueError, match="finite"):
        PosteriorState(POOL[:2], np.array([1.0, bad]), degenerate)


def test_map_and_json_ordering():
    state = posterior(POOL, X)
    assert state.pool[int(np.argmax(state.weights))].nl_text == "the number is a power of 2"
    import json

    payload = json.loads(state.to_json())
    weights = [row["weight"] for row in payload["hypotheses"]]
    assert weights == sorted(weights, reverse=True)
    assert payload["hypotheses"][0]["nl"] == "the number is a power of 2"


def test_platt_identity_and_monotone():
    for p in (0.01, 0.3, 0.5, 0.77, 0.99):
        assert platt(p, 1.0, 0.0) == pytest.approx(p, abs=1e-9)
    assert platt(0.5, 2.0, 1.0) == pytest.approx(1 / (1 + math.exp(-1.0)))
    # clamping keeps extreme inputs finite
    assert 0.0 < platt(0.0, 1.0, 0.0) < platt(1.0, 1.0, 0.0) < 1.0


# ---------------------------------------------------------------------------
# expit and logit, with scipy.special as the oracle


def test_expit_within_two_ulp_of_scipy():
    # numpy's exp and the C library's differ by up to an ulp. Where
    # 2^53 <= exp(-x) < 2^54, adding 1 rounds a tie to even, which can
    # double that ulp in the denominator: 4 ulp of the result there.
    lo, hi = -54 * math.log(2.0), -53 * math.log(2.0)
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [
            rng.uniform(-700.0, 700.0, 100_000),
            rng.normal(0.0, 10.0, 100_000),
            rng.uniform(lo, hi, 20_000),
            np.linspace(-700.0, 700.0, 100_001),
        ]
    )
    want = special.expit(x)
    ulps = np.abs(expit(x) - want) / np.spacing(want)
    tie = (x > lo) & (x <= hi)
    assert tie.sum() >= 20_000
    assert ulps[~tie].max() <= 2
    assert ulps[tie].max() <= 4


def test_expit_beyond_700_and_nan():
    rng = np.random.default_rng(1)
    big = rng.uniform(700.0, 1e4, 10_000)
    x = np.concatenate([big, -big, [709.0, -709.0, 745.5, -745.5, np.inf, -np.inf]])
    assert np.abs(expit(x) - special.expit(x)).max() <= 1e-300
    assert np.isnan(expit(np.array([np.nan, 0.0]))[0])
    assert math.isnan(expit(math.nan))


@pytest.mark.parametrize("x", [800.0, -800.0, math.inf, -math.inf])
def test_expit_raises_no_warning_at_extremes(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= expit(x) <= 1.0
        got = expit(np.array([x, -x]))
    assert got.sum() == pytest.approx(1.0)


def test_logit_matches_scipy():
    rng = np.random.default_rng(2)
    p = np.concatenate(
        [
            rng.uniform(1e-6, 1.0 - 1e-6, 100_000),
            10.0 ** rng.uniform(-6.0, -0.3, 50_000),
            1.0 - 10.0 ** rng.uniform(-6.0, -0.3, 50_000),
            np.linspace(1e-6, 1.0 - 1e-6, 100_001),
        ]
    )
    want = special.logit(p)
    err = np.abs(logit(p) - want)
    # within 1e-15, or one ulp where an ulp is more (|logit| >= 8): numpy's
    # log and the C library's differ by up to an ulp
    assert np.all(err <= np.maximum(1e-15, np.spacing(np.abs(want))))
    assert np.abs(expit(logit(p)) - p).max() < 1e-15

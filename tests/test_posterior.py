import itertools
import math
import random
import warnings

import numpy as np
import pytest
from scipy import special

from nlconcepts.io import make_hypothesis
from nlconcepts.likelihood import EvalCache, pool_number_logliks
from nlconcepts.posterior import (
    DegenerateState,
    MissingLogQ,
    PosteriorState,
    dedup_pool,
    dedup_weights,
    expit,
    importance_weights,
    logit,
    platt,
    predict_membership,
    predict_response,
    weight_diagnostics,
)
from nlconcepts.prior import External, Uniform
from nlconcepts.types import Hypothesis, NumberExampleSet, ShapeObject, Trial, Unparsed


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


def posterior(pool, x, eps=0.02, temperature=1.0, prior=None):
    cache = EvalCache()
    ll = pool_number_logliks(pool, x, eps, cache)
    return dedup_weights(pool, prior or Uniform(), ll, temperature), cache


def exhaustive_bayes(pool, x, eps):
    """Direct enumeration oracle over the (small, complete) pool."""
    cache = EvalCache()
    weights = []
    for h in pool:
        ext = cache.extension(h)
        w = 1.0  # uniform prior
        for xi in x.examples:
            inside = (1 - eps) / len(ext) if xi in ext else 0.0
            w *= inside + eps / 100.0
        weights.append(w)
    total = sum(weights)
    return [w / total for w in weights], cache


def test_matches_exhaustive_bayes():
    state, cache = posterior(POOL, X)
    expected, _ = exhaustive_bayes(POOL, X, 0.02)
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)
    for t in (32, 23, 57, 64):
        enum = sum(
            w for w, h in zip(expected, POOL) if t in cache.extension(h)
        )
        assert predict_membership(state, t, cache) == pytest.approx(enum, abs=1e-12)


def test_example_order_does_not_matter():
    base, _ = posterior(POOL, X)
    for perm in itertools.permutations([16, 8, 2, 64]):
        state, _ = posterior(POOL, NumberExampleSet(perm))
        np.testing.assert_allclose(state.weights, base.weights, atol=1e-12)


def test_pool_order_permutation_consistency():
    rng = random.Random(3)
    base, cache = posterior(POOL, X)
    by_key = dict(zip((h.key for h in base.pool), base.weights))
    for _ in range(5):
        shuffled = POOL[:]
        rng.shuffle(shuffled)
        state, _ = posterior(shuffled, X)
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
    state, _ = posterior(POOL, X)
    dup = POOL + [POOL[0], POOL[0], POOL[1]]
    cache = EvalCache()
    ll = pool_number_logliks(dup, X, 0.02, cache)
    state2 = dedup_weights(dup, Uniform(), ll, 1.0)
    np.testing.assert_allclose(state2.weights, state.weights, atol=1e-12)
    assert state2.diagnostics["duplicates_merged"] == 3


def test_unparsed_kept_with_zero_weight():
    pool = POOL + [H("gibberish", "???")]
    state, _ = posterior(pool, X)
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
    state, _ = posterior(POOL, X)
    assert state.diagnostics["ess"] == pytest.approx(1.0 / np.sum(state.weights**2))
    assert state.diagnostics["max_weight"] == state.weights.max()


def test_degenerate_pool():
    pool = [H("gibberish", "???"), H("also gibberish", "????")]
    state, cache = posterior(pool, X)
    assert state.degenerate
    with pytest.raises(DegenerateState):
        predict_membership(state, 10, cache)


def test_temperature_identity_and_flattening():
    state_t1, _ = posterior(POOL, X, temperature=1.0)
    base, _ = posterior(POOL, X)
    np.testing.assert_allclose(state_t1.weights, base.weights)
    hot, _ = posterior(POOL, X, temperature=1e9)
    support = hot.weights[hot.weights > 0]
    np.testing.assert_allclose(support, 1.0 / len(support), atol=1e-6)
    cold, _ = posterior(POOL, X, temperature=1e-2)
    assert cold.weights.max() > base.weights.max()


def test_temperature_applies_to_unnormalized_product():
    # w ~ (prior * lik)^(1/T), not a Platt-style output transform
    prior = External({h.key: -float(i) for i, h in enumerate(POOL)})
    cache = EvalCache()
    ll = pool_number_logliks(POOL, X, 0.02, cache)
    T = 2.5
    state = dedup_weights(POOL, prior, ll, T)
    logs = np.array([-float(i) for i in range(len(POOL))]) + ll
    expected = np.exp(logs / T)
    expected /= expected.sum()
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)


def test_importance_weights():
    pool = [
        H("the number is a power of 2", "power(2, x)", logq=-1.0),
        H("the number is even", "even(x)", logq=-3.0),
    ]
    cache = EvalCache()
    ll = pool_number_logliks(pool, X, 0.02, cache)
    state = importance_weights(pool, Uniform(), ll)
    expected = np.exp(ll - np.array([-1.0, -3.0]))
    expected /= expected.sum()
    np.testing.assert_allclose(state.weights, expected, atol=1e-12)


def test_importance_weights_require_logq():
    with pytest.raises(MissingLogQ):
        importance_weights(POOL, Uniform(), np.zeros(len(POOL)))


def test_importance_weights_keep_duplicates():
    pool = [
        H("the number is even", "even(x)", logq=-1.0),
        H("the number is even", "even(x)", logq=-1.0),
    ]
    cache = EvalCache()
    ll = pool_number_logliks(pool, X, 0.5, cache)
    state = importance_weights(pool, Uniform(), ll)
    assert len(state.pool) == 2
    np.testing.assert_allclose(state.weights, [0.5, 0.5])


def test_predict_response():
    gt = make_hypothesis(
        "something is positive if it is a green triangle",
        "this.color == green and this.shape == triangle",
        "shape",
    )
    other = make_hypothesis(
        "something is positive if it is green", "this.color == green", "shape"
    )
    state = PosteriorState([gt, other], np.array([0.75, 0.25]))
    tri = ShapeObject("triangle", "green", 1)
    circle = ShapeObject("circle", "green", 2)
    t = Trial([tri, circle], circle, False)
    eps, alpha = 0.2, 0.5
    # per-hypothesis response prob is (1-eps)*member + eps*alpha
    expected = 0.75 * (eps * alpha) + 0.25 * ((1 - eps) + eps * alpha)
    assert predict_response(state, t, eps, alpha) == pytest.approx(expected)


def test_state_validation():
    with pytest.raises(ValueError):
        PosteriorState([POOL[0]], np.array([0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        PosteriorState(POOL[:2], np.array([1.5, -0.5]))


def test_map_and_json_ordering():
    state, _ = posterior(POOL, X)
    assert state.map_hypothesis().nl_text == "the number is a power of 2"
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

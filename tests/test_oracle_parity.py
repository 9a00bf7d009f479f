"""The public likelihood and posterior functions against the reference.

Every public function of `likelihood` and `posterior` that reads the
compiled extension and truth matrices must agree with its
per-hypothesis counterpart in `oracle` within 1e-12, with -inf and
NEG_LARGE in identical places, and must raise DegenerateState exactly
when the reference does. Cases: the number fixtures, the shape fixture
and the synthetic shape pool, plus epsilon = 0 with consistent and
inconsistent hypotheses, an empty extension, unparsed and duplicate
entries, all-dead pools, beta = 0 and a beta for which every decay
weight but the last underflows to 0.
"""

from dataclasses import replace

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.likelihood import (
    NEG_LARGE,
    EvalCache,
    decay_weights,
    decayed_sequence_loglik,
    extension_matrix,
    number_loglikelihood,
    pool_number_logliks,
    pool_shape_logliks,
    trial_response_prob,
    truth_matrix,
)
from nlconcepts.posterior import (
    DegenerateState,
    dedup_weights,
    importance_weights,
    predict_membership,
    predict_response,
)
from nlconcepts.prior import External, Uniform
from nlconcepts.types import NumberExampleSet

import oracle
from conftest import FIXTURES, synthetic_shape_curve, synthetic_shape_pool

TOL = 1e-12


def assert_matches(got, want):
    """Equal shapes, sentinels in the same places, the rest within TOL."""
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    assert got.shape == want.shape
    for sentinel in (-np.inf, NEG_LARGE):
        np.testing.assert_array_equal(got == sentinel, want == sentinel)
    finite = (want != -np.inf) & (want != NEG_LARGE)
    gap = np.abs(got[finite] - want[finite])
    assert np.all(gap <= TOL), gap.max()


def assert_states_match(got, want):
    assert [h.nl_text for h in got.pool] == [h.nl_text for h in want.pool]
    assert got.degenerate == want.degenerate
    assert_matches(got.weights, want.weights)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert abs(got.diagnostics[key] - value) <= TOL * max(1.0, abs(value)), key


def priors(pool):
    """Uniform, and external scores that differ per canonical NL."""
    rng = np.random.default_rng(len(pool))
    return [Uniform(), External({h.key: float(rng.normal(0, 2)) for h in pool})]


def with_logq(pool):
    return [replace(h, proposal_logprob=-0.3 * i) for i, h in enumerate(pool)]


def assert_posteriors_match(pool, loglik, want_loglik, predict, predict_oracle):
    """dedup and importance weights under each prior and temperature,
    then `predict(state)` against `predict_oracle(state)`."""
    states = []
    for prior in priors(pool):
        for temperature in (1.0, 0.3):
            states.append(
                (
                    dedup_weights(pool, prior, loglik, temperature),
                    oracle.dedup_weights(pool, prior, want_loglik, temperature),
                )
            )
        weighted = with_logq(pool)
        states.append(
            (
                importance_weights(weighted, prior, loglik),
                oracle.importance_weights(weighted, prior, want_loglik),
            )
        )
    for got, want in states:
        assert_states_match(got, want)
        if want.degenerate:
            with pytest.raises(DegenerateState):
                predict(got)
            with pytest.raises(DegenerateState):
                predict_oracle(want)
        else:
            assert_matches(predict(got), predict_oracle(want))
    return states


# ---------------------------------------------------------------------------
# Number domain


def H(nl, src):
    return io.make_hypothesis(nl, src, "number")


EDGE_NUMBER_POOL = [
    H("the number is even", "even(x)"),
    H("the number is a power of 2", "power(2, x)"),
    H("no number at all", "false"),  # empty extension
    H("the number is odd", "odd(x)"),  # inconsistent with even examples
    H("it is gibberish", "???"),  # never parses
    H("The number is EVEN.", "even(x)"),  # duplicate of the first entry
    H("the number is 2, 4 or 8", "in_set({2, 4, 8}, x)"),
    H("the number is 100", "x == 100"),
]
DEAD_NUMBER_POOL = [H("it is gibberish", "???"), H("also gibberish", "(((")]


def number_cases():
    cases = [
        ("edge", EDGE_NUMBER_POOL, NumberExampleSet([2, 4, 8])),
        ("edge-single", EDGE_NUMBER_POOL, NumberExampleSet([100])),
        ("dead", DEAD_NUMBER_POOL, NumberExampleSet([2, 4])),
        ("odd-only", [H("the number is odd", "odd(x)")], NumberExampleSet([2])),
        (
            "size-principle",
            io.load_pool(FIXTURES / "number_pool_size_principle.jsonl", "number"),
            NumberExampleSet([16, 8, 2, 64]),
        ),
    ]
    judgments = io.load_number_judgments(FIXTURES / "number_judgments.csv")
    example_sets = {j.set_id: j.example_set for j in judgments}
    for set_id in sorted(example_sets):
        pool = io.load_pool(FIXTURES / "number" / f"{set_id}.jsonl", "number")
        cases.append((set_id, pool, example_sets[set_id]))
    return cases


NUMBER_CASES = number_cases()


def test_extension_matrix_matches_interpreter():
    for _, pool, _ in NUMBER_CASES:
        want = [[float(x in ext) for x in range(1, 101)] for ext in map(oracle.extension, pool)]
        np.testing.assert_array_equal(extension_matrix(pool), np.reshape(want, (-1, 100)))


@pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("case", NUMBER_CASES, ids=[c[0] for c in NUMBER_CASES])
def test_number_functions_match_oracle(case, epsilon):
    _, pool, examples = case
    cache = EvalCache()
    for h in pool:
        assert_matches(
            number_loglikelihood(h, examples, epsilon),
            oracle.number_loglikelihood(h, examples, epsilon),
        )
    loglik = pool_number_logliks(pool, examples, epsilon, cache)
    want_loglik = oracle.pool_number_logliks(pool, examples, epsilon)
    assert_matches(loglik, want_loglik)
    tests = (1, 2, 16, 23, 64, 99, 100)
    assert_posteriors_match(
        pool,
        loglik,
        want_loglik,
        lambda s: [predict_membership(s, x, cache) for x in tests],
        lambda s: [oracle.predict_membership(s, x) for x in tests],
    )


def test_number_edge_cases_are_covered():
    """epsilon = 0: consistent hypotheses stay finite (no 0 * log 0),
    inconsistent ones and unparsed ones get the sentinel; the empty
    extension is finite only with noise; the all-dead pool is
    degenerate."""
    x = NumberExampleSet([2, 4, 8])
    ll = pool_number_logliks(EDGE_NUMBER_POOL, x, 0.0)
    assert np.isfinite(ll).all()
    assert (ll > NEG_LARGE).tolist() == [True, True, False, False, False, True, True, False]
    assert number_loglikelihood(EDGE_NUMBER_POOL[2], x, 0.0) == -np.inf
    assert np.isfinite(number_loglikelihood(EDGE_NUMBER_POOL[2], x, 0.1))
    ll = pool_number_logliks(DEAD_NUMBER_POOL, x, 0.1)
    assert dedup_weights(DEAD_NUMBER_POOL, Uniform(), ll).degenerate


# ---------------------------------------------------------------------------
# Shape domain


def S(nl, src, batch=None):
    return io.make_hypothesis(nl, src, "shape", batch=batch)


DEAD_SHAPE_POOL = [S("it sparkles", "this.sparkle =="), S("it is garbled", "exists(o in")]


def shape_cases():
    fixture_curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    fixture_pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    synthetic = synthetic_shape_curve()
    return [
        ("fixture", fixture_pool, fixture_curve),
        ("synthetic", synthetic_shape_pool(), synthetic),
        ("dead", DEAD_SHAPE_POOL, synthetic),
    ]


SHAPE_CASES = shape_cases()
# (epsilon, alpha, beta): noisy, noiseless, no decay, and decay that
# underflows to 0 for every trial but the last, with and without noise
# (noiseless, a zero-probability trial stays fatal at weight 0)
SHAPE_PARAMS = [
    (0.1, 0.4, 0.7),
    (0.0, 0.5, 1.0),
    (0.2, 0.6, 0.0),
    (0.05, 0.3, 2000.0),
    (0.0, 0.5, 2000.0),
]


def test_truth_matrix_matches_interpreter():
    for _, pool, curve in SHAPE_CASES:
        want = [[float(oracle.trial_member(h, t)) for t in curve.trials] for h in pool]
        np.testing.assert_array_equal(truth_matrix(pool, curve.trials), want)


def test_large_beta_underflows():
    weights = decay_weights(5, SHAPE_PARAMS[-1][2])
    assert weights.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("params", SHAPE_PARAMS, ids=lambda p: "-".join(f"{v:g}" for v in p))
@pytest.mark.parametrize("case", SHAPE_CASES, ids=[c[0] for c in SHAPE_CASES])
def test_shape_functions_match_oracle(case, params):
    _, pool, curve = case
    eps, alpha, beta = params
    trials = curve.trials
    for h in pool:
        for t in trials:
            assert_matches(
                trial_response_prob(h, t, eps, alpha), oracle.trial_response_prob(h, t, eps, alpha)
            )
    for n_seen in sorted({0, 1, len(curve.batches[0]), len(trials) // 2, len(trials)}):
        seen = trials[:n_seen]
        for h in pool:
            assert_matches(
                decayed_sequence_loglik(h, seen, eps, alpha, beta),
                oracle.decayed_sequence_loglik(h, seen, eps, alpha, beta),
            )
        upcoming = trials[n_seen : n_seen + 5] or trials[-5:]
        loglik = pool_shape_logliks(pool, seen, eps, alpha, beta)
        want_loglik = oracle.pool_shape_logliks(pool, seen, eps, alpha, beta)
        assert_matches(loglik, want_loglik)
        assert_posteriors_match(
            pool,
            loglik,
            want_loglik,
            lambda s: [predict_response(s, t, eps, alpha) for t in upcoming],
            lambda s: [oracle.predict_response(s, t, eps, alpha) for t in upcoming],
        )


def test_shape_edge_cases_are_covered():
    """epsilon = 0 leaves the consistent rule finite and the others
    NEG_LARGE; the all-dead pool is degenerate."""
    _, pool, curve = SHAPE_CASES[0]
    ll = pool_shape_logliks(pool, curve.trials, 0.0, 0.5, 1.0)
    consistent = [h.nl_text for h, v in zip(pool, ll) if v > NEG_LARGE]
    assert consistent and len(consistent) < len(pool)
    assert curve.ground_truth_nl in consistent
    ll = pool_shape_logliks(DEAD_SHAPE_POOL, curve.trials, 0.1, 0.5, 1.0)
    assert dedup_weights(DEAD_SHAPE_POOL, Uniform(), ll).degenerate

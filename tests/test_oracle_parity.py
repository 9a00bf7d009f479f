"""The compiled inference path against the reference.

`harness.infer_number` and `harness.infer_shape`, the posterior that
`nlconcepts infer` prints, must agree with the per-hypothesis posterior
of `oracle` within 1e-12: the same pool, weights and diagnostics, and
degenerate exactly when the reference is. Each is checked under the
uniform, tuned and external priors at two temperatures, numbers under
importance weighting too, with the predictions read off the weights.
Cases: the number fixtures, the shape fixture and the synthetic shape
pool at every number of batches seen (0..B), plus an empty extension,
unparsed and duplicate entries, all-dead pools, beta = 0 and a beta
for which every decay weight but the last underflows to 0. The
compiled extension and truth matrices match the interpreters.
"""

from dataclasses import replace

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.harness import ExperimentConfig, infer_number, infer_shape
from nlconcepts.likelihood import decay_weights, extension_matrix, truth_matrix
from nlconcepts.prior import MissingFeature
from nlconcepts.types import ModelParams, NumberExampleSet

import oracle
from conftest import FIXTURES, synthetic_shape_curve, synthetic_shape_pool

TOL = 1e-12
DIM = 16


def assert_matches(got, want):
    """Equal shapes, every entry within TOL."""
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    assert got.shape == want.shape
    gap = np.abs(got - want)
    assert np.all(gap <= TOL), gap.max()


def assert_states_match(got, want):
    assert [h.nl_text for h in got.pool] == [h.nl_text for h in want.pool]
    assert got.degenerate == want.degenerate
    assert_matches(got.weights, want.weights)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert abs(got.diagnostics[key] - value) <= TOL * max(1.0, abs(value)), key


def assert_predictions_match(got, want, predict, predict_oracle):
    """`predict(got)` against `predict_oracle(want)`; a degenerate
    posterior has no weight to predict from."""
    if want.degenerate:
        assert not got.weights.any()
        with pytest.raises(oracle.DegenerateState):
            predict_oracle(want)
    else:
        assert_matches(predict(got), predict_oracle(want))


def priors(pool, tmp_path):
    """(ExperimentConfig keywords, theta, reference prior) of the uniform
    prior, a tuned one, and external scores that differ per canonical NL."""
    rng = np.random.default_rng(len(pool))
    theta = rng.normal(0, 1.0, DIM)
    scores = {h.key: float(rng.normal(0, 2)) for h in pool}
    path = tmp_path / "scores.jsonl"
    io.save_score_file(path, scores)
    return [
        (dict(prior="uniform", feature_dim=0), np.zeros(0), oracle.prior_of("uniform")),
        (dict(prior="tuned", feature_dim=DIM), theta, oracle.prior_of("tuned", theta)),
        (
            dict(prior="external", scores_path=str(path), feature_dim=0),
            np.zeros(0),
            oracle.prior_of("external", scores=scores),
        ),
    ]


def with_logq(pool):
    return [replace(h, proposal_logprob=-0.3 * i) for i, h in enumerate(pool)]


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


def membership(state, tests):
    """P(x in concept) for each test number x, read off the posterior
    weights and the extension matrix."""
    return state.weights @ extension_matrix(state.pool)[:, [x - 1 for x in tests]]


@pytest.mark.parametrize("epsilon", [0.02, 0.3])
@pytest.mark.parametrize("case", NUMBER_CASES, ids=[c[0] for c in NUMBER_CASES])
def test_number_functions_match_oracle(case, epsilon, tmp_path):
    _, pool, examples = case
    tests = (1, 2, 16, 23, 64, 99, 100)
    want_loglik = oracle.pool_number_logliks(pool, examples, epsilon)

    def predict_oracle(s):
        return [oracle.predict_membership(s, x) for x in tests]

    for kwargs, theta, prior in priors(pool, tmp_path):
        for temperature in (1.0, 0.3):
            params = ModelParams(theta=theta, epsilon=epsilon, temperature=temperature)
            got = infer_number(ExperimentConfig("number", **kwargs), pool, examples, params)
            want = oracle.dedup_weights(pool, prior, want_loglik, temperature)
            assert_states_match(got, want)
            assert_predictions_match(got, want, lambda s: membership(s, tests), predict_oracle)
        weighted = with_logq(pool)
        cfg = ExperimentConfig("number", weighting="importance", **kwargs)
        got = infer_number(cfg, weighted, examples, ModelParams(theta=theta, epsilon=epsilon))
        want = oracle.importance_weights(weighted, prior, want_loglik)
        assert_states_match(got, want)
        assert_predictions_match(got, want, lambda s: membership(s, tests), predict_oracle)


def test_number_edge_cases_are_covered():
    """With noise, every parsed entry of the edge pool keeps a positive
    weight (the empty extension and the inconsistent ones included), the
    unparsed one none, and the duplicate merges; the all-dead pool is
    degenerate."""
    cfg, params, x = ExperimentConfig("number"), ModelParams(epsilon=0.1), NumberExampleSet([2, 4, 8])
    state = infer_number(cfg, EDGE_NUMBER_POOL, x, params)
    assert (state.weights > 0).tolist() == [h.parsed for h in state.pool]
    assert [state.diagnostics[k] for k in ("duplicates_merged", "unparsed", "zero_weight")] == [1, 1, 1]
    state = infer_number(cfg, DEAD_NUMBER_POOL, x, params)
    assert state.degenerate and not state.weights.any()


def test_external_prior_without_a_pool_entry_raises_missing_feature(tmp_path):
    path = tmp_path / "scores.jsonl"
    io.save_score_file(path, {h.key: -1.0 for h in EDGE_NUMBER_POOL[:-1]})
    cfg = ExperimentConfig("number", prior="external", scores_path=str(path))
    with pytest.raises(MissingFeature, match="the number is 100"):
        infer_number(cfg, EDGE_NUMBER_POOL, NumberExampleSet([2]), ModelParams())


# ---------------------------------------------------------------------------
# Shape domain


def S(nl, src, batch=None):
    return io.make_hypothesis(nl, src, "shape", batch=batch)


DEAD_SHAPE_POOL = [S("it sparkles", "this.sparkle =="), S("it is garbled", "exists(o in")]


def shape_cases():
    fixture_curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    fixture_pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    synthetic = synthetic_shape_curve()
    # a rule whose source batch lies past the curve's 5: visible only after the last batch
    late = S("it is small", "this.size == 1", batch=7)
    return [
        ("fixture", fixture_pool, fixture_curve),
        ("synthetic", synthetic_shape_pool() + [late], synthetic),
        ("dead", DEAD_SHAPE_POOL, synthetic),
    ]


SHAPE_CASES = shape_cases()
# (epsilon, alpha, beta): noisy, no decay, and decay that underflows to 0
# for every trial but the last
SHAPE_PARAMS = [
    (0.1, 0.4, 0.7),
    (0.2, 0.6, 0.0),
    (0.05, 0.3, 2000.0),
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
def test_shape_functions_match_oracle(case, params, tmp_path):
    """The posterior after each number of batches seen, 0..B, and the
    responses it predicts for the next batch (the last after all B)."""
    _, pool, curve = case
    eps, alpha, beta = params
    prior_cases = priors(pool, tmp_path)
    for upto in range(len(curve.batches) + 1):
        upcoming = curve.batches[min(upto, len(curve.batches) - 1)]
        want_loglik = oracle.online_shape_logliks(pool, curve, upto, eps, alpha, beta)

        def predict(s):
            return s.weights @ ((1.0 - eps) * truth_matrix(s.pool, upcoming) + eps * alpha)

        for kwargs, theta, prior in prior_cases:
            for temperature in (1.0, 0.3):
                p = ModelParams(theta=theta, epsilon=eps, alpha=alpha, beta=beta, temperature=temperature)
                got = infer_shape(ExperimentConfig("shape", **kwargs), pool, curve, upto, p)
                want = oracle.dedup_weights(pool, prior, want_loglik, temperature)
                assert_states_match(got, want)
                assert_predictions_match(
                    got, want, predict, lambda s: [oracle.predict_response(s, t, eps, alpha) for t in upcoming]
                )


def test_shape_edge_cases_are_covered():
    """With little noise, the posterior after the last batch sits on the
    rules consistent with every trial, the planted rule among them; the
    all-dead pool is degenerate after any number of batches."""
    _, pool, curve = SHAPE_CASES[0]
    cfg, params = ExperimentConfig("shape"), ModelParams(epsilon=1e-6, alpha=0.5, beta=0.0)
    state = infer_shape(cfg, pool, curve, len(curve.batches), params)
    labels = np.array([t.label for t in curve.trials], dtype=float)
    consistent = (truth_matrix(state.pool, curve.trials) == labels).all(axis=1)
    assert consistent.any() and not consistent.all()
    assert curve.ground_truth_nl in [h.nl_text for h, c in zip(state.pool, consistent) if c]
    assert state.weights[~consistent].sum() < 1e-4
    for upto in range(len(curve.batches) + 1):
        state = infer_shape(cfg, DEAD_SHAPE_POOL, curve, upto, params)
        assert state.degenerate and not state.weights.any()

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlconcepts.dsl
from nlconcepts import io
from nlconcepts.io import make_hypothesis
from nlconcepts.likelihood import (
    NEG_LARGE,
    DomainMismatch,
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
from nlconcepts.posterior import dedup_weights, predict_membership, predict_response
from nlconcepts.prior import Uniform
from nlconcepts.types import NumberExampleSet, ShapeObject, Trial


EVEN = make_hypothesis("the number is even", "even(x)", "number")
POW2 = make_hypothesis("the number is a power of 2", "power(2, x)", "number")
JUNK = make_hypothesis("junk", "???", "number")
GT = make_hypothesis(
    "something is positive if it is a green triangle",
    "this.color == green and this.shape == triangle",
    "shape",
)

TRI = ShapeObject("triangle", "green", 1)
CIR = ShapeObject("circle", "blue", 2)


def test_number_likelihood_size_principle():
    x = NumberExampleSet([2, 4, 8, 16])
    # both consistent; the smaller extension (|pow2| = 7) scores higher
    assert number_loglikelihood(POW2, x, 0.02) > number_loglikelihood(EVEN, x, 0.02)


def test_number_likelihood_exact_value():
    x = NumberExampleSet([2, 4])
    eps = 0.1
    per = (1 - eps) / 50 + eps / 100
    assert number_loglikelihood(EVEN, x, eps) == pytest.approx(2 * math.log(per))
    # inconsistent example mixes in only the noise term
    x2 = NumberExampleSet([2, 3])
    assert number_loglikelihood(EVEN, x2, eps) == pytest.approx(
        math.log(per) + math.log(eps / 100)
    )


def test_number_likelihood_zero_epsilon_inconsistent_is_neg_inf():
    x = NumberExampleSet([3])
    assert number_loglikelihood(EVEN, x, 0.0) == -math.inf


def test_empty_extension_hypothesis():
    empty = make_hypothesis("impossible", "false", "number")
    x = NumberExampleSet([5])
    # indicator-first: empty extension leaves only the noise floor
    assert number_loglikelihood(empty, x, 0.1) == pytest.approx(math.log(0.001))


def test_unparsed_gets_sentinel_in_pool_vector():
    x = NumberExampleSet([2, 4])
    out = pool_number_logliks([EVEN, JUNK], x, 0.1)
    assert out[1] == NEG_LARGE
    assert np.isfinite(out).all()


def test_domain_mismatch_raises():
    cache = EvalCache()
    with pytest.raises(DomainMismatch):
        cache.extension(GT)
    with pytest.raises(DomainMismatch):
        pool_shape_logliks([EVEN], [Trial([TRI], TRI, True)], 0.1, 0.5, 1.0)


def test_trial_response_prob():
    t_pos = Trial([TRI, CIR], TRI, True)
    t_neg = Trial([TRI, CIR], CIR, False)
    eps, alpha = 0.2, 0.4
    assert trial_response_prob(GT, t_pos, eps, alpha) == pytest.approx(
        (1 - eps) + eps * alpha
    )
    assert trial_response_prob(GT, t_neg, eps, alpha) == pytest.approx(
        1 - eps * alpha
    )


def test_decay_weights_formula_and_recency():
    w = decay_weights(5, 0.7)
    expected = np.array([(1 + 5 - k) ** -0.7 for k in range(1, 6)])
    np.testing.assert_allclose(w, expected)
    assert w[-1] == 1.0  # most recent trial always has weight 1
    assert np.all(np.diff(w) > 0)  # strictly increasing toward recency


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 5.0, allow_nan=False))
def test_decay_weights_properties(k, beta):
    w = decay_weights(k, beta)
    expected = (1.0 + k - np.arange(1, k + 1)) ** -beta
    np.testing.assert_allclose(w, expected, rtol=1e-12)
    assert w[-1] == pytest.approx(1.0)
    assert np.all(np.diff(w) >= 0)


def test_beta_zero_reduces_to_iid_sum():
    trials = [
        Trial([TRI, CIR], TRI, True),
        Trial([TRI, CIR], CIR, False),
        Trial([TRI, CIR], TRI, False),
    ]
    eps, alpha = 0.15, 0.3
    decayed = decayed_sequence_loglik(GT, trials, eps, alpha, beta=0.0)
    iid = sum(
        math.log(trial_response_prob(GT, t, eps, alpha)) for t in trials
    )
    assert decayed == pytest.approx(iid, abs=1e-12)


def test_empty_trial_sequence_is_zero():
    assert decayed_sequence_loglik(GT, [], 0.1, 0.5, 1.0) == 0.0


def test_domain_mismatch_is_the_dsl_error():
    from nlconcepts import dsl, likelihood

    assert likelihood.DomainMismatch is dsl.DomainMismatch


def test_pool_shape_logliks_marks_unparsed():
    junk = make_hypothesis("mystery", "???", "shape")
    trials = [Trial([TRI], TRI, True)]
    out = pool_shape_logliks([GT, junk], trials, 0.1, 0.5, 1.0)
    assert out[0] > NEG_LARGE
    assert out[1] == NEG_LARGE


def test_extension_matrix_keys_rows_by_program():
    """Equal text with different programs gets each program's own
    extension: the meaning is the program's, not the words'."""
    odd = make_hypothesis("The number is even.", "odd(x)", "number")
    assert odd.key == EVEN.key
    rows = extension_matrix([EVEN, odd])
    np.testing.assert_array_equal(rows[1], extension_matrix([odd])[0])
    assert rows[0, 1] == rows[1, 0] == 1.0 and rows[0, 0] == rows[1, 1] == 0.0
    cache = EvalCache()
    assert cache.extension(EVEN) == frozenset(range(2, 101, 2))
    assert cache.extension(odd) == frozenset(range(1, 100, 2))
    assert cache.extension(JUNK) == frozenset() and vars(cache) == {}


def test_extension_is_computed_once_per_program(monkeypatch):
    computed = []

    def counting_extension(expr):
        computed.append(expr)
        return number_extension(expr)

    number_extension = nlconcepts.dsl.number_extension
    monkeypatch.setattr(nlconcepts.dsl, "number_extension", counting_extension)
    pool = [
        make_hypothesis("the number is odd", "odd(x)", "number"),
        make_hypothesis("the number is below 7", "x < 7", "number"),
        make_hypothesis("gibberish", "???", "number"),
    ]
    x = NumberExampleSet([3, 5])
    first = extension_matrix(pool)
    loglik = pool_number_logliks(pool, x, 0.1)
    state = dedup_weights(pool, Uniform(), loglik)
    predicted = [predict_membership(state, t) for t in (1, 4, 9)]
    singles = [number_loglikelihood(h, x, 0.1) for h in pool]
    assert len(computed) == 2
    # the memo changes no value
    np.testing.assert_array_equal(extension_matrix(pool), first)
    assert singles[:2] == pytest.approx(loglik[:2].tolist(), abs=1e-12)
    assert predicted == pytest.approx((state.weights @ first[:, [0, 3, 8]]).tolist(), abs=1e-12)
    assert len(computed) == 2


def test_number_program_pickles_after_extension():
    h = make_hypothesis("the number is a power of 2", "power(2, x)", "number")
    ext = h.program.extension  # computed and memoized on the program
    copy = pickle.loads(pickle.dumps(h))
    assert copy == h and vars(copy.program)["extension"] == ext == frozenset({1, 2, 4, 8, 16, 32, 64})
    with pytest.raises(DomainMismatch):
        GT.program.extension


def test_per_trial_calls_match_one_call_over_all_trials(fixtures_dir):
    pool = io.load_pool(fixtures_dir / "shape" / "green_triangles_pool.jsonl", "shape")
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    assert len(curve.trials) == 64
    state = dedup_weights(pool, Uniform(), np.zeros(len(pool)))
    i = next(i for i, h in enumerate(pool) if h.parsed)
    predicted = [predict_response(state, t, 0.1, 0.5) for t in curve.trials]
    probs = [trial_response_prob(pool[i], t, 0.1, 0.5) for t in curve.trials]
    p_positive = 0.9 * truth_matrix(pool, curve.trials) + 0.1 * 0.5
    assert predicted == pytest.approx(p_positive.T @ state.weights, abs=1e-12)
    labels = np.array([t.label for t in curve.trials])
    assert probs == pytest.approx(np.where(labels, p_positive[i], 1 - p_positive[i]), abs=1e-12)
    # evaluation leaves nothing on the programs
    assert all(vars(h.program).keys() == {"domain", "expr"} for h in pool if h.parsed)


def test_shape_program_pickles_after_evaluation():
    trials = [Trial([TRI, CIR], TRI, True), Trial([TRI, CIR], CIR, False)]
    assert truth_matrix([GT], trials).tolist() == [[1.0, 0.0]]
    copy = pickle.loads(pickle.dumps(GT))
    assert copy == GT and vars(copy.program).keys() == {"domain", "expr"}
    assert truth_matrix([copy], trials).tolist() == [[1.0, 0.0]]


def test_pool_number_logliks_tie_exactly_on_equal_counts():
    """Hypotheses with equal |C| and an equal number of examples inside
    tie in exact arithmetic, and their log-likelihoods are bitwise
    equal: {1, 61, 62, 63} and {3, 61, 62, 63} on 1, 2, 3, and every
    group of random small extensions."""
    x = NumberExampleSet([1, 2, 3])
    pair = [
        make_hypothesis("one and the sixties", "in_set({1, 61, 62, 63}, x)", "number"),
        make_hypothesis("three and the sixties", "in_set({3, 61, 62, 63}, x)", "number"),
    ]
    a, b = pool_number_logliks(pair, x, 0.02)
    assert a == b
    rng = np.random.default_rng(17)
    for _ in range(40):
        examples = NumberExampleSet(rng.choice(np.arange(1, 11), rng.integers(1, 5), replace=False))
        pool = [
            make_hypothesis(f"rule {i}", f"in_set({{{', '.join(map(str, sorted(ext)))}}}, x)", "number")
            for i, ext in enumerate(
                rng.choice(np.arange(1, 16), rng.integers(1, 6), replace=False) for _ in range(12)
            )
        ]
        loglik = pool_number_logliks(pool, examples, float(rng.choice([0.02, 0.3])))
        groups = {}
        for h, ll in zip(pool, loglik):
            ext = h.program.extension
            groups.setdefault((len(ext), len(ext & set(examples.examples))), set()).add(ll)
        assert all(len(values) == 1 for values in groups.values()), groups

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlconcepts.dsl
from nlconcepts import io
from nlconcepts.io import make_hypothesis
from nlconcepts.fit import number_weights, pack_params, stack_tasks
from nlconcepts.harness import ExperimentConfig, build_number_task, infer_number, infer_shape
from nlconcepts.posterior import expit
from nlconcepts.likelihood import DomainMismatch, extension_matrix, positive_probs, truth_matrix
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import LearningCurve, ModelParams, NumberExampleSet, ShapeObject, Trial

import oracle


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


def logliks(pool, examples, epsilon):
    """Each hypothesis's log-likelihood of the examples as the number
    model weighs it: `fit.number_weights`' log-weights under the uniform
    prior, whose log prior is 0."""
    task = build_number_task(ExperimentConfig("number"), pool, examples, [], FeatureExtractor(dim=0))
    return number_weights(pack_params(ModelParams(epsilon=epsilon))[None], stack_tasks([task]))[1][0, 0]


def response_probs(h, trials, epsilon, alpha):
    """The probability of each trial's label under rule h."""
    q0, q1 = positive_probs(epsilon, alpha)
    q = np.where(truth_matrix([h], trials)[0] > 0, q1, q0)
    return np.where(np.array([t.label for t in trials]), q, 1.0 - q)


def test_number_likelihood_size_principle():
    x = NumberExampleSet([2, 4, 8, 16])
    # both consistent; the smaller extension (|pow2| = 7) scores higher
    pow2, even = logliks([POW2, EVEN], x, 0.02)
    assert pow2 > even


def test_number_likelihood_exact_value():
    x = NumberExampleSet([2, 4])
    eps = 0.1
    per = (1 - eps) / 50 + eps / 100
    assert logliks([EVEN], x, eps)[0] == pytest.approx(2 * math.log(per))
    # inconsistent example mixes in only the noise term
    x2 = NumberExampleSet([2, 3])
    assert logliks([EVEN], x2, eps)[0] == pytest.approx(
        math.log(per) + math.log(eps / 100)
    )


def test_empty_extension_hypothesis():
    empty = make_hypothesis("impossible", "false", "number")
    x = NumberExampleSet([5])
    # indicator-first: empty extension leaves only the noise floor
    assert logliks([empty], x, 0.1)[0] == pytest.approx(math.log(0.001))


@pytest.mark.parametrize("epsilon", [1e-300, 1e-5, 0.3, 1 - 1e-16])
def test_number_log_weights_are_the_closed_form_at_the_floors(epsilon):
    """`fit.number_weights`' log-weights at T = 1 under the uniform prior,
    directly: a live row is n_in log max(g_in, 1e-300) + n_out log
    max(g_out, 1e-300), an unparsed row exactly 0, and an empty extension
    K log max(g_out, 1e-300). A live row holds to the rounding of the
    larger term of the sum the pass computes, n_all log g_out + n_in
    log1p(x) with g_out floored (`likelihood.count_logliks`): at the
    floor its two terms, near K log 1e-300, cancel to the closed form."""
    everything = make_hypothesis("any number", "x >= 1", "number")
    empty = make_hypothesis("impossible", "false", "number")
    odd = make_hypothesis("the number is odd", "odd(x)", "number")
    pool = [EVEN, POW2, everything, odd, JUNK, empty]
    examples = NumberExampleSet([2, 4, 8, 16, 3])
    got = logliks(pool, examples, epsilon)
    eps = float(expit(pack_params(ModelParams(epsilon=epsilon))[0]))  # the epsilon the pass reads
    log_g_out = math.log(max(eps / 100.0, 1e-300))
    for h, value in zip(pool, got):
        if not h.parsed:
            assert value == 0.0
            continue
        size = len(h.program.extension)
        n_in = sum(x in h.program.extension for x in examples.examples)
        n_out = len(examples) - n_in
        if size == 0:
            assert value == len(examples) * log_g_out
            continue
        want = n_in * math.log(max((1.0 - eps) / size + eps / 100.0, 1e-300)) + n_out * log_g_out
        terms = (len(examples) * log_g_out, n_in * math.log1p((1.0 - eps) / math.exp(log_g_out) / size))
        assert abs(value - want) <= 4 * np.finfo(float).eps * max(map(abs, terms)), h.nl_text


def test_unparsed_gets_sentinel_in_pool_vector():
    """An unparsed hypothesis counts no examples, so its log-weight stays
    finite, and it is dead: the posterior gives it weight 0."""
    x = NumberExampleSet([2, 4])
    out = logliks([EVEN, JUNK], x, 0.1)
    assert out[1] == 0.0
    assert np.isfinite(out).all()
    state = infer_number(ExperimentConfig("number"), [EVEN, JUNK], x, ModelParams(epsilon=0.1))
    assert state.weights.tolist() == [1.0, 0.0]


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatch):
        GT.program.extension
    with pytest.raises(DomainMismatch):
        extension_matrix([GT])
    with pytest.raises(DomainMismatch):
        truth_matrix([EVEN], [Trial([TRI], TRI, True)])


def test_trial_response_prob():
    t_pos = Trial([TRI, CIR], TRI, True)
    t_neg = Trial([TRI, CIR], CIR, False)
    eps, alpha = 0.2, 0.4
    assert response_probs(GT, [t_pos, t_neg], eps, alpha) == pytest.approx(
        [(1 - eps) + eps * alpha, 1 - eps * alpha]
    )


def test_decay_weights_formula_and_recency():
    """The reference decay the shape task's lookup is held to
    (`tests/test_fit.py::assert_constants_match_fresh`)."""
    w = oracle.decay_weights(5, 0.7)
    expected = np.array([(1 + 5 - k) ** -0.7 for k in range(1, 6)])
    np.testing.assert_allclose(w, expected)
    assert w[-1] == 1.0  # most recent trial always has weight 1
    assert np.all(np.diff(w) > 0)  # strictly increasing toward recency


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 5.0, allow_nan=False))
def test_decay_weights_properties(k, beta):
    w = oracle.decay_weights(k, beta)
    expected = (1.0 + k - np.arange(1, k + 1)) ** -beta
    np.testing.assert_allclose(w, expected, rtol=1e-12)
    assert w[-1] == pytest.approx(1.0)
    assert np.all(np.diff(w) >= 0)


SHAPE_POOL = [
    GT,
    make_hypothesis("something is positive if it is green", "this.color == green", "shape"),
    make_hypothesis("something is positive if it is blue", "this.color == blue", "shape"),
]


def test_beta_zero_reduces_to_iid_sum():
    """At beta = 0 the posterior after the last trial is the softmax of
    each rule's i.i.d. sum of log P(label)."""
    trials = [
        Trial([TRI, CIR], TRI, True),
        Trial([TRI, CIR], CIR, False),
        Trial([TRI, CIR], TRI, False),
    ]
    eps, alpha = 0.15, 0.3
    curve = LearningCurve("c", GT.nl_text, [trials[:1], trials[1:]], [0.5] * 3)
    params = ModelParams(epsilon=eps, alpha=alpha, beta=0.0)
    state = infer_shape(ExperimentConfig("shape"), SHAPE_POOL, curve, 2, params)
    iid = np.array([np.log(response_probs(h, trials, eps, alpha)).sum() for h in SHAPE_POOL])
    expected = np.exp(iid - iid.max()) / np.exp(iid - iid.max()).sum()
    np.testing.assert_allclose(state.weights, expected, rtol=0, atol=1e-12)


def test_empty_trial_sequence_is_zero():
    """Before any trial every decayed log-likelihood is 0: the posterior
    is the prior over the rules visible at batch 1."""
    curve = LearningCurve("c", GT.nl_text, [[Trial([TRI, CIR], TRI, True)]], [0.5])
    params = ModelParams(epsilon=0.1, alpha=0.5, beta=1.0)
    state = infer_shape(ExperimentConfig("shape"), SHAPE_POOL, curve, 0, params)
    np.testing.assert_array_equal(state.weights, np.full(3, 1.0 / 3.0))
    assert oracle.decay_weights(0, 1.0).shape == (0,)


def test_domain_mismatch_is_the_dsl_error():
    from nlconcepts import dsl, likelihood

    assert likelihood.DomainMismatch is dsl.DomainMismatch


def test_pool_shape_logliks_marks_unparsed():
    """An unparsed shape rule is never visible: it gets weight 0 after
    any number of batches."""
    junk = make_hypothesis("mystery", "???", "shape")
    curve = LearningCurve("c", GT.nl_text, [[Trial([TRI], TRI, True)]], [0.5])
    for upto in (0, 1):
        state = infer_shape(ExperimentConfig("shape"), [GT, junk], curve, upto, ModelParams())
        assert state.weights.tolist() == [1.0, 0.0]
        assert state.diagnostics["unparsed"] == 1


def test_extension_matrix_keys_rows_by_program():
    """Equal text with different programs gets each program's own
    extension: the meaning is the program's, not the words'."""
    odd = make_hypothesis("The number is even.", "odd(x)", "number")
    assert odd.key == EVEN.key
    rows = extension_matrix([EVEN, odd])
    np.testing.assert_array_equal(rows[1], extension_matrix([odd])[0])
    assert rows[0, 1] == rows[1, 0] == 1.0 and rows[0, 0] == rows[1, 1] == 0.0
    assert EVEN.program.extension == frozenset(range(2, 101, 2))
    assert odd.program.extension == frozenset(range(1, 100, 2))
    assert not extension_matrix([JUNK]).any()


def test_extension_matrix_equals_the_interpreters_extensions_on_fixture_pools(fixtures_dir):
    """On every number fixture pool, with a rule that never parses
    added, the stacked rows are the interpreter's extensions as 0/1
    (`number_extension`), and the unparsed rows are 0."""
    paths = sorted((fixtures_dir / "number").glob("*.jsonl")) + [fixtures_dir / "number_pool_size_principle.jsonl"]
    for path in paths:
        pool = [*io.load_pool(path, "number"), JUNK]
        want = np.zeros((len(pool), 100))
        for i, h in enumerate(pool):
            want[i, [x - 1 for x in oracle.extension(h)]] = 1.0
        assert any(not h.parsed for h in pool[:-1]) or path.name.startswith("number_pool")
        got = extension_matrix(pool)
        assert got.dtype == float and got.shape == (len(pool), 100)
        np.testing.assert_array_equal(got, want, err_msg=str(path))
        assert not got[[i for i, h in enumerate(pool) if not h.parsed]].any()


def test_extension_is_computed_once_per_program(monkeypatch):
    """Each program's truth row is compiled once, however many times
    `extension_matrix`, inference and `extension` read it."""
    computed = []

    def counting_values(expr):
        computed.append(expr)
        return extension_values(expr)

    extension_values = nlconcepts.dsl.extension_values
    monkeypatch.setattr(nlconcepts.dsl, "extension_values", counting_values)
    pool = [
        make_hypothesis("the number is odd", "odd(x)", "number"),
        make_hypothesis("the number is below 7", "x < 7", "number"),
        make_hypothesis("gibberish", "???", "number"),
    ]
    x = NumberExampleSet([3, 5])
    first = extension_matrix(pool)
    state = infer_number(ExperimentConfig("number"), pool, x, ModelParams(epsilon=0.1))
    predicted = state.weights @ extension_matrix(state.pool)[:, [0, 3, 8]]
    loglik = logliks(pool, x, 0.1)
    assert len(computed) == 2
    # the memo changes no value
    np.testing.assert_array_equal(extension_matrix(pool), first)
    sizes = first[:2].sum(axis=1)
    assert loglik[:2].tolist() == pytest.approx(2 * np.log(0.9 / sizes + 0.001), abs=1e-12)
    assert predicted.tolist() == pytest.approx((state.weights @ first[:, [0, 3, 8]]).tolist(), abs=1e-12)
    assert pool[0].program.extension == frozenset(range(1, 100, 2))
    assert len(computed) == 2


def test_number_program_pickles_after_extension():
    h = make_hypothesis("the number is a power of 2", "power(2, x)", "number")
    row = h.program.extension_values  # computed and memoized on the program
    assert not row.flags.writeable  # the memo cannot be changed in place
    copy = pickle.loads(pickle.dumps(h))
    assert copy == h and vars(copy.program).keys() == {"domain", "expr", "extension_values"}
    copied = vars(copy.program)["extension_values"]
    np.testing.assert_array_equal(copied, row)
    assert not copied.flags.writeable  # read-only again after the round trip
    assert copy.program.extension == h.program.extension == frozenset({1, 2, 4, 8, 16, 32, 64})
    with pytest.raises(DomainMismatch):
        GT.program.extension


def test_per_trial_calls_match_one_call_over_all_trials(fixtures_dir):
    pool = io.load_pool(fixtures_dir / "shape" / "green_triangles_pool.jsonl", "shape")
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    assert len(curve.trials) == 64
    i = next(i for i, h in enumerate(pool) if h.parsed)
    per_trial = np.hstack([truth_matrix(pool, [t]) for t in curve.trials])
    np.testing.assert_array_equal(per_trial, truth_matrix(pool, curve.trials))
    probs = np.concatenate([response_probs(pool[i], [t], 0.1, 0.5) for t in curve.trials])
    p_positive = 0.9 * truth_matrix(pool, curve.trials) + 0.1 * 0.5
    labels = np.array([t.label for t in curve.trials])
    assert probs.tolist() == pytest.approx(np.where(labels, p_positive[i], 1 - p_positive[i]), abs=1e-12)
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
    tie in exact arithmetic, and the log-likelihoods the number model
    weighs them by are bitwise equal: {1, 61, 62, 63} and
    {3, 61, 62, 63} on 1, 2, 3, and every group of random small
    extensions."""
    x = NumberExampleSet([1, 2, 3])
    pair = [
        make_hypothesis("one and the sixties", "in_set({1, 61, 62, 63}, x)", "number"),
        make_hypothesis("three and the sixties", "in_set({3, 61, 62, 63}, x)", "number"),
    ]
    a, b = logliks(pair, x, 0.02)
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
        loglik = logliks(pool, examples, float(rng.choice([0.02, 0.3])))
        groups = {}
        for h, ll in zip(pool, loglik):
            ext = h.program.extension
            groups.setdefault((len(ext), len(ext & set(examples.examples))), set()).add(ll)
        assert all(len(values) == 1 for values in groups.values()), groups

import numpy as np
import pytest

from nlconcepts.io import make_hypothesis
from nlconcepts.prior import (
    FEATURE_DIM,
    External,
    FeatureExtractor,
    MissingFeature,
    Tuned,
    Uniform,
    extract_features,
    prior_logweight,
)


def h(nl="the number is even", dsl="even(x)"):
    return make_hypothesis(nl, dsl, "number")


def test_features_deterministic_and_normalized():
    a = extract_features("the number is even")
    b = extract_features("the number is even")
    np.testing.assert_array_equal(a, b)
    assert a.shape == (FEATURE_DIM,)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_features_canonicalize_text():
    a = extract_features("The Number is EVEN.")
    b = extract_features("the number is even")
    np.testing.assert_array_equal(a, b)


def test_features_depend_on_seed_and_text():
    a = extract_features("the number is even")
    b = extract_features("the number is odd")
    c = extract_features("the number is even", seed=999)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bigrams_distinguish_word_order():
    a = extract_features("green triangle objects")
    b = extract_features("triangle green objects")
    assert not np.array_equal(a, b)


def test_empty_text_gives_zero_vector():
    assert np.linalg.norm(extract_features("")) == 0.0


def test_extractor_caching_and_dim():
    ext = FeatureExtractor(dim=32)
    v = ext("the number is even")
    assert v.shape == (32,)
    assert ext("the number is even") is v  # cached object


def test_extractor_matrix():
    ext = FeatureExtractor(dim=16)
    pool = [h(), h("the number is odd", "odd(x)")]
    m = ext.matrix(pool)
    assert m.shape == (2, 16)


def test_uniform_prior():
    assert prior_logweight(Uniform(), h()) == 0.0


def test_tuned_prior_is_linear_in_theta():
    ext = FeatureExtractor(dim=16)
    theta = np.arange(16, dtype=float)
    spec = Tuned(theta, ext)
    expected = float(theta @ ext("the number is even"))
    assert prior_logweight(spec, h()) == pytest.approx(expected)


def test_tuned_prior_dim_mismatch():
    with pytest.raises(ValueError):
        Tuned(np.zeros(8), FeatureExtractor(dim=16))


def test_external_prior():
    spec = External({"the number is even": -2.5})
    assert prior_logweight(spec, h()) == -2.5
    with pytest.raises(MissingFeature):
        prior_logweight(spec, h("the number is odd", "odd(x)"))

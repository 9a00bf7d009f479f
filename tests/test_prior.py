import numpy as np
import pytest

from nlconcepts.harness import ConfigError, ExperimentConfig, build_number_task
from nlconcepts.io import make_hypothesis
from nlconcepts.prior import (
    FEATURE_DIM,
    FeatureExtractor,
    MissingFeature,
    extract_features,
)
from nlconcepts.types import ModelParams, NumberExampleSet


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


def test_features_depend_on_text():
    a = extract_features("the number is even")
    b = extract_features("the number is odd")
    assert not np.array_equal(a, b)


def test_features_are_pinned():
    """The buckets and signs of a text's features, pinned: a saved theta
    is valid only under the hashing they come from (HASH_SEED)."""
    v = extract_features("the number is even", 64)
    # four words and three bigrams, each in its own bucket
    signs = {0: 1.0, 14: 1.0, 18: -1.0, 37: -1.0, 40: 1.0, 53: 1.0, 54: 1.0}
    assert np.flatnonzero(v).tolist() == sorted(signs)
    np.testing.assert_array_equal(v[sorted(signs)], [signs[k] * 0.3779644730092272 for k in sorted(signs)])


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


def compiled_prior(pool, params, **cfg):
    """The log prior of each hypothesis in a compiled number task, as
    the forward pass reads it: the base log-prior plus, under the tuned
    prior, the features times theta."""
    cfg = ExperimentConfig("number", **cfg)
    task = build_number_task(cfg, pool, NumberExampleSet([1]), [], FeatureExtractor(dim=cfg.feature_dim))
    if task.features is None:
        return task.base_logprior
    return task.base_logprior + task.features @ params.theta


def test_uniform_prior():
    pool = [h(), h("the number is odd", "odd(x)")]
    assert compiled_prior(pool, ModelParams()).tolist() == [0.0, 0.0]


def test_tuned_prior_is_linear_in_theta():
    ext = FeatureExtractor(dim=16)
    theta = np.arange(16, dtype=float)
    got = compiled_prior([h()], ModelParams(theta=theta), prior="tuned", feature_dim=16)
    expected = float(theta @ ext("the number is even"))
    assert got[0] == pytest.approx(expected)


def test_tuned_prior_dim_mismatch():
    with pytest.raises(ConfigError, match="8 entries.*feature_dim = 16"):
        ExperimentConfig("number", prior="tuned", feature_dim=16, params=ModelParams(theta=np.zeros(8)))


def test_external_prior(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"nl": "The number is EVEN.", "logp": -2.5}\n')
    cfg = dict(prior="external", scores_path=str(path))
    assert compiled_prior([h()], ModelParams(), **cfg).tolist() == [-2.5]
    with pytest.raises(MissingFeature, match="the number is odd"):
        compiled_prior([h(), h("the number is odd", "odd(x)")], ModelParams(), **cfg)

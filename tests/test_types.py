import random
import re
import sys
from dataclasses import replace

import pytest

from nlconcepts.types import (
    HumanNumberJudgment,
    Hypothesis,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    ShapeObject,
    Trial,
    Unparsed,
    canonicalize_nl,
    normalize_rating,
    shape_universe,
)
from nlconcepts.io import make_hypothesis

import oracle


def test_canonicalize_nl():
    assert canonicalize_nl("  The Number   is EVEN. ") == "the number is even"
    assert canonicalize_nl("odd") == "odd"
    # idempotent
    s = canonicalize_nl("A   b  C.")
    assert canonicalize_nl(s) == s
    # only one trailing period is dropped
    assert canonicalize_nl("etc..") == "etc."


def test_canonicalize_nl_matches_the_regex_form():
    """str.split and the regex \\s agree on whitespace, so the split form
    equals the regex form on every whitespace code point and on fuzzed
    text."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = sorted(set(re.findall(r"\s", every)))
    assert spaces == [c for c in every if c.isspace()] and len(spaces) > 20
    for ch in spaces:
        for text in (f"a{ch}b", f"{ch}A.{ch}", f"x {ch}.", f"{ch * 3}Hi{ch}", ch):
            assert canonicalize_nl(text) == oracle.canonicalize_nl(text), repr(text)
    rng = random.Random(4)
    alphabet = spaces + list("aBc.. \u0130\u00df\u03a3")
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert canonicalize_nl(text) == oracle.canonicalize_nl(text), repr(text)


def test_hypothesis_key_and_parsed():
    h = make_hypothesis("The number is EVEN", "even(x)", "number")
    assert h.key == "the number is even"
    assert h.parsed
    bad = make_hypothesis("junk", "???", "number")
    assert not bad.parsed
    assert isinstance(bad.program, Unparsed)


def test_hypothesis_key_is_canonical_nl_after_replace():
    h = Hypothesis("  The Number  is EVEN. ", Unparsed("x"))
    assert h.key == canonicalize_nl(h.nl_text) == "the number is even"
    assert h.key is h.key  # computed once
    odd = replace(h, nl_text="The number is ODD.")
    assert odd.key == canonicalize_nl(odd.nl_text) == "the number is odd"
    assert h.key == "the number is even"
    # the cached key takes no part in equality or hashing
    assert h == Hypothesis("  The Number  is EVEN. ", Unparsed("x"))
    assert hash(h) == hash(Hypothesis("  The Number  is EVEN. ", Unparsed("x")))
    assert "key" not in repr(h)


def test_hypothesis_rejects_empty_text():
    with pytest.raises(ValueError):
        make_hypothesis("   . ", "even(x)", "number")


def test_number_example_set_validation():
    s = NumberExampleSet([16, 8, 2, 64])
    assert len(s) == 4
    with pytest.raises(ValueError):
        NumberExampleSet([])
    with pytest.raises(ValueError):
        NumberExampleSet([0])
    with pytest.raises(ValueError):
        NumberExampleSet([101])


def test_shape_object_validation_and_describe():
    o = ShapeObject("triangle", "green", 1)
    assert o.describe() == "small green triangle"
    with pytest.raises(ValueError):
        ShapeObject("hexagon", "green", 1)
    with pytest.raises(ValueError):
        ShapeObject("circle", "red", 1)
    with pytest.raises(ValueError):
        ShapeObject("circle", "blue", 4)


def test_shape_universe():
    objs = shape_universe()
    assert len(objs) == 27
    assert len(set(objs)) == 27


def test_trial_checks_its_batch():
    a = ShapeObject("triangle", "green", 1)
    b = ShapeObject("circle", "blue", 2)
    t = Trial([a, a, b], a, 1)
    assert (t.batch, t.test, t.label) == ((a, a, b), a, True)
    with pytest.raises(ValueError):
        Trial([a], b, True)  # test must occur in the batch
    with pytest.raises(ValueError):
        Trial([], a, True)


def test_normalize_rating():
    assert normalize_rating(1.0) == 0.0
    assert normalize_rating(7.0) == 1.0
    assert normalize_rating(4.0) == pytest.approx(0.5)


def test_judgment_validation():
    s = NumberExampleSet([2, 4])
    with pytest.raises(ValueError):
        HumanNumberJudgment(s, 0, 0.5)
    with pytest.raises(ValueError):
        HumanNumberJudgment(s, 10, 1.5)


def test_learning_curve_truncates_to_15_batches():
    a = ShapeObject("triangle", "green", 1)
    trial = Trial([a], a, True)
    batches = [[trial]] * 20
    rates = [0.9] * 20
    curve = LearningCurve("c", "rule", batches, rates)
    assert len(curve.batches) == 15
    assert len(curve.trials) == 15
    assert len(curve.human_positive_rate) == 15


def test_learning_curve_requires_rate_per_trial():
    a = ShapeObject("triangle", "green", 1)
    trial = Trial([a], a, True)
    with pytest.raises(ValueError):
        LearningCurve("c", "rule", [[trial, trial]], [0.5])


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0)
    with pytest.raises(ValueError):
        ModelParams(beta=-0.1)
    with pytest.raises(ValueError):
        ModelParams(temperature=0.0)

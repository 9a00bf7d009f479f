import json
import sys

import pytest

from nlconcepts import io
from nlconcepts.types import (
    HumanNumberJudgment,
    LearningCurve,
    NumberExampleSet,
    ShapeObject,
    Trial,
)


def test_pool_round_trip(tmp_path):
    path = tmp_path / "pool.jsonl"
    pool = [
        io.make_hypothesis("the number is even", "even(x)", "number", logq=-1.5),
        io.make_hypothesis("broken", "???", "number", batch=3),
    ]
    io.save_pool(path, pool)
    loaded = io.load_pool(path, "number")
    assert len(loaded) == 2
    assert loaded[0].nl_text == "the number is even"
    assert loaded[0].proposal_logprob == -1.5
    assert loaded[0].parsed
    assert not loaded[1].parsed  # parse failure retained, not dropped
    assert loaded[1].source_batch == 3


def test_pool_load_parses_each_distinct_source_once(tmp_path, monkeypatch):
    """Rows with equal DSL share one program within a load, broken ones
    too; a second load parses afresh and shares nothing with the first."""
    path = tmp_path / "pool.jsonl"
    rows = [
        ("the number is even", "even(x)", 1),
        ("an even number", "even(x)", 2),
        ("broken", "???", None),
        ("also broken", "???", None),
        ("the number is odd", "odd(x)", 2),
        ("even", "even(x)", 3),
    ]
    path.write_text("".join(json.dumps({"nl": nl, "dsl": dsl, "batch": b}) + "\n" for nl, dsl, b in rows))
    parsed = []
    parse_concept = io.parse_concept
    monkeypatch.setattr(io, "parse_concept", lambda src, domain: parsed.append(src) or parse_concept(src, domain))
    first, second = io.load_pool(path, "number"), io.load_pool(path, "number")
    assert parsed == ["even(x)", "???", "odd(x)"] * 2
    for pool in (first, second):
        assert [h.nl_text for h in pool] == [nl for nl, _, _ in rows]
        assert [h.source_batch for h in pool] == [b for _, _, b in rows]
        assert pool[0].program is pool[1].program is pool[5].program
        assert pool[2].program is pool[3].program and not pool[2].parsed
        assert pool[4].program is not pool[0].program
        assert pool[0].program == io.make_hypothesis("x", "even(x)", "number").program
    assert not {id(h.program) for h in first} & {id(h.program) for h in second}


def test_pool_load_canonicalizes_each_rows_text(tmp_path):
    """A row's text and key are canonical after a load, whether the
    file's text was or not."""
    path = tmp_path / "pool.jsonl"
    texts = ["  The Number  is EVEN. ", "the number is even"]
    path.write_text("".join(json.dumps({"nl": nl, "dsl": "even(x)"}) + "\n" for nl in texts))
    pool = io.load_pool(path, "number")
    assert [(h.nl_text, h.key) for h in pool] == [("the number is even", "the number is even")] * 2
    assert pool[0] == pool[1]


def test_pool_load_skips_blank_lines(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"nl": "the number is even", "dsl": "even(x)"}\n\n')
    assert len(io.load_pool(path, "number")) == 1


def test_judgments_round_trip(tmp_path):
    path = tmp_path / "j.csv"
    judgments = [
        HumanNumberJudgment(NumberExampleSet([16, 8, 2, 64]), 32, 0.75, "s1"),
        HumanNumberJudgment(NumberExampleSet([3, 9]), 27, 0.5, "s2"),
    ]
    io.save_number_judgments(path, judgments)
    loaded = io.load_number_judgments(path)
    assert loaded[0].set_id == "s1"
    assert loaded[0].example_set.examples == (16, 8, 2, 64)
    assert loaded[0].test_number == 32
    # written on the raw 1-7 scale, normalized back on load
    assert loaded[0].mean_rating == pytest.approx(0.75, abs=1e-6)
    assert loaded[1].mean_rating == pytest.approx(0.5, abs=1e-6)


def test_learning_curve_round_trip(tmp_path):
    path = tmp_path / "curve.json"
    a = ShapeObject("triangle", "green", 1)
    b = ShapeObject("circle", "blue", 2)
    batches = [[Trial([a, b], a, True), Trial([a, b], b, False)]]
    curve = LearningCurve("c1", "green things", batches, [0.9, 0.1])
    io.save_learning_curve(path, curve)
    loaded = io.load_learning_curve(path)
    assert loaded.concept_id == "c1"
    assert loaded.ground_truth_nl == "green things"
    assert loaded.trials == curve.trials
    assert loaded.human_positive_rate == (0.9, 0.1)
    # every trial in a batch shares the full batch as context
    assert loaded.batches[0][0].batch == (a, b)
    assert loaded.batches[0][1].batch == (a, b)


def test_score_file_round_trip(tmp_path):
    path = tmp_path / "scores.jsonl"
    io.save_score_file(path, {"the number is even": -2.5})
    assert io.load_score_file(path) == {"the number is even": -2.5}


@pytest.mark.parametrize(
    "row,fault",
    [
        ('{"logp": -1.0}', "no string 'nl'"),
        ('["the number is odd", -1.25]', "not a JSON object"),
        ('{"nl": "the number is odd"}', "no 'logp'"),
        ('{"nl": "the number is odd", "logp": "-1.0"}', "'logp' is not a finite number: '-1.0'"),
        ('{"nl": "the number is odd", "logp": null}', "'logp' is not a finite number: None"),
        ('{"nl": "the number is odd", "logp": true}', "'logp' is not a finite number: True"),
        ('{"nl": "the number is odd", "logp": NaN}', "'logp' is not a finite number: nan"),
        ('{"nl": "the number is odd", "logp": Infinity}', "'logp' is not a finite number: inf"),
        ('{"nl": "the number is odd", "logp": -Infinity}', "'logp' is not a finite number: -inf"),
        ('{"nl": "the number is odd", "logp":', "not a JSON object"),
    ],
)
def test_score_file_row_without_a_finite_logp_is_refused(tmp_path, row, fault):
    """A row that is not {"nl": str, "logp": finite number} is an
    InputFileError naming the file and the line (blank lines count)."""
    path = tmp_path / "scores.jsonl"
    path.write_text('{"nl": "the number is even", "logp": -2.5}\n\n' + row + "\n")
    with pytest.raises(io.InputFileError) as err:
        io.load_score_file(path)
    assert str(err.value) == f"score file {path}, line 3: {fault}"


@pytest.mark.parametrize(
    "row,fault",
    [
        ('{"nl": "odd", "dsl": "odd(x)", "logq": NaN}', "'logq' is not a finite number: nan"),
        ('{"nl": "odd", "dsl": "odd(x)", "logq": Infinity}', "'logq' is not a finite number: inf"),
        ('{"nl": "odd", "dsl": "odd(x)", "logq": -Infinity}', "'logq' is not a finite number: -inf"),
        ('{"nl": "odd", "dsl": "odd(x)", "logq": "-1.0"}', "'logq' is not a finite number: '-1.0'"),
        ('{"nl": "odd", "dsl": "odd(x)", "logq": true}', "'logq' is not a finite number: True"),
        ('{"nl": "odd", "dsl": "odd(x)", "batch": "2"}', "'batch' is not an integer: '2'"),
        ('{"nl": "odd", "dsl": "odd(x)", "batch": true}', "'batch' is not an integer: True"),
        ('{"nl": "odd", "dsl": "odd(x)", "batch": 2.0}', "'batch' is not an integer: 2.0"),
        ('{"dsl": "odd(x)"}', "no string 'nl'"),
        ('{"nl": 5, "dsl": "odd(x)"}', "no string 'nl'"),
        ('{"nl": "odd", "dsl": 5}', "'dsl' is not a string: 5"),
        ('{"nl": "odd", "dsl": null}', "'dsl' is not a string: None"),
        ('["odd", "odd(x)"]', "not a JSON object"),
        ('{"nl": "odd", "dsl":', "not a JSON object"),
    ],
)
def test_malformed_pool_row_is_refused(tmp_path, row, fault):
    """A pool row that is not {"nl": str, "dsl": str, "logq": finite
    number|null, "batch": int|null} is an InputFileError naming the file
    and the line (blank lines count); a NaN logq once loaded and broke
    importance weighting downstream."""
    path = tmp_path / "pool.jsonl"
    path.write_text('{"nl": "even", "dsl": "even(x)", "logq": -1, "batch": 2}\n\n' + row + "\n")
    with pytest.raises(io.InputFileError) as err:
        io.load_pool(path, "number")
    assert str(err.value) == f"pool file {path}, line 3: {fault}"


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_too_large_for_a_float_is_refused_by_both_readers(tmp_path, sign):
    """A 400-digit integer once passed both readers' type checks: the
    score file then failed with a bare OverflowError, and the pool under
    importance weighting."""
    huge = sign + "1" + "0" * 400
    pool = tmp_path / "pool.jsonl"
    pool.write_text('{"nl": "even", "dsl": "even(x)", "logq": -1}\n{"nl": "odd", "dsl": "odd(x)", "logq": %s}\n' % huge)
    with pytest.raises(io.InputFileError) as err:
        io.load_pool(pool, "number")
    assert str(err.value) == f"pool file {pool}, line 2: 'logq' is an integer too large for a float"
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"nl": "even", "logp": -1}\n{"nl": "odd", "logp": %s}\n' % huge)
    with pytest.raises(io.InputFileError) as err:
        io.load_score_file(scores)
    assert str(err.value) == f"score file {scores}, line 2: 'logp' is an integer too large for a float"


@pytest.mark.parametrize("value", [10**300, -(10**300)])
def test_an_integer_within_float_range_loads_in_both_readers(tmp_path, value):
    pool = tmp_path / "pool.jsonl"
    pool.write_text(json.dumps({"nl": "odd", "dsl": "odd(x)", "logq": value}) + "\n")
    assert io.load_pool(pool, "number")[0].proposal_logprob == value
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"nl": "odd", "logp": value}) + "\n")
    assert io.load_score_file(scores) == {"odd": float(value)}


def test_pool_row_may_leave_out_logq_batch_and_dsl(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"nl": "even", "logq": null, "batch": null}\n{"nl": "odd", "dsl": "odd(x)", "logq": -2}\n')
    first, second = io.load_pool(path, "number")
    assert (first.proposal_logprob, first.source_batch, first.parsed) == (None, None, False)
    assert first.program.source == ""
    assert (second.proposal_logprob, second.source_batch, second.parsed) == (-2, None, True)


@pytest.mark.parametrize("domain", ["number", "shape"])
def test_pool_load_marks_a_too_deeply_nested_rule_unparsed(tmp_path, domain):
    """A source nested past the recursion limit is a parse failure, not
    a crash of the load."""
    deep = "(" * 400 + "x" + ")" * 400 + " < 3"
    path = tmp_path / "pool.jsonl"
    path.write_text(json.dumps({"nl": "deep", "dsl": deep}) + "\n")
    (h,) = io.load_pool(path, domain)
    assert not h.parsed
    assert h.program.source == deep


@pytest.mark.parametrize(
    "row,fault",
    [
        ("set01,2;4;8,11,high", "'mean_rating' is not a finite number: 'high'"),
        ("set01,2;4;8,11,nan", "'mean_rating' is not a finite number: nan"),
        ("set01,2;4;8,11,inf", "'mean_rating' is not a finite number: inf"),
        ("set01,2;4;8,11,99", "'mean_rating' must lie in [1, 7], not 99.0"),
        ("set01,2;4;8,11,0.5", "'mean_rating' must lie in [1, 7], not 0.5"),
        ("set01,2;4;8,11", "no 'mean_rating'"),
        ("set01,2;x;8,11,3.5", "'examples' is not an integer: 'x'"),
        ("set01,2;4;101,11,3.5", "examples must lie in 1..100"),
        ("set01,,11,3.5", "'examples' is not an integer: ''"),
        ("set01,2;4;8,5.5,3.5", "'test_number' is not an integer: '5.5'"),
        ("set01,2;4;8,0,3.5", "test number must lie in 1..100"),
    ],
)
def test_judgments_row_the_model_cannot_use_is_refused(tmp_path, row, fault):
    """A judgments row with a column missing, examples or a test number
    that are not integers in 1..100, or a rating that is not a finite
    number in [1, 7] on the file's own scale is an InputFileError naming
    the file and the line; a rating of "high" once failed as float()'s
    bare message, and one of 99 spoke of the normalized [0, 1] scale."""
    path = tmp_path / "judgments.csv"
    path.write_text("set_id,examples,test_number,mean_rating\nset01,2;4;8,16,6.5\n" + row + "\n")
    with pytest.raises(io.InputFileError) as err:
        io.load_number_judgments(path)
    assert str(err.value) == f"judgments file {path}, line 3: {fault}"


@pytest.mark.parametrize("text", ["", "set_id,examples,test_number,mean_rating\n"])
def test_judgments_file_with_no_row_is_refused(tmp_path, text):
    """An empty judgments CSV, or one that holds only its header, is an
    InputFileError naming the file; a fit on one once failed later, as
    "no judgments to model", naming no file."""
    path = tmp_path / "judgments.csv"
    path.write_text(text)
    with pytest.raises(io.InputFileError) as err:
        io.load_number_judgments(path)
    assert str(err.value) == f"judgments file {path}, top level: no judgments"


def test_judgments_file_without_a_rating_column_is_refused(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text("set_id,examples,test_number\nset01,2;4;8,16\n")
    with pytest.raises(io.InputFileError) as err:
        io.load_number_judgments(path)
    assert str(err.value) == f"judgments file {path}, line 2: no 'mean_rating'"


def _curve_raw(n_batches=2):
    """The JSON object of a curve of `n_batches` batches, each a positive
    green triangle and a negative blue circle."""
    batch = [
        {"shape": "triangle", "color": "green", "size": 1, "label": 1},
        {"shape": "circle", "color": "blue", "size": 2, "label": 0},
    ]
    return {
        "concept_id": "c1",
        "ground_truth_nl": "green things",
        "batches": [[dict(o) for o in batch] for _ in range(n_batches)],
        "human_positive_rate": [0.9, 0.1] * n_batches,
    }


def _set(path, value):
    """A change to a curve's JSON object: `value` at the key path `path`,
    or the key deleted where `value` is `...`."""

    def change(raw):
        *parents, last = path
        for key in parents:
            raw = raw[key]
        if value is ...:
            del raw[last]
        else:
            raw[last] = value

    return change


@pytest.mark.parametrize(
    "change,where,fault",
    [
        (_set(("batches", 1, 0, "color"), "purple"), "trial 3", "bad color: 'purple'"),
        (_set(("batches", 0, 1, "size"), 4), "trial 2", "bad size: 4"),
        (_set(("batches", 1, 1, "size"), ...), "trial 4", "no 'size'"),
        (_set(("batches", 1, 1, "label"), 7), "trial 4", "'label' must be 0 or 1, not 7"),
        (_set(("batches", 0, 0, "label"), True), "trial 1", "'label' is not an integer: True"),
        (_set(("batches", 0, 0), "triangle"), "trial 1", "not a JSON object"),
        (_set(("batches", 1), []), "batch 2", "not a list of 1..5 objects"),
        (_set(("human_positive_rate", 0), 1.7), "trial 1", "human rate must lie in [0, 1], not 1.7"),
        (_set(("human_positive_rate", 2), -0.1), "trial 3", "human rate must lie in [0, 1], not -0.1"),
        (_set(("human_positive_rate", 3), float("nan")), "trial 4", "human rate is not a finite number: nan"),
        (_set(("human_positive_rate", 3), "0.5"), "trial 4", "human rate is not a finite number: '0.5'"),
        (_set(("human_positive_rate",), [0.5]), "top level", "1 human rates for 4 trials"),
        (_set(("human_positive_rate",), [0.5] * 7), "top level", "7 human rates for 4 trials"),
        (_set(("human_positive_rate",), ...), "top level", "no list 'human_positive_rate'"),
        (_set(("ground_truth_nl",), ...), "top level", "no string 'ground_truth_nl'"),
        (_set(("concept_id",), 7), "top level", "no string 'concept_id'"),
        (_set(("batches",), {}), "top level", "no list 'batches'"),
    ],
)
def test_curve_the_model_cannot_use_is_refused(tmp_path, change, where, fault):
    """A curve with a key missing, an object `types` refuses, a label
    that is not 0 or 1, or a human rate that is not a finite number in
    [0, 1], one per trial, is an InputFileError naming the file and the
    batch or trial; a rate of 1.7 or a label of 7 once loaded without a
    word, and extra rates were cut off."""
    raw = _curve_raw()
    change(raw)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(io.InputFileError) as err:
        io.load_learning_curve(path)
    assert str(err.value) == f"curve file {path}, {where}: {fault}"


@pytest.mark.parametrize("text", ["", "[1, 2]", '{"concept_id": "c1",'])
def test_curve_file_that_is_not_a_json_object_is_refused(tmp_path, text):
    path = tmp_path / "curve.json"
    path.write_text(text)
    with pytest.raises(io.InputFileError) as err:
        io.load_learning_curve(path)
    assert str(err.value) == f"curve file {path}, top level: not a JSON object"


def test_curve_load_keeps_15_batches_after_checking_every_rate(tmp_path):
    """Batches past the 15th are dropped, but only after every trial of
    the file, and its rate, passed the checks."""
    raw = _curve_raw(16)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(raw))
    curve = io.load_learning_curve(path)
    assert len(curve.batches) == LearningCurve.MAX_BATCHES == 15
    assert curve.human_positive_rate == (0.9, 0.1) * 15
    raw["human_positive_rate"][-1] = 2.0
    path.write_text(json.dumps(raw))
    with pytest.raises(io.InputFileError, match="trial 32: human rate must lie"):
        io.load_learning_curve(path)


_LONG = "1" + "0" * 5000  # an integer of 5001 digits, past int()'s default limit of 4300


@pytest.mark.parametrize(
    "kind,text,where",
    [
        ("pool", '{"nl": "even", "dsl": "even(x)"}\n{"nl": "odd", "dsl": "odd(x)", "logq": -%s}\n' % _LONG, "line 2"),
        ("score", '{"nl": "even", "logp": -1}\n{"nl": "odd", "logp": -%s}\n' % _LONG, "line 2"),
        ("curve", json.dumps(_curve_raw()).replace("0.9", _LONG, 1), "top level"),
        ("judgments", f"{','.join(io.JUDGMENT_COLUMNS)}\na,2;4,6,5\nb,2;{_LONG},6,5\n", "line 3"),
        ("judgments", f"{','.join(io.JUDGMENT_COLUMNS)}\na,2;4,{_LONG},5\n", "line 2"),
    ],
    ids=["pool", "score", "curve", "judgments-examples", "judgments-test_number"],
)
def test_an_integer_past_the_digit_limit_is_refused_as_such(tmp_path, kind, text, where):
    """An integer of more digits than int() converts, in JSON or a
    judgments cell, is named as such, with the file and the line or top
    level; json's refusal of it was once reported as "not a JSON
    object", and a judgments cell's as the whole cell."""
    load = {
        "pool": lambda path: io.load_pool(path, "number"),
        "score": io.load_score_file,
        "curve": io.load_learning_curve,
        "judgments": io.load_number_judgments,
    }
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    with pytest.raises(io.InputFileError) as err:
        load[kind](path)
    assert str(err.value) == f"{kind} file {path}, {where}: an integer of more than {sys.get_int_max_str_digits()} digits"

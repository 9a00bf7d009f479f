import itertools
import random
import tracemalloc

import numpy as np
import pytest

from nlconcepts.dsl import (
    DslSyntaxError,
    eval_shape,
    format_concept,
    parse_concept,
)
from nlconcepts.dsl import shape as shape_dsl
from nlconcepts.dsl.generate import random_shape_expr
from nlconcepts.dsl.shape import (
    Accessor,
    BoolLit,
    BoolOp,
    Cmp,
    Const,
    Count,
    Not,
    Quant,
    VarRef,
    _eval_bool,
    encode_trials,
    format_shape_concept,
    parse_shape_concept,
    truth_values,
)
from nlconcepts.harness import ExperimentConfig, build_shape_task
from nlconcepts.io import make_hypothesis
from nlconcepts.likelihood import truth_matrix
from nlconcepts.posterior import dedup_pool
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import ShapeObject, Trial, shape_universe

from conftest import synthetic_shape_curve, synthetic_shape_pool


def ev(src, test, batch):
    return eval_shape(parse_concept(src, "shape").expr, test, batch)


T = ShapeObject("triangle", "green", 1)
C = ShapeObject("circle", "blue", 2)
R = ShapeObject("rectangle", "yellow", 3)


def test_accessors_and_constants():
    assert ev("this.color == green", T, [T, C])
    assert not ev("this.color == green", C, [T, C])
    assert ev("this.size == small", T, [T])
    assert ev("this.size < 3", C, [C])
    assert ev("this.shape != circle", R, [R])


def test_others_excludes_one_occurrence_of_this():
    assert not ev("exists(o in others, o.color == this.color)", T, [T, C])
    assert ev("exists(o in others, o.color == this.color)", T, [T, T, C])
    # `all` includes this, so the same-color test is trivially true
    assert ev("exists(o in all, o.color == this.color)", T, [T, C])


def test_empty_others_quantifier_conventions():
    # vacuous forall is true, empty exists is false
    assert ev("forall(o in others, o.color == green)", T, [T])
    assert not ev("exists(o in others, o.color == this.color)", T, [T])


def test_count_and_feature_iteration():
    batch = [T, C, R, ShapeObject("circle", "green", 1)]
    assert ev("count(o in all, o.color == green) == 2", T, batch)
    assert ev("count(o in others, o.shape == circle) == 2", T, batch)
    assert ev("exists(c in colors, count(o in all, o.color == c) == 2)", T, batch)
    assert ev("forall(s in sizes, count(o in all, o.size == s) >= 1)", T, batch)


def test_variable_shadowing():
    src = "exists(o in others, exists(o in all, o.size == 1) and o.size == 2)"
    assert ev(src, T, [T, C])  # inner o rebinds, outer o is the circle


def test_quantifier_exit_restores_shadowed_binding():
    # the inner quantifier stops at the first decisive object; the outer
    # `o` must be rebound afterwards, not left at the inner stopping point
    assert ev("exists(o in others, exists(o in all, o.color == green) and o.size == 3)", C, [T, C, R])
    assert ev(
        "exists(o in others, not forall(o in all, o.shape == triangle) and o.shape == rectangle)",
        C,
        [T, C, R],
    )
    assert not ev("forall(o in others, exists(o in all, o.size == 2) and o.size == 1)", C, [T, C, R])
    context = {"this": C, "__others__": (T, R), "__all__": (T, C, R), "o": R}
    expr = parse_shape_concept("forall(o in all, o.color == yellow)")
    assert not _eval_bool(expr, context)
    assert context["o"] is R
    del context["o"]
    assert _eval_bool(parse_shape_concept("exists(o in all, o.size == 1)"), context)
    assert "o" not in context


def test_count_inside_quantifier_matches_oracle():
    # count over `all` inside a quantifier over `others`, against a
    # direct Python reading of the rule on every small batch
    src = "forall(o in others, count(p in all, p.size > o.size) <= count(p in all, p.size > this.size))"
    expr = parse_concept(src, "shape").expr
    n_checked = 0
    for batch in itertools.chain(_batches(2), _batches(5, limit=300, seed=4)):
        for test in set(batch):
            others = list(batch)
            others.remove(test)
            want = all(
                sum(p.size > o.size for p in batch) <= sum(p.size > test.size for p in batch)
                for o in others
            )
            assert eval_shape(expr, test, batch) == want, (test, batch)
            n_checked += 1
    assert n_checked > 100


def test_type_errors_at_parse_time():
    bad = [
        "this.color == triangle",  # color vs shape
        "this.color < blue",  # colors are not ordered
        "this.shape >= circle",
        "this == this",  # objects are not comparable
        "this.size == green",
        "exists(q in nowhere, q.size == 1)",  # unknown set
        "o.color == green",  # unbound variable
        "forall(all in others, true)",  # reserved word as variable
        "this.weight == 3",  # unknown field
    ]
    for src in bad:
        with pytest.raises(DslSyntaxError):
            parse_shape_concept(src)


def _size_is(var, n):
    return Cmp("==", Accessor(var, "size"), Const("int", n))


PARSES = [
    ("true or false and not true", BoolOp("or", BoolLit(True), BoolOp("and", BoolLit(False), Not(BoolLit(True))))),
    # an inner binder shadows the outer one in its body only
    (
        "exists(o in others, exists(o in all, o.size == 1) and o.size == 2)",
        Quant("exists", "o", "others", BoolOp("and", Quant("exists", "o", "all", _size_is("o", 1)), _size_is("o", 2))),
    ),
    (
        "exists(this in colors, this == green) and this.size == 1",
        BoolOp(
            "and",
            Quant("exists", "this", "colors", Cmp("==", VarRef("this", "color"), Const("color", "green"))),
            _size_is("this", 1),
        ),
    ),
    (
        "forall(o in others, count(p in all, p.size > o.size) <= 2)",
        Quant(
            "forall",
            "o",
            "others",
            Cmp("<=", Count("p", "all", Cmp(">", Accessor("p", "size"), Accessor("o", "size"))), Const("int", 2)),
        ),
    ),
]


@pytest.mark.parametrize("src,want", PARSES)
def test_parse_pins_precedence_and_binders(src, want):
    assert parse_shape_concept(src) == want


PARSE_ERRORS = [
    ("this.size == 1 this", "trailing input 'this'", 14),
    # comparisons do not chain, and a parenthesized rule is not a value
    ("this.size < 2 < 3", "trailing input '<'", 13),
    ("(this.size == 1) == true", "trailing input '=='", 16),
    ("forall(all in others, true)", "'all' cannot be a variable name", 7),
    ("exists(q in nowhere, q.size == 1)", "unknown set 'nowhere'", 11),
    ("exists(o in colors, o.size == 1)", "'o' is not an object variable", 22),
    ("exists(o in all, o.size == 1) and o.size == 2", "unbound variable 'o'", 33),
    ("this.color == 3", "cannot compare color with int", 10),
    ("this.color < blue", "color values support == and != only", 10),
    ("(this.size == 1", "expected ')', found None", 15),
    ("forall o in all, true", "expected '(', found 'o'", 6),
    ("exists(1 in all, true)", "expected 'name', found 1", 7),
    # % is read as mod, and named so
    ("exists(% in all, true)", "expected 'name', found 'mod'", 7),
    ("exists(o on all, true)", "expected 'in', found 'on'", 8),
    ("exists(o in 1, true)", "expected 'name', found 1", 11),
    ("exists(o in all true)", "expected ',', found 'true'", 15),
    ("exists(o in all, true", "expected ')', found None", 21),
    ("this.size", "expected a comparison operator, found None", 9),
    ("this.size % 2", "expected a comparison operator, found 'mod'", 9),
    ("this.size == )", "unexpected token ')'", 12),
    ("this == this", "expected '.', found '=='", 4),
    ("this.1 == 1", "expected 'name', found 1", 5),
    ("this.weight == 3", "unknown field 'weight'", 5),
]


@pytest.mark.parametrize("src,message,pos", PARSE_ERRORS)
def test_parse_errors_pin_message_and_position(src, message, pos):
    with pytest.raises(DslSyntaxError) as err:
        parse_shape_concept(src)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


def test_format_round_trip_fixed():
    cases = [
        "this.color == green and this.shape == triangle",
        "exists(o in others, o.color == this.color)",
        "forall(o in all, this.size >= o.size)",
        "not (this.color == blue or this.size == 1)",
        "count(o in others, o.shape == circle) == 2",
        "forall(c in colors, count(o in all, o.color == this.color) >= count(o in all, o.color == c))",
    ]
    for src in cases:
        p = parse_concept(src, "shape")
        text = format_concept(p)
        p2 = parse_concept(text, "shape")
        assert format_concept(p2) == text


def _batches(max_size, limit=None, seed=None):
    universe = shape_universe()
    if seed is None:
        for size in range(1, max_size + 1):
            yield from itertools.combinations_with_replacement(universe, size)
    else:
        rng = random.Random(seed)
        for _ in range(limit):
            size = rng.choice([4, 5])
            yield tuple(rng.choices(universe, k=size))


# The four concepts with independent brute-force checkers.
def _oracle_green_triangle(test, batch):
    return test.color == "green" and test.shape == "triangle"


def _oracle_majority_color(test, batch):
    counts = {c: sum(1 for o in batch if o.color == c) for c in ("green", "yellow", "blue")}
    return counts[test.color] == max(counts.values())


def _oracle_minority_color(test, batch):
    counts = {c: sum(1 for o in batch if o.color == c) for c in ("green", "yellow", "blue")}
    present = [v for v in counts.values() if v > 0]
    return counts[test.color] == min(present)


def _oracle_largest_blue(test, batch):
    if test.color != "blue":
        return False
    blues = [o.size for o in batch if o.color == "blue"]
    return test.size >= max(blues)


ORACLES = [
    ("this.color == green and this.shape == triangle", _oracle_green_triangle),
    (
        "forall(c in colors, count(o in all, o.color == this.color) >= count(o in all, o.color == c))",
        _oracle_majority_color,
    ),
    (
        "forall(c in colors, count(o in all, o.color == c) == 0 or "
        "count(o in all, o.color == this.color) <= count(o in all, o.color == c))",
        _oracle_minority_color,
    ),
    (
        "this.color == blue and forall(o in all, this.size >= o.size or o.color != blue)",
        _oracle_largest_blue,
    ),
]


@pytest.mark.parametrize("src,oracle", ORACLES, ids=["green_tri", "majority", "minority", "largest_blue"])
def test_oracle_equivalence_small_batches(src, oracle):
    expr = parse_concept(src, "shape").expr
    for batch in _batches(2):
        for test in set(batch):
            assert eval_shape(expr, test, batch) == oracle(test, batch), (test, batch)


def test_fuzzed_round_trip_and_totality():
    from nlconcepts.dsl import ConceptProgram

    rng = random.Random(11)
    batch = (T, C, R)
    for _ in range(200):
        expr = random_shape_expr(rng)
        text = format_concept(ConceptProgram("shape", expr))
        reparsed = parse_concept(text, "shape")
        assert format_concept(reparsed) == text, text
        for test in batch:
            a = eval_shape(expr, test, batch)
            b = eval_shape(reparsed.expr, test, batch)
            assert a == b, text


# ---------------------------------------------------------------------------
# Compiled rules against the interpreter


def _fuzzed_trials(n, seed):
    """n trials on random batches of 1-5 objects, repeats allowed."""
    rng = random.Random(seed)
    universe = shape_universe()
    trials = []
    for _ in range(n):
        batch = rng.choices(universe, k=rng.randint(1, 5))
        trials.append(Trial(batch, rng.choice(batch), rng.random() < 0.5))
    return trials


def _small_batch_trials():
    """Every test object of every batch of up to 2 objects, plus batches
    holding copies of the test object."""
    trials = [Trial(b, t, True) for b in _batches(2) for t in set(b)]
    trials += [Trial((T, T, C), T, True), Trial((C, T, T, T), T, True), Trial((R, R, R, R, R), R, True)]
    return trials


def _assert_array_eval_matches(expr, trials, arrays=None):
    got = truth_values(expr, encode_trials(trials) if arrays is None else arrays)
    want = [eval_shape(expr, t.test, t.batch) for t in trials]
    assert got.dtype == bool and got.shape == (len(trials),)
    assert got.tolist() == want, format_shape_concept(expr)


def test_compiled_matches_interpreter_on_fuzzed_rules():
    trials = _fuzzed_trials(100, seed=6)
    arrays = encode_trials(trials)
    rng = random.Random(5)
    for _ in range(1000):
        _assert_array_eval_matches(random_shape_expr(rng, rng.randint(0, 4)), trials, arrays)


EDGE_CASES = [
    # copies of `this`: `others` drops one occurrence only
    "exists(o in others, o.color == this.color and o.shape == this.shape and o.size == this.size)",
    "count(o in others, o.shape == this.shape) < count(o in all, o.shape == this.shape)",
    # a 1-object batch has empty `others`
    "forall(o in others, false)",
    "exists(o in others, true)",
    "count(o in others, true) == 0",
    # shadowed `this`, rebound to an object and to a feature
    "exists(this in others, this.color == blue) and this.size == 1",
    "forall(this in colors, count(o in all, o.color == this) <= 2)",
    "exists(o in others, exists(o in all, o.size == 1) and o.size == 2)",
    # count inside a quantifier
    "forall(o in others, count(p in all, p.size > o.size) <= count(p in all, p.size > this.size))",
    "exists(c in colors, count(o in all, o.color == c) == 2)",
    # binders that never mention their variable, and constant comparisons
    "forall(s in sizes, true) and exists(o in all, 1 < 2)",
    "count(s in shapes, this.size == large) >= 3",
    # five binders deep
    "exists(a in all, forall(b in others, exists(c in colors, count(d in all,"
    " exists(e in sizes, d.size == e and d.color == c and a.size >= b.size)) >= 1)))",
]


@pytest.mark.parametrize("src", EDGE_CASES)
def test_compiled_matches_interpreter_on_edge_cases(src):
    _assert_array_eval_matches(parse_shape_concept(src), _small_batch_trials())


@pytest.mark.parametrize("domain", ["colors", "shapes", "sizes"])
def test_compiled_matches_interpreter_under_feature_set_binders(domain):
    """forall, exists and count over a feature set, around generated
    bodies, at the top and under an object binder. The quantifiers
    reduce their body with no mask, so bodies that never mention the
    bound variable, and constant ones, must agree too; count keeps its
    mask, which a body constant in the variable needs."""
    trials = _fuzzed_trials(60, seed=12)
    arrays = encode_trials(trials)
    rng = random.Random(13)
    var, kind = domain[0], shape_dsl.FEATURE_SETS[domain]
    constant = [BoolLit(True), BoolLit(False), parse_shape_concept("1 < 2"), parse_shape_concept("not 2 <= 1")]
    for outer in (None, "o"):
        unbound = {"this": "object"} if outer is None else {"this": "object", outer: "object"}
        bodies = constant + [random_shape_expr(rng, rng.randint(0, 2), {**unbound, var: kind}) for _ in range(40)]
        bodies += [random_shape_expr(rng, rng.randint(0, 2), unbound) for _ in range(20)]
        for body in bodies:
            for rule in (
                Quant("forall", var, domain, body),
                Quant("exists", var, domain, body),
                Cmp(rng.choice(["==", ">=", "<"]), Count(var, domain, body), Const("int", rng.randint(0, 3))),
            ):
                if outer is not None:
                    rule = Quant(rng.choice(["forall", "exists"]), outer, rng.choice(["all", "others"]), rule)
                _assert_array_eval_matches(rule, trials, arrays)


def test_compiled_matches_interpreter_on_integers_beyond_int64():
    """Integer literals are compared as Python ints, as eval_shape
    compares them, whatever their size."""
    rule = "this.size < 99999999999999999999999 and count(o in all, true) != 18446744073709551616"
    _assert_array_eval_matches(parse_shape_concept(rule), _small_batch_trials())


DEEP_RULE = (
    "exists(a in others, forall(b in all, exists(c in all, forall(d in all,"
    " exists(e in all, exists(f in all, f.color == a.color and e.size >= d.size or c.shape == b.shape))))))"
)


def test_deep_rule_is_evaluated_in_chunks_within_the_cell_budget():
    """Six object binders hold 5^6 cells per trial; 400 trials at once
    would need a 6.25 MB bool array, so the chunks must stay well below."""
    trials = _fuzzed_trials(400, seed=3)
    assert len(trials) * 5**6 > 5 * shape_dsl.CELL_BUDGET
    expr = parse_shape_concept(DEEP_RULE)
    arrays = encode_trials(trials)
    tracemalloc.start()
    try:
        got = truth_values(expr, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [eval_shape(expr, t.test, t.batch) for t in trials]
    assert 0 < got.sum() < len(trials)
    assert peak < 3 * shape_dsl.CELL_BUDGET  # bytes: a few bool arrays of a chunk


def test_chunked_evaluation_matches_interpreter(monkeypatch):
    # a budget of a few cells splits every rule into chunks of 1-2 trials
    monkeypatch.setattr(shape_dsl, "CELL_BUDGET", 10)
    trials = _fuzzed_trials(30, seed=8)
    arrays = encode_trials(trials)
    rng = random.Random(9)
    for _ in range(100):
        _assert_array_eval_matches(random_shape_expr(rng, 3), trials, arrays)


def test_build_shape_task_consist_matches_interpreter():
    pool, curve = synthetic_shape_pool(), synthetic_shape_curve()
    cfg = ExperimentConfig("shape")
    task = build_shape_task(cfg, pool, curve, FeatureExtractor(dim=cfg.feature_dim))
    unique, _ = dedup_pool(pool)
    want = np.array(
        [
            [float(h.parsed and eval_shape(h.program.expr, t.test, t.batch)) for t in curve.trials]
            for h in unique
        ]
    )
    # each rule's row is its class's row
    np.testing.assert_array_equal(task.consist[task.rule_class], want)
    unparsed = [i for i, h in enumerate(unique) if not h.parsed]
    assert len(unparsed) == 2 and not task.consist[task.rule_class[unparsed]].any()


@pytest.mark.parametrize("budget", [None, 10])
def test_truth_matrix_walks_a_rule_for_its_chunk_bound_only_when_it_chunks(budget, monkeypatch):
    """A build of a pool's truth matrix evaluates each rule over all
    trials at once, walking no rule for its chunk bound, while the
    budget allows; under a budget of a few cells, fewer than the trials,
    every rule is walked and split into chunks. Either way its rows
    equal the interpreter's."""
    if budget is not None:
        monkeypatch.setattr(shape_dsl, "CELL_BUDGET", budget)
    trials = _fuzzed_trials(40, seed=10)
    rng = random.Random(11)
    srcs = [format_shape_concept(random_shape_expr(rng, rng.randint(0, 3))) for _ in range(60)]
    pool = [make_hypothesis(f"rule {i}", src, "shape") for i, src in enumerate(srcs)]
    pool.append(make_hypothesis("garbled", "exists(o in", "shape"))
    walked = []
    real = shape_dsl._cells
    monkeypatch.setattr(shape_dsl, "_cells", lambda node: walked.append(node) or real(node))
    got = truth_matrix(pool, trials)
    roots = [h.program.expr for h in pool if h.parsed]
    assert [e for e in walked if any(e is r for r in roots)] == ([] if budget is None else roots)
    want = [[float(h.parsed and eval_shape(h.program.expr, t.test, t.batch)) for t in trials] for h in pool]
    assert got.tolist() == want

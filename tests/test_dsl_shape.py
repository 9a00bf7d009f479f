import itertools
import random

import pytest

from nlconcepts.dsl import (
    DslSyntaxError,
    eval_shape,
    format_concept,
    parse_concept,
)
from nlconcepts.dsl.generate import random_shape_expr
from nlconcepts.dsl.shape import _eval_bool, parse_shape_concept
from nlconcepts.types import ShapeObject, shape_universe


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

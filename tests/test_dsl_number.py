import json
import math
import pickle
import random
import re
import time

import numpy as np
import pytest

from nlconcepts.dsl import (
    DslSyntaxError,
    extension_values,
    format_concept,
    parse_concept,
)
from nlconcepts.propose import ReplayStore
from nlconcepts.dsl.generate import random_number_expr, random_shape_expr
from nlconcepts.dsl.number import (
    SAT,
    Arith,
    BoolLit,
    BoolOp,
    Cmp,
    InSet,
    MAX_DEPTH,
    Lit,
    Not,
    Pred,
    Var,
    _CMP_CANON,
    _is_name,
    _position,
    _tokenize,
    format_number_concept,
    parse_number_concept,
)
from nlconcepts.dsl.shape import format_shape_concept

import oracle
from oracle import eval_number, number_extension


def ext(src):
    return number_extension(parse_concept(src, "number").expr)


def test_basic_predicates():
    assert ext("even(x)") == frozenset(range(2, 101, 2))
    assert ext("odd(x)") == frozenset(range(1, 101, 2))
    assert ext("square(x)") == frozenset(i * i for i in range(1, 11))
    assert ext("cube(x)") == frozenset([1, 8, 27, 64])
    assert ext("multiple(10, x)") == frozenset(range(10, 101, 10))
    assert ext("between(30, 45, x)") == frozenset(range(30, 46))
    assert ext("ends_in(7, x)") == frozenset(range(7, 101, 10))
    assert ext("contains_digit(9, x)") == frozenset(
        n for n in range(1, 101) if "9" in str(n)
    )
    assert ext("in_set({3, 1, 4}, x)") == frozenset([1, 3, 4])


def test_prime_convention():
    # 1 is not prime
    primes = ext("prime(x)")
    assert 1 not in primes
    assert 2 in primes
    assert {2, 3, 5, 7, 11, 97}.issubset(primes)
    assert 91 not in primes  # 7 * 13


def const_row(src):
    """The truth of a rule that does not depend on x, from its row."""
    row = extension_values(parse_number_concept(src))
    assert row.all() or not row.any(), src
    return bool(row[0])


@pytest.mark.parametrize("k", [3, 10**8 + 7, 10**20 + 1, 10**200])
def test_square_and_cube_are_exact_on_every_integer(k):
    """k^2 and k^3 hold, their neighbours do not, at any size: a float
    root loses the low digits past 2^53 and overflows past 1e308."""
    for name, n in (("square", k**2), ("cube", k**3)):
        assert const_row(f"{name}({n})"), (name, k)
        assert not const_row(f"{name}({n - 1})"), (name, k)
        assert not const_row(f"{name}({n + 1})"), (name, k)


def primes_between(lo, hi):
    """The primes in lo..hi - 1: a sieve of the window by the primes up to sqrt(hi)."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        small[p * p :: p] = False
    window = np.ones(hi - lo, dtype=bool)
    for p in np.flatnonzero(small).tolist():
        window[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return {lo + i for i in np.flatnonzero(window).tolist() if lo + i >= 2}


def test_prime_is_exact_and_finishes_on_wide_values():
    """prime agrees with a sieve and rejects strong pseudoprimes, at a
    few modular powers per value: an 11-digit prime's row takes
    milliseconds, and a row of 15-digit values finishes."""
    start = time.perf_counter()
    assert const_row("prime(100000000003)")
    assert time.perf_counter() - start < 2
    assert const_row(f"prime({2**61 - 1})") and const_row(f"prime({2**89 - 1})")
    assert not const_row(f"prime({(2**61 - 1) * (2**31 - 1)})")
    # strong pseudoprimes to the first 7, 8, 9, 10, 11 and 12 prime bases
    for n in [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051, 318665857834031151167461]:
        assert not const_row(f"prime({n})"), n
    # against a sieve, on -5..19994 and on 1e14 - 100..1e14 - 1
    primes = primes_between(-5, 20000)
    for k in range(-6, 19900, 100):
        row = extension_values(parse_number_concept(f"prime(x + {k})" if k >= 0 else f"prime(x - {-k})"))
        assert set((np.flatnonzero(row) + 1 + k).tolist()) == primes & set(range(k + 1, k + 101)), k
    row = extension_values(parse_number_concept("prime((0 - x) mod 100000000000000)"))
    assert set((10**14 - 1 - np.flatnonzero(row)).tolist()) == primes_between(10**14 - 100, 10**14)


def test_power_convention():
    # power(b, x) includes b^0 = 1
    assert ext("power(2, x)") == frozenset([1, 2, 4, 8, 16, 32, 64])
    assert ext("power(3, x)") == frozenset([1, 3, 9, 27, 81])
    assert ext("power(10, x)") == frozenset([1, 10, 100])


def test_arithmetic_and_comparisons():
    assert ext("x < 10") == frozenset(range(1, 10))
    assert ext("x mod 7 == 0") == frozenset(range(7, 101, 7))
    assert ext("x ^ 2 < 50") == frozenset(range(1, 8))
    assert ext("(x + 1) mod 10 == 0") == frozenset(range(9, 101, 10))
    assert ext("2 * x == 50") == frozenset([25])


def test_chained_comparison_desugars_to_and():
    assert ext("10 < x < 20") == ext("10 < x and x < 20")


def test_boolean_connectives_and_literals():
    assert ext("true") == frozenset(range(1, 101))
    assert ext("false") == frozenset()
    assert ext("even(x) and x < 10") == frozenset([2, 4, 6, 8])
    assert ext("x < 3 or x > 98") == frozenset([1, 2, 99, 100])
    assert ext("not even(x)") == ext("odd(x)")
    # precedence: and binds tighter than or
    assert ext("even(x) and x < 5 or x == 99") == frozenset([2, 4, 99])


def test_evaluation_is_total():
    # division-by-zero-style cases and huge exponents must not raise
    for src in ["x mod (x - x) == 0", "x ^ 4 > 0", "multiple(0, x)", "power(0, x)"]:
        row = extension_values(parse_concept(src, "number").expr)
        assert row.dtype == bool and row.shape == (100,)


def test_saturating_arithmetic():
    big = parse_concept("(x * 100000000) * 100000000 > 0", "number").expr
    assert extension_values(big)[100 - 1]  # saturates instead of overflowing


def test_syntax_errors():
    for src in ["", "even(", "x <", "foo(x)", "even(x) and", "x 5", "this.color == green"]:
        with pytest.raises(DslSyntaxError):
            parse_number_concept(src)


X = Var()

PARSES = [
    # and binds tighter than or; every binary operator associates left
    ("even(x) or x < 5 and x > 2", BoolOp("or", Pred("even", (X,)), BoolOp("and", Cmp("<", X, Lit(5)), Cmp(">", X, Lit(2))))),
    ("not x < 3 or true", BoolOp("or", Not(Cmp("<", X, Lit(3))), BoolLit(True))),
    ("x - 1 - 2 == 0", Cmp("==", Arith("-", Arith("-", X, Lit(1)), Lit(2)), Lit(0))),
    ("x * 2 mod 3 + 1 == 0", Cmp("==", Arith("+", Arith("mod", Arith("*", X, Lit(2)), Lit(3)), Lit(1)), Lit(0))),
    ("x % 3 == 1", Cmp("==", Arith("mod", X, Lit(3)), Lit(1))),
    ("x ^ 2 * 3 > 1", Cmp(">", Arith("*", Arith("^", X, Lit(2)), Lit(3)), Lit(1))),
    ("(x + 1) * 2 > 3", Cmp(">", Arith("*", Arith("+", X, Lit(1)), Lit(2)), Lit(3))),
    # a chain is an and of its links, grouped from the left
    ("1 < x < 5 <= 7", BoolOp("and", BoolOp("and", Cmp("<", Lit(1), X), Cmp("<", X, Lit(5))), Cmp("<=", Lit(5), Lit(7)))),
]


@pytest.mark.parametrize("src,want", PARSES)
def test_parse_pins_precedence_and_chains(src, want):
    assert parse_number_concept(src) == want


PARSE_ERRORS = [
    # a parenthesized boolean cannot be compared: the ( is read as arithmetic
    ("(even(x)) < 3", "unexpected token 'even'", 1),
    # ^ takes one integer exponent and does not chain
    ("x ^ 2 ^ 3 < 5", "expected a comparison operator", 5),
    ("even(x) x", "trailing input 'x'", 7),
    ("even(x, 2)", "even takes 1 argument(s), got 2", 10),
    ("between(1, x)", "between takes 3 argument(s), got 2", 13),
    ("x mod", "unexpected token None", 5),
    ("(x < 3", "expected ')', found '<'", 2),
    ("x ^ x < 3", "expected 'num', found 'x'", 3),
    ("even x", "expected '(', found 'x'", 4),
    ("even(x", "expected ')', found None", 6),
    ("in_set x", "expected '(', found 'x'", 6),
    ("in_set(1, x)", "expected '{', found 1", 7),
    ("in_set({x}, x)", "expected 'num', found 'x'", 8),
    ("in_set({1 2}, x)", "expected '}', found 2", 9),
    ("in_set({1} x)", "expected ',', found 'x'", 10),
    ("in_set({1}, x", "expected ')', found None", 13),
]


@pytest.mark.parametrize("src,message,pos", PARSE_ERRORS)
def test_parse_errors_pin_message_and_position(src, message, pos):
    with pytest.raises(DslSyntaxError) as err:
        parse_number_concept(src)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


@pytest.mark.parametrize("domain,prefix", [("number", "x <"), ("shape", "this.size <")])
def test_an_over_long_literal_is_a_syntax_error(domain, prefix):
    """A number of more digits than int() converts is a syntax error at
    its token, in both languages; one digit fewer parses."""
    with pytest.raises(DslSyntaxError) as err:
        parse_concept(f"{prefix} 1" + "0" * 5000, domain)
    assert (str(err.value), err.value.pos) == (f"number longer than 4300 digits (at position {len(prefix)})", len(prefix))
    assert parse_concept(f"{prefix} 1" + "0" * 4299, domain).expr.right.value == 10**4299


@pytest.mark.parametrize("domain,rule", [("number", "x < 3"), ("shape", "this.color == green")])
def test_too_deep_nesting_is_a_syntax_error(domain, rule):
    """Nesting past the interpreter's recursion limit raises
    DslSyntaxError from the one parse entry point of both languages."""
    with pytest.raises(DslSyntaxError, match="nested too deeply"):
        parse_concept("(" * 400 + rule + ")" * 400, domain)
    # within the limit, the parentheses just group
    assert parse_concept("(" * 50 + rule + ")" * 50, domain) == parse_concept(rule, domain)


# (domain, the source of a chain n operators long)
CHAINS = {
    "plus": ("number", lambda n: "x" + " + x" * n + " < 3"),
    "times": ("number", lambda n: "x" + " * x" * n + " < 3"),
    "mod": ("number", lambda n: "x" + " mod 7" * n + " < 3"),
    "or": ("number", lambda n: "x < 3" + " or x < 3" * n),
    "and": ("number", lambda n: "x < 3" + " and even(x)" * n),
    "compare": ("number", lambda n: "x" + " < x" * n),
    "predicate-argument": ("number", lambda n: "even(x" + " + x" * n + ")"),
    "not": ("number", lambda n: "not " * n + "x < 3"),
    "shape-or": ("shape", lambda n: "this.color == green" + " or this.size >= 2" * n),
    "shape-and": ("shape", lambda n: "this.color == green" + " and this.size >= 2" * n),
}


@pytest.mark.parametrize("domain,chain", CHAINS.values(), ids=list(CHAINS))
def test_long_operator_chain_is_a_syntax_error(domain, chain):
    """A chain of operators parses without deep recursion, but its tree
    is about as deep as the chain is long. Past MAX_DEPTH nodes it is
    "nested too deeply", so evaluating, formatting and pickling a rule
    never recurse past the interpreter's limit."""
    with pytest.raises(DslSyntaxError, match="nested too deeply"):
        parse_concept(chain(3000), domain)
    with pytest.raises(DslSyntaxError, match="nested too deeply"):
        parse_concept(chain(MAX_DEPTH), domain)
    program = parse_concept(chain(MAX_DEPTH // 2), domain)
    assert parse_concept(format_concept(program), domain) == program
    assert pickle.loads(pickle.dumps(program)) == program
    if domain == "number":
        assert number_extension(program.expr) <= set(range(1, 101))


def test_pred_arity_enforced():
    with pytest.raises(DslSyntaxError):
        parse_number_concept("even(x, 2)")
    with pytest.raises(DslSyntaxError):
        parse_number_concept("between(1, x)")


def test_grammar_file_predicates_match_implementation():
    from importlib import resources

    from nlconcepts.dsl.number import PREDICATES

    grammar = resources.files("nlconcepts.grammars").joinpath("number.ebnf").read_text()
    documented = {name: int(arity) for name, arity in re.findall(r"\(\* pred: (\w+)/(\d+) \*\)", grammar)}
    assert documented == PREDICATES


def test_format_round_trip_fixed_cases():
    cases = [
        "even(x)",
        "power(2, x)",
        "in_set({1, 3, 4}, x)",
        "not (even(x) or x < 10)",
        "(x + 1) mod 10 == 0",
        "even(x) and (x < 5 or x == 99)",
        "between(30, 45, x)",
    ]
    for src in cases:
        p = parse_concept(src, "number")
        text = format_concept(p)
        p2 = parse_concept(text, "number")
        assert format_concept(p2) == text
        assert number_extension(p.expr) == number_extension(p2.expr)


def test_format_round_trip_fuzzed():
    from nlconcepts.dsl import ConceptProgram

    rng = random.Random(7)
    for _ in range(300):
        expr = random_number_expr(rng)
        text = format_concept(ConceptProgram("number", expr))
        reparsed = parse_concept(text, "number")
        assert number_extension(reparsed.expr) == number_extension(expr), text
        assert format_concept(reparsed) == text, text


def _tokens_or_error(tokenize, src):
    """The reference's (kind, value, position) tokens, or ("error",
    message, position). The library's tokens are bare values, whose
    positions are worked out on demand."""
    try:
        tokens = tokenize(src)
    except DslSyntaxError as err:
        return ("error", str(err), err.pos)
    if tokenize is not _tokenize:
        return tokens

    def kind(token):
        if token is None:
            return "eof"
        return "num" if type(token) is int else "name" if _is_name(token) else "op"

    return [(kind(t), _CMP_CANON.get(t, t), _position(src, i)) for i, t in enumerate(tokens)]


TOKENIZER_EDGE_CASES = [
    "",
    "   ",
    "2x",
    "x ? 3",
    "x < 3   ",
    "x < 3\n\t",
    "\u0663 < x",
    "x\u00a0<\u20093",
    "x !< 3",
    "x = 3 and x % 2 == 0",
    "in_set({1, 2, 3}, x)",
    "this.color==green",
    "  ?",
    "x < 3 \u00b2",
    "caf\u00e9(x)",
    "12345678901234567890 > x",
    "x < 1" + "0" * 5000,
    "x < 3 and \u0663" + "1" * 4300 + " > x",
]


def test_tokenizer_matches_the_reference(fixtures_dir):
    """The one-pass tokenizer gives the reference's tokens, or its error
    message and position, on every source."""
    sources = list(TOKENIZER_EDGE_CASES)
    for path in sorted(fixtures_dir.rglob("*.jsonl")):
        sources += [json.loads(line)["dsl"] for line in path.read_text().splitlines() if line.strip()]
    replay = ReplayStore(fixtures_dir / "replay")
    assert len(replay.keys()) == 5
    sources += [c["text"] for key in replay.keys() for c in replay.entry(key)["completions"]]
    rng = random.Random(11)
    for _ in range(2000):
        src = format_shape_concept(random_shape_expr(rng, rng.randint(0, 3)))
        sources += [src] + [src[:i] for i in range(0, len(src), 5)]
        i = rng.randrange(len(src) + 1)
        sources.append(src[:i] + rng.choice("?!@$;' \u00e9\u0663\u00a0") + src[i:])
    for _ in range(200):
        sources.append(format_number_concept(random_number_expr(rng, 3)))
    assert len(sources) > 10000
    for src in sources:
        assert _tokens_or_error(_tokenize, src) == _tokens_or_error(oracle.tokenize, src), repr(src)
    errors = [src for src in sources if _tokens_or_error(oracle.tokenize, src)[0] == "error"]
    assert len(errors) > 1000
    # positions count from the whitespace before a token, errors included
    assert _tokens_or_error(_tokenize, "2x") == [("num", 2, 0), ("name", "x", 1), ("eof", None, 2)]
    assert _tokens_or_error(_tokenize, "\u0663 < x")[:2] == [("num", 3, 0), ("op", "<", 1)]
    assert _tokens_or_error(_tokenize, "x ? 3") == ("error", "unexpected character '?' (at position 1)", 1)


# ---------------------------------------------------------------------------
# The array evaluator against the reference interpreter


def assert_row_matches_interpreter(expr):
    """`extension_values` is a fresh (100,) bool row whose entry x - 1
    is `eval_number(expr, x)`."""
    row = extension_values(expr)
    assert row.dtype == bool and row.shape == (100,) and row.flags.writeable
    got = frozenset((np.flatnonzero(row) + 1).tolist())
    assert got == number_extension(expr), format_number_concept(expr)


@pytest.mark.parametrize("seed", [0, 1])
def test_extension_values_match_the_interpreter_on_fuzzed_rules(seed):
    rng = random.Random(seed)
    for _ in range(3000):
        assert_row_matches_interpreter(random_number_expr(rng, rng.randint(0, 4)))


WIDENINGS = (lambda v: v * 10**10, lambda v: -4 * 10**9, lambda v: 3 * 10**19, lambda v: v)


def widen(node, rng):
    """`node` with each literal and in_set member replaced by a value past
    +/-SAT, or kept, as `rng` picks."""
    if isinstance(node, Lit):
        return Lit(rng.choice(WIDENINGS)(node.value))
    if isinstance(node, InSet):
        return InSet(tuple(rng.choice(WIDENINGS)(m) for m in node.members), widen(node.arg, rng))
    if isinstance(node, Pred):
        return Pred(node.name, tuple(widen(a, rng) for a in node.args))
    if isinstance(node, (Arith, Cmp, BoolOp)):
        return type(node)(node.op, widen(node.left, rng), widen(node.right, rng))
    if isinstance(node, Not):
        return Not(widen(node.arg, rng))
    return node  # x, true, false


@pytest.mark.parametrize("seed", [0, 1])
def test_extension_values_match_the_interpreter_on_widened_literals(seed):
    """The fuzzed rules of the test above, with their literals widened
    past +/-SAT, where a product of two leaves int64."""
    rng, wide = random.Random(seed), random.Random(seed + 100)
    rules = [widen(random_number_expr(rng, rng.randint(0, 4)), wide) for _ in range(3000)]
    assert sum(bool(re.search(r"\d{10}", format_number_concept(rule))) for rule in rules) > 1000
    for expr in rules:
        assert_row_matches_interpreter(expr)


def test_extension_values_match_the_interpreter_on_fixture_and_replay_rules(fixtures_dir):
    paths = sorted((fixtures_dir / "number").glob("*.jsonl")) + [fixtures_dir / "number_pool_size_principle.jsonl"]
    sources = [json.loads(line)["dsl"] for path in paths for line in path.read_text().splitlines() if line.strip()]
    replay = ReplayStore(fixtures_dir / "replay")
    sources += [c["text"] for key in replay.keys() for c in replay.entry(key)["completions"]]
    parsed = []
    for src in sources:
        try:
            parsed.append(parse_number_concept(src))
        except DslSyntaxError:
            pass
    # 11 of 12 rules per example set parse, all 4 of the size-principle
    # pool, and the 4 translations among the 9 replayed completions
    assert len(parsed) == 8 * 11 + 4 + 4
    for expr in parsed:
        assert_row_matches_interpreter(expr)


ARRAY_EDGE_CASES = [
    # saturation at +/-1e9, a product of two saturated values included
    "x * 100000000 > 999999999",
    "(x * 1000000000) * (x * 1000000000) == 1000000000",
    "(0 - x * 1000000000) * (x * 1000000000) == 0 - 1000000000",
    "x * 100000 * 100000 - 1 < 1000000000",
    "0 - 1000000000 - x == 0 - 1000000000",
    "x * 1000000000 + 1000000000 == 1000000000",
    # mod with negative operands, and mod 0
    "(x - 50) mod 7 == 3",
    "x mod (0 - 7) == 0 - 3",
    "(0 - x) mod (0 - 3) == 0 - 1",
    "x mod 0 == 0",
    "x mod (x - 50) == 1",
    "7 mod (x - 7) == 0",
    "multiple(0, x - 50)",
    "multiple(x mod 5, 100 - x)",
    # ^ 0, ^ of a negative base, exponents of 64 and above
    "x^0 == 1",
    "0^0 == 1",
    "(x - 1)^0 == 1",
    "(0 - x)^3 < 0",
    "(x - 50)^2 > 100",
    "(0 - x)^64 == 1000000000",
    "(0 - 2)^31 == 1000000000",
    "(0 - 2)^31 == 0 - 1000000000",
    "(x - 3)^63 < 0",
    "x^64 > 5",
    "x^65 == x^64",
    "(x - 2)^64 == 1",
    "(x - 2)^65 == 1",
    "(x - 2)^66 < 0",
    "x^1000 > 1",
    "1^1000000000 == 1",
    "x^10000000000 > 2",
    # prime, power, contains_digit and the other predicates of arithmetic
    "prime(x * x + 1)",
    "prime(x - 50)",
    "prime(x + 1000000)",
    "power(2, x + 1)",
    "power(x, 64)",
    "power(0 - 2, x - 60)",
    "power(x - 1, 0)",
    "contains_digit(3, x * 7)",
    "contains_digit(x mod 10, x * x)",
    "contains_digit(0, 0 - x)",
    "square(x - 50)",
    "cube(x * x)",
    "cube(x - 50)",
    "even(x * x + 1)",
    "odd(0 - x)",
    "between(x, 2 * x, 50)",
    "ends_in(x mod 10, x * 3)",
    "ends_in(3, 0 - x)",
    # in_set of arithmetic
    "in_set({4, 9, 16}, x + 1)",
    "in_set({0}, x mod 0)",
    "in_set({1000000000}, x * 100000000)",
    "in_set({1}, 1)",
    "in_set({100000000000000000000}, x)",
    # literals beyond +/-SAT, constants and connectives
    "x < 100000000000000000000000",
    "x * 4000000000000000000 == 1000000000",
    "((0 - x) mod 4000000000) * ((0 - x) mod 4000000000) == 1000000000",
    "(0 - x) mod 100000000000000000000 > 5",
    "between(0, 100000000000000000000, x)",
    "power(100000000000000000000, x)",
    "true",
    "false",
    "3 < 4",
    "even(4) and x < 9",
    "not true or 1 < x < 10",
    "not (x > 3 and odd(x))",
]


@pytest.mark.parametrize("src", ARRAY_EDGE_CASES)
def test_extension_values_match_the_interpreter_on_edge_cases(src):
    assert_row_matches_interpreter(parse_number_concept(src))


@pytest.mark.parametrize(
    "expr",
    [
        Cmp("==", Arith("^", Var(), Lit(-2)), Lit(0)),
        Cmp(">", Arith("^", Lit(2), Var()), Lit(1000)),
        Cmp("<", Arith("^", Arith("-", Lit(0), Lit(3)), Var()), Lit(0)),
        Cmp("==", Arith("^", Lit(-1), Arith("-", Var(), Lit(50))), Lit(1)),
        InSet((SAT, -SAT), Arith("*", Var(), Lit(-SAT))),
        Pred("power", (Lit(-1), Arith("^", Lit(-1), Var()))),
    ],
    ids=["negative-exponent", "x-exponent", "negative-base-x-exponent", "exponents-below-0", "set-at-sat", "power-of-minus-one"],
)
def test_extension_values_match_the_interpreter_on_trees_no_source_spells(expr):
    """Exponents that are negative or depend on x: the parser reads only
    a literal `^ integer`, but a tree may hold any arithmetic there."""
    assert_row_matches_interpreter(expr)


"""Parser and evaluator for the number-concept language.

Boolean expressions over a single free variable x, evaluated on the
integers 1..100. Evaluation is total: arithmetic saturates at +/-1e9 and
every predicate is defined for every input.

Grammar (see grammars/number.ebnf):

    expr    = or_expr
    or_expr = and_expr { "or" and_expr }
    and_expr= unary { "and" unary }
    unary   = "not" unary | atom
    atom    = "true" | "false" | pred "(" args ")" | comparison
            | "(" expr ")"
    comparison = arith cmp_op arith { cmp_op arith }
    arith   = term { ("+"|"-") term }
    term    = power { ("*"|"mod") power }
    power   = primary [ "^" integer ]
    primary = integer | "x" | "(" arith ")"

One `findall` of `_TOKEN` scans a source into a flat list of token
values, which the parser reads by index; a `DslSyntaxError` scans again
for its token's position (`_position`). `or`/`and` and `+ - * mod` are
parsed by precedence climbing over the tables the formatter reads
(`_BOOL_PREC`, `_ARITH_PREC`), all left associative. The shape language
(`shape.py`) extends this parser and shares its tokens, boolean layer,
`Cmp` node, `COMPARE` table and formatter.
A source whose tree is more than `MAX_DEPTH` nodes deep is a syntax
error ("nested too deeply"), as is one with more than `MAX_DEPTH`
parentheses open at once or nested past the interpreter's recursion
limit: evaluating, formatting, comparing and pickling a tree all
recurse once or more per level, and chains of `or`, `and`, `+`, `-`,
`*` or `mod` build depth without deepening the parse.

The nodes of both languages' trees are plain classes on one `Node`
base: each lists its fields as `__slots__` and sets them in a
hand-written `__init__`, so building one costs a few attribute stores
and importing the languages generates no code. `Node` defines equality
(same class, equal fields), a hash that agrees with it and a `repr`
that names the fields, once for every class, from `__slots__`. Nothing
guards a node's fields: a parsed tree is shared (`load_pool` parses
each source once), so it must not be changed after construction.

Two evaluators share these semantics. `eval_number` walks the tree for
one x; it is the reference interpreter, whose extension as a frozenset
the tests' oracle computes (`number_extension` in `tests/oracle.py`).
`extension_values` walks the tree once for all of x = 1..100, with
int64 arrays as values (`_values`, `_arith_values`): it gives the
(100,) truth row that the likelihood's extension matrix stacks
(`likelihood.extension_matrix`), and falls back on `eval_number` for a
rule with a literal beyond +/-SAT.

Conventions (these matter for concepts like "powers of two"):
  * prime(1) is false.
  * power(b, x) is true iff x = b^k for some integer k >= 0, so
    power(2, 1) is true.
"""

from __future__ import annotations

import operator
import re
from typing import Tuple

import numpy as np

SAT = 10**9  # arithmetic saturation bound


class DslSyntaxError(SyntaxError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# AST


class Node:
    """A syntax-tree node of either language. Its fields are its
    `__slots__`, which its `__init__` sets and nothing changes after;
    two nodes are equal when they are of one class with equal fields,
    equal nodes hash alike, and `repr` names the fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"


class Lit(Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Var(Node):
    __slots__ = ()  # the single free variable x


class Arith(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op  # + - * mod ^
        self.left = left
        self.right = right


class Cmp(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op  # < <= == != >= >
        self.left = left
        self.right = right


class Pred(Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Node, ...]):
        self.name = name
        self.args = args


class InSet(Node):
    __slots__ = ("members", "arg")

    def __init__(self, members: Tuple[int, ...], arg: Node):
        self.members = members
        self.arg = arg


class BoolOp(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op  # and / or
        self.left = left
        self.right = right


class Not(Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Node):
        self.arg = arg


class BoolLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


# arity of each predicate, excluding in_set which has special syntax
PREDICATES = {
    "even": 1,
    "odd": 1,
    "prime": 1,
    "square": 1,
    "cube": 1,
    "power": 2,
    "multiple": 2,
    "between": 3,
    "ends_in": 2,
    "contains_digit": 2,
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|!=|[-+*^<>=(){},%.])|(?P<bad>\S))"
)

_CMP_CANON = {"=": "==", "%": "mod"}

COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

# binding strength of the binary operators, for the parser and the formatter
_BOOL_PREC = {"or": 1, "and": 2}
_ARITH_PREC = {"+": 1, "-": 1, "*": 2, "mod": 2, "^": 3}

# the operator each token stands for; ^ binds in parse_arith's operands
_CMP_OPS = {tok: _CMP_CANON.get(tok, tok) for tok in (*COMPARE, "=")}
_ARITH_OPS = {tok: _CMP_CANON.get(tok, tok) for tok in ("+", "-", "*", "mod", "%")}

# the deepest tree a parse returns (nodes from the root), and the most "(" open
MAX_DEPTH = 200


def _depth(node) -> int:
    """Nodes on the longest path down from `node`, counted without
    recursion; a node's children are the nodes in its slots, alone or
    in a tuple."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for name in node.__slots__:
            value = getattr(node, name)
            for child in value if type(value) is tuple else (value,):
                if isinstance(child, Node):
                    stack.append((child, depth + 1))
    return deepest


def _tokenize(src: str) -> list:
    """The tokens of `src`, then None for the end: an int per number, a
    str per name or operator as written. A stray character is an error."""
    found = _TOKEN.findall(src)
    tokens = [int(num) if num else name or op for num, name, op, _ in found]
    if "" in tokens:  # the bad group matched
        index = tokens.index("")
        raise DslSyntaxError(f"unexpected character {found[index][3]!r}", _position(src, index))
    tokens.append(None)
    return tokens


def _position(src: str, index: int) -> int:
    """Where token `index` starts, whitespace before it included; len(src) for the end."""
    return next((m.start() for i, m in enumerate(_TOKEN.finditer(src)) if i == index), len(src))


def _is_name(token) -> bool:
    return type(token) is str and token.isidentifier()


class _Fail(Exception):
    """A syntax error as (message, token index), positioned by `parse`."""


class _Parser:
    """Recursive descent by index over `_tokenize`'s flat list: a method
    call per grammar rule, none per token."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0  # parentheses open

    @classmethod
    def parse(cls, src: str):
        """The expression that is the whole of `src`. A source nested too
        deeply (see the module docstring) is a syntax error like any other."""
        parser = cls(src)
        try:
            node = parser.parse_expr()
            if parser.toks[parser.i] is not None:
                parser.fail(f"trailing input {parser.shown(parser.i)!r}")
        except _Fail as err:
            raise DslSyntaxError(err.args[0], _position(src, err.args[1])) from None
        except RecursionError:
            raise DslSyntaxError("nested too deeply", _position(src, parser.i)) from None
        # a tree has at most two nodes per token, so short sources skip the walk
        if 2 * len(parser.toks) > MAX_DEPTH and _depth(node) > MAX_DEPTH:
            raise DslSyntaxError("nested too deeply", 0)
        return node

    def shown(self, index):
        """Token `index` as error messages give it."""
        return _CMP_CANON.get(self.toks[index], self.toks[index])

    def fail(self, message, index=None):
        raise _Fail(message, self.i if index is None else index)

    def expected(self, want, index):
        self.fail(f"expected {want!r}, found {self.shown(index)!r}", index)

    def open(self):
        """Read a "(": past MAX_DEPTH open, stop as the recursion limit would."""
        if self.toks[self.i] != "(":
            self.expected("(", self.i)
        if self.depth == MAX_DEPTH:
            raise RecursionError
        self.i, self.depth = self.i + 1, self.depth + 1

    def close(self):
        if self.toks[self.i] != ")":
            self.expected(")", self.i)
        self.i, self.depth = self.i + 1, self.depth - 1

    # booleans ------------------------------------------------------------

    def parse_expr(self, min_prec=1):
        toks = self.toks
        if toks[self.i] == "not":
            self.i += 1
            node = Not(self.parse_expr(3))  # not binds tighter than and
        else:
            node = self.parse_atom()
        while _BOOL_PREC.get(toks[self.i], 0) >= min_prec:
            op = toks[self.i]
            self.i += 1
            node = BoolOp(op, node, self.parse_expr(_BOOL_PREC[op] + 1))
        return node

    def parse_atom(self):
        toks, i = self.toks, self.i
        token = toks[i]
        if token == "true" or token == "false":
            self.i = i + 1
            return BoolLit(token == "true")
        if token == "in_set":
            return self.parse_in_set()
        if token in PREDICATES:
            return self.parse_pred()
        if token == "(":
            # could be a parenthesized boolean or the start of an
            # arithmetic comparison; backtrack on comparison failure
            depth = self.depth
            self.open()
            try:
                node = self.parse_expr()
                if toks[self.i] == ")" and toks[self.i + 1] not in _CMP_OPS:
                    self.close()
                    return node
            except _Fail:
                pass
            self.i, self.depth = i, depth
        return self.parse_comparison()

    def parse_pred(self):
        name = self.toks[self.i]
        self.i += 1
        self.open()
        args = [self.parse_arith()]
        while self.toks[self.i] == ",":
            self.i += 1
            args.append(self.parse_arith())
        self.close()
        if len(args) != PREDICATES[name]:
            self.fail(f"{name} takes {PREDICATES[name]} argument(s), got {len(args)}")
        return Pred(name, tuple(args))

    def parse_in_set(self):
        toks = self.toks
        self.i += 1  # in_set
        self.open()
        i, members = self.i, []
        if toks[i] != "{":
            self.expected("{", i)
        while not members or toks[i] == ",":
            if type(toks[i + 1]) is not int:
                self.expected("num", i + 1)
            members.append(toks[i + 1])
            i += 2
        if toks[i] != "}":
            self.expected("}", i)
        if toks[i + 1] != ",":
            self.expected(",", i + 1)
        self.i = i + 2
        arg = self.parse_arith()
        self.close()
        return InSet(tuple(members), arg)

    def parse_comparison(self):
        left = self.parse_arith()
        op = _CMP_OPS.get(self.toks[self.i])
        if op is None:
            self.fail("expected a comparison operator")
        node = None
        while op is not None:
            self.i += 1
            right = self.parse_arith()
            link = Cmp(op, left, right)
            node = link if node is None else BoolOp("and", node, link)
            left = right
            op = _CMP_OPS.get(self.toks[self.i])
        return node

    # arithmetic ----------------------------------------------------------

    def parse_arith(self, min_prec=1):
        """Operands are an integer, x or a parenthesized arith, with at
        most one `^ integer`: ^ takes one integer exponent and does not chain."""
        toks, i = self.toks, self.i
        token = toks[i]
        if type(token) is int:
            node, i = Lit(token), i + 1
        elif token == "x":
            node, i = Var(), i + 1
        elif token == "(":
            self.open()
            node = self.parse_arith()
            self.close()
            i = self.i
        else:
            self.fail(f"unexpected token {self.shown(i)!r}", i)
        if toks[i] == "^":
            if type(toks[i + 1]) is not int:
                self.expected("num", i + 1)
            node, i = Arith("^", node, Lit(toks[i + 1])), i + 2
        op = _ARITH_OPS.get(toks[i])
        while op is not None and _ARITH_PREC[op] >= min_prec:
            self.i = i + 1
            node = Arith(op, node, self.parse_arith(_ARITH_PREC[op] + 1))
            i = self.i
            op = _ARITH_OPS.get(toks[i])
        self.i = i
        return node


def parse_number_concept(src: str):
    """Parse a number-concept expression; raises DslSyntaxError on failure."""
    return _Parser.parse(src)


# ---------------------------------------------------------------------------
# Evaluation


def _sat(v: int) -> int:
    return max(-SAT, min(SAT, v))


def _eval_arith(node, x: int) -> int:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return x
    a = _eval_arith(node.left, x)
    b = _eval_arith(node.right, x)
    if node.op == "+":
        return _sat(a + b)
    if node.op == "-":
        return _sat(a - b)
    if node.op == "*":
        return _sat(a * b)
    if node.op == "mod":
        return a % b if b != 0 else 0
    if node.op == "^":
        if b < 0:
            return 0
        out = 1
        for _ in range(min(b, 64)):
            out = _sat(out * a)
            if abs(out) >= SAT:
                break
        return out
    raise AssertionError(node.op)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_power(base: int, n: int) -> bool:
    # n = base^k for integer k >= 0
    if n == 1:
        return True
    if base in (-1, 0, 1):
        return n == base
    v = 1
    while abs(v) < abs(n) + 1:
        v *= base
        if v == n:
            return True
        if v == 0:
            break
    return False


def _eval_pred(name: str, args, x: int) -> bool:
    return _holds(name, [_eval_arith(a, x) for a in args])


def _holds(name: str, vals) -> bool:
    """Predicate `name` of its argument values."""
    if name == "even":
        return vals[0] % 2 == 0
    if name == "odd":
        return vals[0] % 2 != 0
    if name == "prime":
        return _is_prime(vals[0])
    if name == "square":
        v = vals[0]
        return v >= 0 and int(round(v**0.5)) ** 2 == v
    if name == "cube":
        v = vals[0]
        r = int(round(abs(v) ** (1 / 3)))
        return any((r + d) ** 3 == abs(v) for d in (-1, 0, 1)) if v >= 0 else False
    if name == "power":
        return _is_power(vals[0], vals[1])
    if name == "multiple":
        k, v = vals
        return v % k == 0 if k != 0 else v == 0
    if name == "between":
        lo, hi, v = vals
        return lo <= v <= hi
    if name == "ends_in":
        d, v = vals
        return abs(v) % 10 == d
    if name == "contains_digit":
        d, v = vals
        return str(d) in str(abs(v))
    raise AssertionError(name)


def eval_number(expr, x: int) -> bool:
    """Evaluate a parsed expression at x. Total for any integer input."""
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            return eval_number(expr.left, x) and eval_number(expr.right, x)
        return eval_number(expr.left, x) or eval_number(expr.right, x)
    if isinstance(expr, Not):
        return not eval_number(expr.arg, x)
    if isinstance(expr, Cmp):
        return COMPARE[expr.op](_eval_arith(expr.left, x), _eval_arith(expr.right, x))
    if isinstance(expr, Pred):
        return _eval_pred(expr.name, expr.args, x)
    if isinstance(expr, InSet):
        return _eval_arith(expr.arg, x) in expr.members
    raise TypeError(f"not a boolean expression: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation over 1..100 at once

XS = np.arange(1, 101, dtype=np.int64)

_CLIPPED = {"+": operator.add, "-": operator.sub, "*": operator.mul}

# predicates whose int64 form is exact on any values within +/-SAT
_ARRAY_PREDS = {
    "even": lambda v: v % 2 == 0,
    "odd": lambda v: v % 2 != 0,
    "multiple": lambda k, v: np.where(k == 0, v == 0, _mod(v, k) == 0),
    "between": lambda lo, hi, v: (lo <= v) & (v <= hi),
    "ends_in": lambda d, v: abs(v) % 10 == d,
}


class _Wide(Exception):
    """A literal beyond +/-SAT in arithmetic, where int64 could overflow."""


def extension_values(expr) -> np.ndarray:
    """(100,) bool: entry x - 1 is `eval_number(expr, x)`, from one walk
    of the tree over x = 1..100. Every value the walk computes lies
    within +/-SAT, so a product of two stays below 2^63; a rule whose
    arithmetic holds a literal beyond that is evaluated one x at a time."""
    try:
        row = np.asarray(_values(expr))
    except _Wide:
        row = np.array([eval_number(expr, x) for x in range(1, 101)])
    return row if row.ndim else np.full(100, bool(row))


def _values(expr):
    """Truth over XS: a bool array, or one bool where it does not depend on x."""
    if isinstance(expr, Cmp):
        return COMPARE[expr.op](_arith_values(expr.left), _arith_values(expr.right))
    if isinstance(expr, BoolOp):
        combine = np.logical_and if expr.op == "and" else np.logical_or
        return combine(_values(expr.left), _values(expr.right))
    if isinstance(expr, Not):
        return np.logical_not(_values(expr.arg))
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, InSet) and isinstance(expr.arg, Var):
        row = np.zeros(101, dtype=bool)  # a table over 0..100, read from 1
        row[[m for m in expr.members if 1 <= m <= 100]] = True
        return row[1:]
    if isinstance(expr, Pred) and expr.name in _ARRAY_PREDS:
        return _ARRAY_PREDS[expr.name](*map(_arith_values, expr.args))
    # the scalar helpers, one call per value of the arguments
    args = expr.args if isinstance(expr, Pred) else (expr.arg,)
    cols = [(_arith_values(a) + np.zeros(100, dtype=np.int64)).tolist() for a in args]
    if isinstance(expr, Pred):
        return np.array([_holds(expr.name, vals) for vals in zip(*cols)])
    return np.array([v in expr.members for v in cols[0]])


def _arith_values(node):
    """Values over XS: an int64 array, or one int where they do not depend on x."""
    if isinstance(node, Lit):
        if abs(node.value) > SAT:
            raise _Wide
        return node.value
    if isinstance(node, Var):
        return XS
    a, b = _arith_values(node.left), _arith_values(node.right)
    if node.op in _CLIPPED:
        return np.clip(_CLIPPED[node.op](a, b), -SAT, SAT)
    return _mod(a, b) if node.op == "mod" else _power(a, b)


def _mod(a, b):
    """a mod b with the divisor's sign, as Python's %; a mod 0 = 0."""
    zero = b == 0
    return np.where(zero, 0, a % np.where(zero, 1, b))


def _power(a, e):
    """a ^ e as `_eval_arith` computes it: at most 64 saturating
    multiplications, each element frozen once it saturates; 0 for e < 0."""
    a, e = np.broadcast_arrays(a, e)
    out, live = np.ones_like(a), np.ones(a.shape, dtype=bool)
    for k in range(min(int(e.max()), 64)):
        live &= (k < e) & (abs(out) < SAT)
        if not live.any():
            break
        out = np.where(live, np.clip(out * a, -SAT, SAT), out)
    return np.where(e < 0, 0, out)


# ---------------------------------------------------------------------------
# Formatting (minimal parenthesization, round-trips through the parser)


def _fmt_arith(node, parent_prec=0) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return "x"
    prec = _ARITH_PREC[node.op]
    op = f" {node.op} " if node.op == "mod" else f" {node.op} " if node.op in "+-" else node.op
    if node.op == "^":
        text = f"{_fmt_arith(node.left, prec + 1)}^{_fmt_arith(node.right, prec)}"
    else:
        text = f"{_fmt_arith(node.left, prec)}{op}{_fmt_arith(node.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text


def format_bool(node, leaf, parent_prec=0) -> str:
    """`and`, `or`, `not` and literals of either language, with `leaf`
    formatting every other node."""
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, BoolOp):
        prec = _BOOL_PREC[node.op]
        text = (
            f"{format_bool(node.left, leaf, prec)} {node.op} "
            f"{format_bool(node.right, leaf, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Not):
        return f"not {format_bool(node.arg, leaf, 3)}"
    return leaf(node)


def format_number_concept(node) -> str:
    return format_bool(node, _fmt_number_leaf)


def _fmt_number_leaf(node) -> str:
    if isinstance(node, Cmp):
        return f"{_fmt_arith(node.left)} {node.op} {_fmt_arith(node.right)}"
    if isinstance(node, Pred):
        args = ", ".join(_fmt_arith(a) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, InSet):
        members = ", ".join(str(m) for m in node.members)
        return f"in_set({{{members}}}, {_fmt_arith(node.arg)})"
    raise TypeError(f"not a boolean expression: {node!r}")

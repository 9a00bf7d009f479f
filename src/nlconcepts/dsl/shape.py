"""Parser and evaluator for the logical shape-concept language.

Rules classify a test object (`this`) relative to the other objects in
its batch. Available sets: `others` (batch minus one occurrence of the
test object), `all` (the whole batch), and the feature domains `colors`,
`shapes`, `sizes` for iteration. Quantifiers `forall`/`exists` and a
`count` aggregate cover the first-order inventory; "one of the largest"
style concepts are written with >= so ties count.

Example rules:

    this.shape == triangle and this.color == green
    exists(o in others, o.color == this.color)
    forall(c in colors, count(o in all, o.color == this.color)
                        >= count(o in all, o.color == c))

Expressions are statically type-checked during parsing (colors and
shapes support equality only; sizes and counts support ordering), so
evaluation is total for any batch of 1-5 objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

from ..types import COLORS, SHAPES, SIZES, ShapeObject
from .number import DslSyntaxError, _tokenize

KEYWORDS = {"forall", "exists", "count", "in", "and", "or", "not", "true", "false"}
OBJECT_SETS = {"others", "all"}
FEATURE_SETS = {"colors": "color", "shapes": "shape", "sizes": "int"}
SIZE_CONSTS = {"small": 1, "medium": 2, "large": 3}


@dataclass(frozen=True)
class Const:
    kind: str  # "shape" | "color" | "int"
    value: object


@dataclass(frozen=True)
class VarRef:
    name: str
    kind: str  # "object" | "shape" | "color" | "int"


@dataclass(frozen=True)
class Accessor:
    var: str
    field: str  # shape | color | size


@dataclass(frozen=True)
class Count:
    var: str
    domain: str
    body: object


@dataclass(frozen=True)
class Quant:
    quantifier: str  # forall | exists
    var: str
    domain: str
    body: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class BoolOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class BoolLit:
    value: bool


def _value_kind(node) -> str:
    if isinstance(node, Const):
        return node.kind
    if isinstance(node, VarRef):
        return node.kind
    if isinstance(node, Accessor):
        return {"shape": "shape", "color": "color", "size": "int"}[node.field]
    if isinstance(node, Count):
        return "int"
    raise AssertionError(node)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.env = {"this": "object"}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise DslSyntaxError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def fail(self, message):
        raise DslSyntaxError(message, self.peek()[2])

    def parse_expr(self):
        node = self.parse_and()
        while self.peek()[:2] == ("name", "or"):
            self.next()
            node = BoolOp("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek()[:2] == ("name", "and"):
            self.next()
            node = BoolOp("and", node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[:2] == ("name", "not"):
            self.next()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "(":
            self.next()
            node = self.parse_expr()
            self.expect("op", ")")
            return node
        if kind == "name" and value in ("true", "false"):
            self.next()
            return BoolLit(value == "true")
        if kind == "name" and value in ("forall", "exists"):
            return self.parse_quant()
        return self.parse_comparison()

    def _bind(self):
        _, var, pos = self.expect("name")
        if var in KEYWORDS or var in OBJECT_SETS or var in FEATURE_SETS:
            raise DslSyntaxError(f"{var!r} cannot be a variable name", pos)
        self.expect("name", "in")
        _, dom, dpos = self.expect("name")
        if dom in OBJECT_SETS:
            var_kind = "object"
        elif dom in FEATURE_SETS:
            var_kind = FEATURE_SETS[dom]
        else:
            raise DslSyntaxError(f"unknown set {dom!r}", dpos)
        shadowed = self.env.get(var)
        self.env[var] = var_kind
        return var, dom, shadowed

    def _unbind(self, var, shadowed):
        if shadowed is None:
            del self.env[var]
        else:
            self.env[var] = shadowed

    def parse_quant(self):
        quantifier = self.next()[1]
        self.expect("op", "(")
        var, dom, shadowed = self._bind()
        self.expect("op", ",")
        body = self.parse_expr()
        self._unbind(var, shadowed)
        self.expect("op", ")")
        return Quant(quantifier, var, dom, body)

    def parse_comparison(self):
        left = self.parse_value()
        kind, op, pos = self.next()
        if kind != "op" or op not in ("<", "<=", "==", "!=", ">=", ">"):
            raise DslSyntaxError(f"expected a comparison operator, found {op!r}", pos)
        right = self.parse_value()
        lk, rk = _value_kind(left), _value_kind(right)
        if lk != rk:
            raise DslSyntaxError(f"cannot compare {lk} with {rk}", pos)
        if lk in ("shape", "color") and op not in ("==", "!="):
            raise DslSyntaxError(f"{lk} values support == and != only", pos)
        if lk == "object":
            raise DslSyntaxError("objects are not comparable; compare features", pos)
        return Cmp(op, left, right)

    def parse_value(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Const("int", value)
        if kind != "name":
            raise DslSyntaxError(f"unexpected token {value!r}", pos)
        if value == "count":
            self.expect("op", "(")
            var, dom, shadowed = self._bind()
            self.expect("op", ",")
            body = self.parse_expr()
            self._unbind(var, shadowed)
            self.expect("op", ")")
            return Count(var, dom, body)
        if value in SHAPES:
            return Const("shape", value)
        if value in COLORS:
            return Const("color", value)
        if value in SIZE_CONSTS:
            return Const("int", SIZE_CONSTS[value])
        if value in self.env:
            var_kind = self.env[value]
            if var_kind == "object" or self.peek()[:2] == ("op", "."):
                self.expect("op", ".")
                _, field, fpos = self.expect("name")
                if field not in ("shape", "color", "size"):
                    raise DslSyntaxError(f"unknown field {field!r}", fpos)
                if var_kind != "object":
                    raise DslSyntaxError(f"{value!r} is not an object variable", fpos)
                return Accessor(value, field)
            return VarRef(value, var_kind)
        raise DslSyntaxError(f"unbound variable {value!r}", pos)


def parse_shape_concept(src: str):
    """Parse and type-check a shape-concept rule."""
    parser = _Parser(src)
    node = parser.parse_expr()
    if parser.peek()[0] != "eof":
        parser.fail(f"trailing input {parser.peek()[1]!r}")
    return node


# ---------------------------------------------------------------------------
# Evaluation


def _domain_values(dom, context):
    if dom == "others":
        return context["__others__"]
    if dom == "all":
        return context["__all__"]
    if dom == "colors":
        return COLORS
    if dom == "shapes":
        return SHAPES
    if dom == "sizes":
        return SIZES
    raise AssertionError(dom)


_MISSING = object()

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}


def _restore(context, var, shadowed):
    if shadowed is _MISSING:
        context.pop(var, None)
    else:
        context[var] = shadowed


def _eval_value(node, context):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, VarRef):
        return context[node.name]
    if isinstance(node, Accessor):
        obj = context[node.var]
        return getattr(obj, node.field)
    if isinstance(node, Count):
        shadowed = context.get(node.var, _MISSING)
        total = 0
        for v in _domain_values(node.domain, context):
            context[node.var] = v
            if _eval_bool(node.body, context):
                total += 1
        _restore(context, node.var, shadowed)
        return total
    raise AssertionError(node)


def _eval_bool(node, context) -> bool:
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, BoolOp):
        if node.op == "and":
            return _eval_bool(node.left, context) and _eval_bool(node.right, context)
        return _eval_bool(node.left, context) or _eval_bool(node.right, context)
    if isinstance(node, Not):
        return not _eval_bool(node.arg, context)
    if isinstance(node, Cmp):
        return _COMPARE[node.op](_eval_value(node.left, context), _eval_value(node.right, context))
    if isinstance(node, Quant):
        # forall stops at the first False, exists at the first True
        decisive = node.quantifier == "exists"
        shadowed = context.get(node.var, _MISSING)
        result = not decisive
        for v in _domain_values(node.domain, context):
            context[node.var] = v
            if _eval_bool(node.body, context) == decisive:
                result = decisive
                break
        _restore(context, node.var, shadowed)
        return result
    raise TypeError(f"not a boolean expression: {node!r}")


def eval_shape(expr, test: ShapeObject, batch) -> bool:
    """Evaluate a rule with this=test against the given batch."""
    batch = list(batch)
    others = list(batch)
    others.remove(test)
    context = {"this": test, "__others__": tuple(others), "__all__": tuple(batch)}
    return _eval_bool(expr, context)


# ---------------------------------------------------------------------------
# Formatting

_PREC = {"or": 1, "and": 2}


def _fmt_value(node) -> str:
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, VarRef):
        return node.name
    if isinstance(node, Accessor):
        return f"{node.var}.{node.field}"
    if isinstance(node, Count):
        return f"count({node.var} in {node.domain}, {format_shape_concept(node.body)})"
    raise AssertionError(node)


def format_shape_concept(node, parent_prec=0) -> str:
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, BoolOp):
        prec = _PREC[node.op]
        text = (
            f"{format_shape_concept(node.left, prec)} {node.op} "
            f"{format_shape_concept(node.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Not):
        return f"not {format_shape_concept(node.arg, 3)}"
    if isinstance(node, Cmp):
        return f"{_fmt_value(node.left)} {node.op} {_fmt_value(node.right)}"
    if isinstance(node, Quant):
        body = format_shape_concept(node.body)
        return f"{node.quantifier}({node.var} in {node.domain}, {body})"
    raise TypeError(f"not a boolean expression: {node!r}")

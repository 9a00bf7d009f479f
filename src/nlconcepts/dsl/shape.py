"""Parser and evaluators for the logical shape-concept language.

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

Two evaluators share these semantics. `eval_shape` walks the tree for
one trial; it is the reference interpreter. `truth_values` walks it
once for all trials of a curve, encoded by `encode_trials`, with numpy
arrays as values: each bound variable adds a broadcast axis, and
quantifiers and `count` reduce it. The truth matrix the model fits and
predicts from (`harness.build_shape_task`) comes from `truth_values`,
so its walk dispatches on each node's exact type, most frequent first,
and calls numpy's ufuncs and their reductions directly. A quantifier
over `colors`, `shapes` or `sizes` reduces its body with no mask: the
set is never empty and each value on its axis is in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..types import COLORS, SHAPES, SIZES, ShapeObject
from .number import COMPARE, _CMP_OPS, BoolLit, BoolOp, Cmp, Not, _is_name, format_bool
from .number import _Parser as _BoolParser

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


# each shape, color and size name as one node that every tree shares
_CONSTANTS = {s: Const("shape", s) for s in SHAPES} | {c: Const("color", c) for c in COLORS}
_CONSTANTS |= {name: Const("int", size) for name, size in SIZE_CONSTS.items()}


def _value_kind(node) -> str:
    if isinstance(node, Accessor):
        return "int" if node.field == "size" else node.field
    return "int" if isinstance(node, Count) else node.kind


class _Parser(_BoolParser):
    """The number parser's tokens and boolean layer, with shape atoms
    and an environment of bound variables."""

    env = {"this": "object"}  # variable -> kind; a binder replaces it, never changes it

    def parse_atom(self):
        token = self.toks[self.i]
        if token == "(":
            self.open()
            node = self.parse_expr()
            self.close()
            return node
        if token == "true" or token == "false":
            self.i += 1
            return BoolLit(token == "true")
        if token == "forall" or token == "exists":
            self.i += 1
            return Quant(token, *self.parse_binder())
        return self.parse_comparison()

    def parse_binder(self):
        """`(var in domain, body)` after forall, exists or count, as
        (var, domain, body); var is bound in body only."""
        toks = self.toks
        self.open()
        i = self.i
        var = toks[i]
        if not _is_name(var):
            self.expected("name", i)
        if var in KEYWORDS or var in OBJECT_SETS or var in FEATURE_SETS:
            self.fail(f"{var!r} cannot be a variable name", i)
        if toks[i + 1] != "in":
            self.expected("in", i + 1)
        dom = toks[i + 2]
        var_kind = "object" if dom in OBJECT_SETS else FEATURE_SETS.get(dom)
        if var_kind is None:
            if not _is_name(dom):
                self.expected("name", i + 2)
            self.fail(f"unknown set {dom!r}", i + 2)
        if toks[i + 3] != ",":
            self.expected(",", i + 3)
        self.i = i + 4
        outer = self.env
        self.env = {**outer, var: var_kind}
        body = self.parse_expr()
        self.env = outer
        self.close()
        return var, dom, body

    def parse_comparison(self):
        left = self.parse_value()
        i = self.i
        op = _CMP_OPS.get(self.toks[i])
        if op is None:
            self.fail(f"expected a comparison operator, found {self.shown(i)!r}", i)
        self.i = i + 1
        right = self.parse_value()
        lk, rk = _value_kind(left), _value_kind(right)
        if lk != rk:
            self.fail(f"cannot compare {lk} with {rk}", i)
        if lk in ("shape", "color") and op not in ("==", "!="):
            self.fail(f"{lk} values support == and != only", i)
        return Cmp(op, left, right)

    def parse_value(self):
        toks, i = self.toks, self.i
        token = toks[i]
        self.i = i + 1
        if type(token) is int:
            return Const("int", token)
        if token == "count":
            return Count(*self.parse_binder())
        if token in _CONSTANTS:
            return _CONSTANTS[token]
        var_kind = self.env.get(token)
        if var_kind is None:
            if not _is_name(token):
                self.fail(f"unexpected token {self.shown(i)!r}", i)
            self.fail(f"unbound variable {token!r}", i)
        if var_kind != "object" and toks[i + 1] != ".":
            return VarRef(token, var_kind)
        if toks[i + 1] != ".":
            self.expected(".", i + 1)
        field = toks[i + 2]
        if field not in ("shape", "color", "size"):
            if not _is_name(field):
                self.expected("name", i + 2)
            self.fail(f"unknown field {field!r}", i + 2)
        if var_kind != "object":
            self.fail(f"{token!r} is not an object variable", i + 2)
        self.i = i + 3
        return Accessor(token, field)


def parse_shape_concept(src: str):
    """Parse and type-check a shape-concept rule."""
    return _Parser.parse(src)


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
        return COMPARE[node.op](_eval_value(node.left, context), _eval_value(node.right, context))
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
# Evaluation over arrays
#
# The semantics of eval_shape over all K trials of a curve at once. An
# expression under d binders works on arrays of d + 1 axes: axis 0 is the
# trial and axis i the variable of the i-th enclosing binder, over the 5
# batch slots or the 3 values of a feature set. Quantifiers and count
# reduce the last axis, so every value broadcasts against the others.
# Constant subtrees (`true`, `1 < 2`) stay Python or numpy scalars with
# no axes; ufuncs take them as they take arrays.

MAX_OBJECTS = 5
# Largest intermediate of a rule's evaluation, in array cells (8 MiB of int64)
CELL_BUDGET = 1 << 20

_DOMAIN_SIZE = {
    "others": MAX_OBJECTS,
    "all": MAX_OBJECTS,
    "colors": len(COLORS),
    "shapes": len(SHAPES),
    "sizes": len(SIZES),
}
_CODES = {"shape": {s: i for i, s in enumerate(SHAPES)}, "color": {c: i for i, c in enumerate(COLORS)}}
# each feature set's values as a (1, n) row, indexed as a field's slots are
_FEATURE_VALUES = {"shape": np.arange(len(SHAPES))[None], "color": np.arange(len(COLORS))[None], "int": np.array([SIZES])}


class TrialArrays(NamedTuple):
    """K trials as arrays, a row per trial and a column per batch slot.

    Shapes and colors are indices into SHAPES and COLORS, sizes are the
    sizes themselves. Batches hold 1-5 objects; the empty slots hold 0
    and lie outside `all`.
    """

    shape: np.ndarray  # (K, 5) int
    color: np.ndarray  # (K, 5) int
    size: np.ndarray  # (K, 5) int
    all: np.ndarray  # (K, 5) bool, the slots that hold an object
    others: np.ndarray  # (K, 5) bool, `all` less the first slot equal to `this`
    this_shape: np.ndarray  # (K,) int, the test object's features
    this_color: np.ndarray
    this_size: np.ndarray


def _codes(obj: ShapeObject):
    return _CODES["shape"][obj.shape], _CODES["color"][obj.color], obj.size


def encode_trials(trials) -> TrialArrays:
    """Encode a curve's trials for truth_values."""
    features = np.zeros((3, len(trials), MAX_OBJECTS), dtype=np.int64)
    this = np.zeros((3, len(trials)), dtype=np.int64)
    valid = np.zeros((len(trials), MAX_OBJECTS), dtype=bool)
    for k, trial in enumerate(trials):
        valid[k, : len(trial.batch)] = True
        for j, obj in enumerate(trial.batch):
            features[:, k, j] = _codes(obj)
        this[:, k] = _codes(trial.test)
    others = valid.copy()
    # as list.remove does: the first occurrence of the test object
    others[np.arange(len(trials)), [t.batch.index(t.test) for t in trials]] = False
    return TrialArrays(*features, valid, others, *this)


class _SlotIndex(dict):
    """Per (axis, depth), the index that puts the slots of a (K, 5) field,
    or the values of a (1, n) feature row, on `axis` of a value under
    `depth` binders; axis 0 takes a (K,) field of the test object."""

    def __missing__(self, key):
        axis, depth = key
        inner = (None,) * (axis - 1) + (slice(None),) if axis else ()
        self[key] = index = (slice(None),) + inner + (None,) * (depth - axis)
        return index


_SLOTS = _SlotIndex()


class _OverBudget(Exception):
    """An intermediate of a multi-trial evaluation would exceed CELL_BUDGET cells."""


def _binder(node, a, env, depth, cells):
    """(body, domain mask) of a quantifier or count, on a new last axis; a feature
    set's mask is None. `cells` counts the cells per trial of the values under the
    enclosing binders; an evaluation of more than one trial whose intermediates
    would outgrow the budget stops with _OverBudget before building them."""
    axis = depth + 1
    cells *= _DOMAIN_SIZE[node.domain]
    if len(a.all) > 1 and len(a.all) * cells > CELL_BUDGET:
        raise _OverBudget
    body = _array_bool(node.body, a, {**env, node.var: axis}, axis, cells)
    return body, getattr(a, node.domain)[_SLOTS[axis, axis]] if node.domain in OBJECT_SETS else None


def _array_value(node, a, env, depth, cells):
    kind = type(node)
    if kind is Accessor:
        axis = env[node.var]
        return getattr(a, node.field if axis else "this_" + node.field)[_SLOTS[axis, depth]]
    if kind is Const:
        return node.value if node.kind == "int" else _CODES[node.kind][node.value]
    if kind is Count:
        body, mask = _binder(node, a, env, depth, cells)
        if mask is None:  # a feature set, which the body may not span
            mask = np.ones((1,) * (depth + 1) + (_DOMAIN_SIZE[node.domain],), dtype=bool)
        return np.add.reduce(np.logical_and(body, mask), axis=-1)
    if kind is VarRef:
        return _FEATURE_VALUES[node.kind][_SLOTS[env[node.name], depth]]
    raise AssertionError(node)


def _array_bool(node, a, env, depth, cells):
    kind = type(node)
    if kind is Cmp:
        left = _array_value(node.left, a, env, depth, cells)
        return COMPARE[node.op](left, _array_value(node.right, a, env, depth, cells))
    if kind is BoolOp:
        left = _array_bool(node.left, a, env, depth, cells)
        right = _array_bool(node.right, a, env, depth, cells)
        return np.logical_and(left, right) if node.op == "and" else np.logical_or(left, right)
    if kind is Quant:
        body, mask = _binder(node, a, env, depth, cells)
        exists = node.quantifier == "exists"
        if mask is not None:
            if exists:
                return np.logical_or.reduce(np.logical_and(body, mask), axis=-1)
            return np.logical_and.reduce(np.logical_or(body, np.logical_not(mask)), axis=-1)
        # a feature set is never empty and holds every value of its axis, so
        # the body needs no mask (numpy reduces a 0-d constant over axis -1 to itself)
        return np.logical_or.reduce(body, axis=-1) if exists else np.logical_and.reduce(body, axis=-1)
    if kind is Not:
        return np.logical_not(_array_bool(node.arg, a, env, depth, cells))
    if kind is BoolLit:
        return node.value
    raise TypeError(f"not a boolean expression: {node!r}")


def _cells(node) -> int:
    """Cells per trial of the largest intermediate of a rule's evaluation."""
    if isinstance(node, (Quant, Count)):
        return _DOMAIN_SIZE[node.domain] * _cells(node.body)
    if isinstance(node, (Cmp, BoolOp)):
        return max(_cells(node.left), _cells(node.right))
    if isinstance(node, Not):
        return _cells(node.arg)
    return 1


def truth_values(expr, arrays: TrialArrays) -> np.ndarray:
    """eval_shape's value of a parsed rule on each trial encoded by
    encode_trials, as a (K,) bool vector.

    Trials are evaluated in chunks so that no intermediate holds more
    than CELL_BUDGET cells. A chunk holds at least one trial, so the
    budget does not bound a rule whose nested binders span more cells
    than that for one trial (nine nested object binders do: 5^9).
    All trials form one chunk when the budget allows: the evaluation
    tries that first and walks the rule for its chunk size (`_cells`)
    only when it stops at a binder the budget does not allow.
    """
    out = np.empty(len(arrays.all), dtype=bool)
    if len(out) <= CELL_BUDGET:
        try:
            out[:] = _array_bool(expr, arrays, {"this": 0}, 0, 1)
            return out
        except _OverBudget:
            pass
    step = max(1, CELL_BUDGET // _cells(expr))
    for lo in range(0, len(out), step):
        chunk = TrialArrays(*(a[lo : lo + step] for a in arrays))
        out[lo : lo + step] = _array_bool(expr, chunk, {"this": 0}, 0, 1)
    return out


# ---------------------------------------------------------------------------
# Formatting


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


def format_shape_concept(node) -> str:
    return format_bool(node, _fmt_shape_leaf)


def _fmt_shape_leaf(node) -> str:
    if isinstance(node, Cmp):
        return f"{_fmt_value(node.left)} {node.op} {_fmt_value(node.right)}"
    if isinstance(node, Quant):
        body = format_shape_concept(node.body)
        return f"{node.quantifier}({node.var} in {node.domain}, {body})"
    raise TypeError(f"not a boolean expression: {node!r}")

"""Random AST generators for fuzzing the parsers and evaluators.

Number predicates are drawn from the parser's own table
(`number.PREDICATES`); a test holds the shipped grammar file to it.
"""

from __future__ import annotations

import random

from ..types import COLORS, SHAPES
from . import number as N
from . import shape as S

# (name, arity) pairs, sorted so that a seed always draws the same predicates
_NUMBER_PREDICATES = sorted(N.PREDICATES.items())


def random_number_arith(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return N.Var() if rng.random() < 0.5 else N.Lit(rng.randint(0, 100))
    op = rng.choice(["+", "-", "*", "mod", "^"])
    left = random_number_arith(rng, depth - 1)
    if op == "^":
        return N.Arith(op, left, N.Lit(rng.randint(0, 4)))
    return N.Arith(op, left, random_number_arith(rng, depth - 1))


def random_number_expr(rng: random.Random, depth: int = 3):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        name, arity = rng.choice(_NUMBER_PREDICATES)
        if name == "between":
            lo = rng.randint(1, 90)
            args = (N.Lit(lo), N.Lit(lo + rng.randint(0, 10)), N.Var())
        elif arity == 2:
            args = (N.Lit(rng.randint(0, 10)), N.Var())
        else:
            args = (N.Var(),)
        return N.Pred(name, args)
    if roll < 0.45:
        members = tuple(sorted({rng.randint(1, 100) for _ in range(rng.randint(1, 5))}))
        return N.InSet(members, N.Var())
    if roll < 0.6:
        op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
        return N.Cmp(op, random_number_arith(rng, 2), random_number_arith(rng, 2))
    if roll < 0.7:
        return N.Not(random_number_expr(rng, depth - 1))
    op = rng.choice(["and", "or"])
    return N.BoolOp(op, random_number_expr(rng, depth - 1), random_number_expr(rng, depth - 1))


def random_shape_value(rng: random.Random, env: dict, kind: str, depth: int):
    object_vars = [v for v, k in env.items() if k == "object"]
    feature_vars = [v for v, k in env.items() if k == kind]
    choices = []
    if kind == "shape":
        choices.append(lambda: S.Const("shape", rng.choice(SHAPES)))
    elif kind == "color":
        choices.append(lambda: S.Const("color", rng.choice(COLORS)))
    else:
        choices.append(lambda: S.Const("int", rng.randint(1, 3)))
        if depth > 0:
            choices.append(lambda: _random_count(rng, env, depth))
    field = {"shape": "shape", "color": "color", "int": "size"}[kind]
    choices.append(lambda: S.Accessor(rng.choice(object_vars), field))
    if feature_vars:
        choices.append(lambda: S.VarRef(rng.choice(feature_vars), kind))
    return rng.choice(choices)()


def _fresh_var(env: dict, base: str) -> str:
    name = base
    suffix = 2
    while name in env:
        name = f"{base}{suffix}"
        suffix += 1
    return name


def _random_count(rng: random.Random, env: dict, depth: int):
    var = _fresh_var(env, "o")
    dom = rng.choice(["others", "all"])
    inner = dict(env, **{var: "object"})
    return S.Count(var, dom, random_shape_expr(rng, depth - 1, inner))


def random_shape_expr(rng: random.Random, depth: int = 3, env: dict | None = None):
    env = env if env is not None else {"this": "object"}
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        kind = rng.choice(["shape", "color", "int"])
        left = random_shape_value(rng, env, kind, depth)
        right = random_shape_value(rng, env, kind, depth)
        ops = ("==", "!=") if kind in ("shape", "color") else ("==", "!=", "<", "<=", ">", ">=")
        return S.Cmp(rng.choice(ops), left, right)
    if roll < 0.65:
        quantifier = rng.choice(["forall", "exists"])
        dom = rng.choice(["others", "all", "colors", "shapes", "sizes"])
        kind = {"colors": "color", "shapes": "shape", "sizes": "int"}.get(dom, "object")
        base = "o" if kind == "object" else dom[0]
        var = _fresh_var(env, base)
        inner = dict(env, **{var: kind})
        return S.Quant(quantifier, var, dom, random_shape_expr(rng, depth - 1, inner))
    if roll < 0.75:
        return S.Not(random_shape_expr(rng, depth - 1, env))
    op = rng.choice(["and", "or"])
    return S.BoolOp(
        op, random_shape_expr(rng, depth - 1, env), random_shape_expr(rng, depth - 1, env)
    )

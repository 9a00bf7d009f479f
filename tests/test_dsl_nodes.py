"""Value semantics of the syntax-tree nodes of both languages: equality,
hashing, repr, pickling and layout."""

import dataclasses
import pickle
import random

import pytest

from nlconcepts.dsl import number as N
from nlconcepts.dsl import parse_number_concept, parse_shape_concept
from nlconcepts.dsl import shape as S
from nlconcepts.dsl.generate import random_number_expr, random_shape_expr

# per node class, the fields of one instance and of one that differs in one field
NODES = {
    N.Lit: ((3,), (4,)),
    N.Var: ((), None),
    N.Arith: (("+", N.Var(), N.Lit(1)), ("+", N.Var(), N.Lit(2))),
    N.Cmp: (("<", N.Var(), N.Lit(3)), ("<=", N.Var(), N.Lit(3))),
    N.Pred: (("multiple", (N.Lit(3), N.Var())), ("multiple", (N.Lit(4), N.Var()))),
    N.InSet: (((2, 4), N.Var()), ((2, 5), N.Var())),
    N.BoolOp: (("and", N.BoolLit(True), N.BoolLit(False)), ("or", N.BoolLit(True), N.BoolLit(False))),
    N.Not: ((N.BoolLit(True),), (N.BoolLit(False),)),
    N.BoolLit: ((True,), (False,)),
    S.Const: (("color", "green"), ("color", "blue")),
    S.VarRef: (("c", "color"), ("s", "color")),
    S.Accessor: (("this", "size"), ("this", "color")),
    S.Count: (("o", "all", N.BoolLit(True)), ("o", "others", N.BoolLit(True))),
    S.Quant: (("forall", "o", "all", N.BoolLit(True)), ("exists", "o", "all", N.BoolLit(True))),
}


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_nodes_with_equal_fields_are_equal_and_hash_alike(cls):
    fields, other = NODES[cls]
    node = cls(*fields)
    assert node == cls(*fields) and not node != cls(*fields)
    assert hash(node) == hash(cls(*fields))
    assert len({node, cls(*fields)}) == 1
    if other is not None:
        assert node != cls(*other) and not node == cls(*other)
    assert node != fields and node != None  # noqa: E711


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_nodes_have_no_instance_dict(cls):
    node = cls(*NODES[cls][0])
    assert not hasattr(node, "__dict__")


def test_equality_needs_the_same_class():
    """Fields alone do not make nodes equal: 1 == True, but not as nodes."""
    assert N.Lit(1) != N.BoolLit(True)
    assert N.Var() == N.Var()
    assert N.Cmp("and", N.Var(), N.Var()) != N.BoolOp("and", N.Var(), N.Var())
    assert S.Count("o", "all", N.BoolLit(True)) != S.Quant("o", "all", N.BoolLit(True), None)


def test_repr_is_the_dataclass_text():
    assert repr(parse_number_concept("x < 3")) == "Cmp(op='<', left=Var(), right=Lit(value=3))"
    assert repr(parse_number_concept("not in_set({2, 4}, x) or even(x ^ 2)")) == (
        "BoolOp(op='or', left=Not(arg=InSet(members=(2, 4), arg=Var())), "
        "right=Pred(name='even', args=(Arith(op='^', left=Var(), right=Lit(value=2)),)))"
    )
    assert repr(parse_shape_concept("exists(s in shapes, count(o in others, o.shape == s) >= 2 and true)")) == (
        "Quant(quantifier='exists', var='s', domain='shapes', body=BoolOp(op='and', "
        "left=Cmp(op='>=', left=Count(var='o', domain='others', body=Cmp(op='==', "
        "left=Accessor(var='o', field='shape'), right=VarRef(name='s', kind='shape'))), "
        "right=Const(kind='int', value=2)), right=BoolLit(value=True)))"
    )


@pytest.mark.parametrize("generate", [random_number_expr, random_shape_expr])
def test_fuzzed_trees_pickle_round_trip(generate):
    rng = random.Random(7)
    for _ in range(300):
        tree = generate(rng, 4)
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and hash(copy) == hash(tree) and repr(copy) == repr(tree)
        assert type(copy) is type(tree)


def test_a_tree_at_the_depth_limit_hashes_and_prints():
    """Hashing and printing recurse once per level, like comparing."""
    tree = parse_number_concept("not " * (N.MAX_DEPTH - 2) + "x < 3")
    assert N._depth(tree) == N.MAX_DEPTH
    assert hash(tree) == hash(parse_number_concept(N.format_number_concept(tree)))
    assert repr(tree).startswith("Not(arg=Not(arg=")


@pytest.mark.parametrize("module", [N, S], ids=lambda module: module.__name__)
def test_no_node_class_is_a_dataclass(module):
    """The nodes are plain classes: importing the languages generates no code."""
    own = [obj for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert N.Lit in own or S.Quant in own
    assert [cls.__name__ for cls in own if dataclasses.is_dataclass(cls)] == []

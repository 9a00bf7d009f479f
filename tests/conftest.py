import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

sys.path.insert(0, str(REPO / "src"))

from nlconcepts.io import make_hypothesis  # noqa: E402
from nlconcepts.types import LearningCurve, ShapeObject, Trial  # noqa: E402


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def repo_root():
    return REPO


G1 = ShapeObject("triangle", "green", 1)
B2 = ShapeObject("circle", "blue", 2)
Y3 = ShapeObject("rectangle", "yellow", 3)
G3 = ShapeObject("circle", "green", 3)
B1 = ShapeObject("triangle", "blue", 1)


def synthetic_shape_curve():
    batches = [
        [Trial((G1, B2, Y3), G1, True), Trial((G1, B2, Y3), B2, False)],
        [Trial((G3, B1), G3, True), Trial((G3, B1), B1, False)],
        [
            Trial((B2, Y3, G3, G1), Y3, False),
            Trial((B2, Y3, G3, G1), G1, True),
            Trial((B2, Y3, G3, G1), B2, True),
        ],
        [Trial((G1, G3), G3, True), Trial((G1, G3), G1, True)],
        [Trial((B1, Y3, G1), B1, False), Trial((B1, Y3, G1), G1, True), Trial((B1, Y3, G1), Y3, False)],
    ]
    rates = [0.6, 0.3, 0.7, 0.4, 0.2, 0.8, 0.5, 0.9, 0.75, 0.1, 0.85, 0.25]
    return LearningCurve("synthetic", "green things", batches, rates)


def synthetic_shape_pool():
    """Duplicates, rules that never parse, and rules that join only at
    later batches: nothing is visible before batch 2."""
    rules = [
        ("it is green", "this.color == green", 2),
        ("it is a triangle", "this.shape == triangle", 3),
        ("it is green", "this.color == green", 4),  # duplicate: first occurrence wins
        ("it shares a color", "exists(o in others, o.color == this.color)", 2),
        ("it sparkles", "this.sparkle ==", None),  # never parses
        ("it is not small", "this.size >= 2", 4),
        ("it is the largest", "forall(o in others, o.size <= this.size)", 2),
        ("it is not blue", "not this.color == blue", 3),
        (
            "its color is the most common",
            "forall(c in colors, count(o in all, o.color == this.color)"
            " >= count(o in all, o.color == c))",
            5,
        ),
        ("it is not blue", "not this.color == blue", 2),  # duplicate with an earlier join
        ("it is garbled", "exists(o in", 2),  # never parses
    ]
    return [make_hypothesis(nl, src, "shape", batch=b) for nl, src, b in rules]


def exchangeable_shape_pool():
    """Rules on `synthetic_shape_curve` that share truth rows: different
    NL with equal DSL, equal truth rows from different DSL (the curve's
    objects are green, blue or yellow), equal and different joins (no
    source batch joins at batch 1), and two rows that never parse."""
    rules = [
        ("it is green", "this.color == green", 2),
        ("it is a green thing", "this.color == green", 2),
        ("its colour is green", "this.color == green", 3),
        ("it is neither blue nor yellow", "not this.color == blue and not this.color == yellow", 2),
        ("it is a triangle", "this.shape == triangle", None),
        ("it is triangular", "this.shape == triangle", 1),
        ("it is large", "this.size >= 2", 4),
        ("it sparkles", "this.sparkle ==", None),  # never parses
        ("it is the largest", "forall(o in others, o.size <= this.size)", 5),
        ("it is garbled", "exists(o in", 2),  # never parses
        ("it is not blue", "not this.color == blue", 1),
    ]
    return [make_hypothesis(nl, src, "shape", batch=b) for nl, src, b in rules]


def write_v2_store(store, root: Path) -> None:
    """Write every entry of `store` as a store of the earlier layout:
    one indented `<key>.json` file per entry, which `migrate` converts."""
    root.mkdir(parents=True)
    for key in store.keys():
        (root / f"{key}.json").write_text(json.dumps(store.entry(key), indent=2))

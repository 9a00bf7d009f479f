import hashlib
import json
import sys
import zlib
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


def write_repeated_judgments(path):
    """The fixture judgments with their first row (set01, test number
    11) appended once more, 49 rows, written to `path`; returns it."""
    lines = (FIXTURES / "number_judgments.csv").read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[1:2]))
    return path


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


def v2_request_bytes(prompt, params) -> bytes:
    """A request as the earlier layouts encoded and keyed it."""
    return json.dumps({"prompt": prompt, "params": params}, sort_keys=True).encode("utf-8")


def log_record(request: bytes, completions: bytes) -> bytes:
    """A log record of the request and completions bytes, keyed by the
    sha256 of the request: the record layout the v2 and v3 logs share."""
    key = hashlib.sha256(request).hexdigest()
    crc = zlib.crc32(key.encode() + request + completions)
    return f"{key} {len(request):010d} {len(completions):010d} {crc:08x}\n".encode() + request + completions


def write_v2_store(store, root: Path) -> None:
    """Write every entry of `store` as a store of the earliest layout:
    one indented `<v2 key>.json` file per entry, which a store refuses."""
    root.mkdir(parents=True)
    for key in store.keys():
        entry = store.entry(key)
        v2_key = hashlib.sha256(v2_request_bytes(entry["prompt"], entry["params"])).hexdigest()
        (root / f"{v2_key}.json").write_text(json.dumps(entry, indent=2))

"""Regenerate every shipped fixture, deterministically.

Run from the repository root:

    python3 fixtures/make_fixtures.py

Outputs (all under fixtures/):
  * number_pool_size_principle.jsonl  -- four-concept pool for the size
    principle demonstration
  * number/setNN.jsonl                -- per-example-set hypothesis pools
  * number_judgments.csv              -- synthetic ratings produced by a
    known parameter vector (params_true.json)
  * shape/green_triangles_curve.json  -- 15-batch online episode
  * shape/green_triangles_pool.jsonl  -- scripted per-batch proposals
  * replay/entries.v3.log             -- recorded completions for the
    replay-backed proposal pipeline, one append-only log keyed by the
    sha256 of each request's sorted-key orjson bytes (key v3)
  * configs/*.json                    -- sample experiment configs
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT.parent / "src"))

from nlconcepts import io  # noqa: E402
from nlconcepts.dsl import SHAPE as SHAPE_DOMAIN  # noqa: E402
from nlconcepts.fit import loss_and_grad, pack_params  # noqa: E402
from nlconcepts.harness import (  # noqa: E402
    ExperimentConfig,
    build_number_task,
    run_experiment,
)
from nlconcepts.prior import FeatureExtractor  # noqa: E402
from nlconcepts.propose.backends import TRANSLATION_PARAMS, translation_prompt  # noqa: E402
from nlconcepts.propose.prompts import ProposalRequest, build_prompt, request_params  # noqa: E402
from nlconcepts.propose.replay import LOG_NAME, ReplayStore  # noqa: E402
from nlconcepts.types import (  # noqa: E402
    HumanNumberJudgment,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    ShapeObject,
    Trial,
)

FEATURE_DIM = 64

TRUE_PARAMS = dict(
    epsilon=0.1,
    alpha=0.5,
    beta=1.0,
    temperature=1.0,
    platt_a=1.5,
    platt_b=-0.4,
)


# ---------------------------------------------------------------------------
# Size-principle pool (fixed four concepts)


def make_size_principle_pool():
    rows = [
        ("the number is a power of 2", "power(2, x)"),
        ("the number is even", "even(x)"),
        ("the number is a perfect square", "square(x)"),
        ("the number is less than 70", "x < 70"),
    ]
    pool = [io.make_hypothesis(nl, dsl, "number") for nl, dsl in rows]
    io.save_pool(ROOT / "number_pool_size_principle.jsonl", pool)


# ---------------------------------------------------------------------------
# Number Game sets: pools + synthetic judgments


def _in_set_nl(style: int, members) -> str:
    body = ", ".join(str(m) for m in members)
    styles = [
        f"the number is one of {body}",
        f"the number belongs to the set {{{body}}}",
        f"the number is drawn from {body}",
        f"one of the special numbers {body}",
        f"the number appears in the list {body}",
        f"a member of {{{body}}}",
    ]
    return styles[style % len(styles)]


def make_number_sets(rng):
    """Eight example sets. Each pool holds several equal-size in_set
    hypotheses consistent with the examples (so the prior, not the
    likelihood, decides among them), plus broader predicate concepts, a
    duplicate-meaning pair, and one unparsed entry."""
    (ROOT / "number").mkdir(exist_ok=True)
    base_sets = {
        "set01": [2, 4, 8, 16],
        "set02": [3, 9, 27, 81],
        "set03": [10, 30, 60, 90],
        "set04": [5, 15, 25, 35],
        "set05": [12, 24, 48, 96],
        "set06": [7, 14, 21, 28],
        "set07": [11, 22, 44, 88],
        "set08": [6, 36, 66, 96],
    }
    broad = [
        ("the number is even", "even(x)"),
        ("an even number", "even(x)"),  # duplicate meaning, different text
        ("the number is odd", "odd(x)"),
        ("the number is less than 50", "x < 50"),
        ("the number is at most 100", "x <= 100"),
    ]
    pools = {}
    tests = {}
    for set_id, examples in base_sets.items():
        others = [n for n in range(1, 101) if n not in examples]
        rng.shuffle(others)
        extras = others[:8]  # candidate completions of the extension
        entries = []
        # six in_set hypotheses: examples + 2 extras each, same size (6)
        for i in range(6):
            members = sorted(examples + [extras[(2 * i) % 8], extras[(2 * i + 1) % 8]])
            nl = _in_set_nl(i, members)
            dsl = "in_set({" + ", ".join(str(m) for m in members) + "}, x)"
            entries.append((nl, dsl))
        entries.extend(broad)
        entries.append(("the vibes are immaculate", "vibes(x)"))  # unparsed
        pool = [io.make_hypothesis(nl, dsl, "number") for nl, dsl in entries]
        pools[set_id] = pool
        io.save_pool(ROOT / "number" / f"{set_id}.jsonl", pool)
        # test numbers: the extras (which split the in_set family) plus
        # one clear outsider
        outsider = others[-1]
        tests[set_id] = extras[:5] + [outsider]
    return base_sets, pools, tests


def make_true_theta(rng, pools):
    """A sparse preference vector: boost a few phrasing styles."""
    ext = FeatureExtractor(dim=FEATURE_DIM)
    theta = np.zeros(FEATURE_DIM)
    favored = [
        "the number belongs to the set",
        "one of the special numbers",
        "the number is even",
    ]
    for phrase in favored:
        theta += 2.0 * ext(phrase)
    disfavored = ["the number is drawn from", "a member of"]
    for phrase in disfavored:
        theta -= 1.5 * ext(phrase)
    return theta


def make_number_judgments(base_sets, pools, tests, theta):
    cfg = ExperimentConfig(domain="number", prior="tuned", feature_dim=FEATURE_DIM)
    ext = FeatureExtractor(dim=FEATURE_DIM)
    params = ModelParams(theta=theta, **TRUE_PARAMS)
    u = pack_params(params)
    judgments = []
    for set_id, examples in base_sets.items():
        example_set = NumberExampleSet(examples)
        test_list = [(t, 0.0, f"{set_id}:{t}") for t in tests[set_id]]
        task = build_number_task(cfg, pools[set_id], example_set, test_list, ext)
        _, _, records = loss_and_grad(u, [task], FEATURE_DIM, want_grad=False)
        for (datum_id, pred, _), t in zip(records, tests[set_id]):
            judgments.append(
                HumanNumberJudgment(
                    example_set=example_set,
                    test_number=t,
                    mean_rating=pred,
                    set_id=set_id,
                )
            )
    io.save_number_judgments(ROOT / "number_judgments.csv", judgments)
    (ROOT / "params_true.json").write_text(
        json.dumps({"theta": [float(x) for x in theta], **TRUE_PARAMS}, indent=2)
    )


# ---------------------------------------------------------------------------
# Green-triangles online fixture


def make_green_triangles(rng):
    (ROOT / "shape").mkdir(exist_ok=True)
    planted_nl = "something is positive if it is a green triangle"
    planted_dsl = "this.color == green and this.shape == triangle"

    def is_positive(o):
        return o.color == "green" and o.shape == "triangle"

    universe = [
        ShapeObject(s, c, z)
        for s in ("triangle", "rectangle", "circle")
        for c in ("green", "yellow", "blue")
        for z in (1, 2, 3)
    ]
    batches = []
    for b in range(15):
        size = int(rng.integers(3, 6))
        idx = rng.choice(len(universe), size=size, replace=False)
        objs = [universe[i] for i in idx]
        # make sure every batch shows at least one positive and one
        # negative so distractors keep getting falsified
        if not any(is_positive(o) for o in objs):
            objs[0] = ShapeObject("triangle", "green", int(rng.integers(1, 4)))
        if all(is_positive(o) for o in objs):
            objs[-1] = ShapeObject("circle", "blue", int(rng.integers(1, 4)))
        batches.append([Trial(objs, o, is_positive(o)) for o in objs])
    rates = [0.8 * float(t.label) + 0.1 for batch in batches for t in batch]
    curve = LearningCurve("green_triangles", planted_nl, batches, rates)
    io.save_learning_curve(ROOT / "shape" / "green_triangles_curve.json", curve)

    # scripted proposals: the planted rule arrives first in batch 1,
    # followed by distractors (and junk) spread over later batches
    distractors = [
        ("something is positive if it is green", "this.color == green", 1),
        ("something is positive if it is a triangle", "this.shape == triangle", 1),
        ("something is positive if it is small", "this.size == 1", 1),
        ("something is positive if it is not blue", "not this.color == blue", 2),
        ("something is positive if it is a green object or a circle",
         "this.color == green or this.shape == circle", 2),
        ("something is positive if it is the only triangle",
         "this.shape == triangle and not exists(o in others, o.shape == triangle)", 3),
        ("something is positive if most objects share its color",
         "forall(c in colors, count(o in all, o.color == this.color) >= count(o in all, o.color == c))", 4),
        ("something is positive if it is greenish in spirit", "???", 5),  # unparsed
        ("something is positive if it is a yellow rectangle",
         "this.color == yellow and this.shape == rectangle", 6),
    ]
    rows = [(planted_nl, planted_dsl, 1)]
    rows += distractors
    pool = [
        io.make_hypothesis(nl, dsl, SHAPE_DOMAIN, batch=b) for nl, dsl, b in rows
    ]
    io.save_pool(ROOT / "shape" / "green_triangles_pool.jsonl", pool)
    return curve, pool


def check_green_triangles(curve, pool):
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(
        theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5, temperature=1.0
    )
    details = run_experiment(cfg, [curve], {"green_triangles": pool}, params).details
    per_batch = details["green_triangles"]["per_batch"]
    final_acc = per_batch[-1]["accuracy"]
    maps = [row["map_nl"] for row in per_batch]
    assert final_acc >= 0.9, f"batch-15 accuracy {final_acc}"
    assert all(m == curve.ground_truth_nl for m in maps), maps
    print(f"green triangles: batch-15 accuracy {final_acc:.3f}, MAP stable from batch 1")


# ---------------------------------------------------------------------------
# Replay store fixture


def make_replay_store():
    store_dir = ROOT / "replay"
    (store_dir / LOG_NAME).unlink(missing_ok=True)
    store = ReplayStore(store_dir)
    examples = NumberExampleSet([16, 8, 2, 64])
    req = ProposalRequest(domain="number", examples=examples, budget=5, seed=0)
    prompt = build_prompt(req)
    params = request_params(req)
    completions = [
        {"text": "a power of 2", "logprob": -3.1},
        {"text": "even", "logprob": -1.9},
        {"text": "a power of 2", "logprob": -3.1},
        {"text": "a perfect square", "logprob": -4.2},
        {"text": "less than 70", "logprob": -4.8},
    ]
    store.record(prompt, params, completions)
    translations = {
        "the number is a power of 2": "power(2, x)",
        "the number is even": "even(x)",
        "the number is a perfect square": "square(x)",
        "the number is less than 70": "x < 70",
    }
    for nl, program in translations.items():
        store.record(translation_prompt(nl, "number"), TRANSLATION_PARAMS, [
            {"text": program, "logprob": None}
        ])


# ---------------------------------------------------------------------------
# Sample configs


def make_configs():
    (ROOT / "configs").mkdir(exist_ok=True)
    pools = {f"set{i:02d}": f"fixtures/number/set{i:02d}.jsonl" for i in range(1, 9)}
    common = {
        "domain": "number",
        "data_path": "fixtures/number_judgments.csv",
        "pools": pools,
        "feature_dim": FEATURE_DIM,
        "budget": 100,
        "seed": 0,
        "fit": {"epochs": 1000},
    }
    (ROOT / "configs" / "number_uniform.json").write_text(
        json.dumps(
            {
                **common,
                "prior": "uniform",
                "fit": {**common["fit"], "trainable": ["epsilon", "temperature", "platt"]},
            },
            indent=2,
        )
    )
    (ROOT / "configs" / "number_tuned.json").write_text(
        json.dumps({**common, "prior": "tuned"}, indent=2)
    )
    (ROOT / "configs" / "shape_online.json").write_text(
        json.dumps(
            {
                "domain": "shape",
                "data_path": "fixtures/shape",
                "pools": {
                    "green_triangles": "fixtures/shape/green_triangles_pool.jsonl"
                },
                "prior": "uniform",
                "feature_dim": 0,
                "seed": 0,
                "fit": {
                    "epochs": 100,
                    "trainable": ["epsilon", "alpha", "beta", "temperature"],
                },
            },
            indent=2,
        )
    )


def main():
    rng = np.random.default_rng(20240613)
    make_size_principle_pool()
    base_sets, pools, tests = make_number_sets(rng)
    theta = make_true_theta(rng, pools)
    make_number_judgments(base_sets, pools, tests, theta)
    curve, pool = make_green_triangles(rng)
    check_green_triangles(curve, pool)
    make_replay_store()
    make_configs()
    print("fixtures written to", ROOT)


if __name__ == "__main__":
    main()

"""Readers and writers for the on-disk data formats.

Hypothesis pool: JSON Lines, one object per line:
    {"nl": str, "dsl": str, "logq": float|null, "batch": int|null}
`logq` and `batch` may be left out, as null, and `dsl` too, as "" (a
rule that does not parse). A row that is not such an object, whose
`logq` is not a finite number, or whose `batch` is not an integer (a
bool is neither) is refused as PoolFileError. A finite number is a
float other than NaN and +/-Infinity, or an integer that converts to a
float without overflow: 10**300 loads as written, a 400-digit integer
is refused. A rule whose DSL does not parse is kept as Unparsed
(`parse_program`, which translation uses too). A pool file that holds
no hypotheses, where one is needed, is refused as EmptyPool.

Number judgments: CSV with header set_id,examples,test_number,mean_rating
where examples is a ';'-separated integer list and mean_rating is the
raw 1-7 mean (normalized to [0,1] at load).

Learning curve: JSON with concept_id, ground_truth_nl, batches (lists of
{"shape","color","size","label"} objects) and human_positive_rate per
trial.

Score file: JSON Lines {"nl": str, "logp": float}. A row that is not
such an object, or whose logp is not a finite number as a pool's `logq`
must be, is refused as ScoreFileError; logp is kept as a float.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from .dsl import DslSyntaxError, parse_concept
from .types import (
    Hypothesis,
    HumanNumberJudgment,
    LearningCurve,
    NumberExampleSet,
    ShapeObject,
    Trial,
    Unparsed,
    canonicalize_nl,
    normalize_rating,
)


class EmptyPool(ValueError):
    """A pool file with no hypothesis in it; the one argument is its path."""

    def __str__(self):
        return f"pool file {self.args[0]} holds no hypotheses"


class PoolFileError(ValueError):
    """A pool file row that is not {"nl": str, "dsl": str, "logq": finite
    number|null, "batch": int|null}; the arguments are the file, the line
    number (from 1) and the fault."""

    def __str__(self):
        return "pool file {}, line {}: {}".format(*self.args)


class ScoreFileError(ValueError):
    """A score file row that is not {"nl": str, "logp": finite number};
    the arguments are the file, the line number (from 1) and the fault."""

    def __str__(self):
        return "score file {}, line {}: {}".format(*self.args)


def load_pool(path, domain: str) -> List[Hypothesis]:
    """Load a hypothesis pool, parsing each distinct DSL source once per
    call: rows with equal `dsl` share one program, and so its memoized
    number extension. Each row's text is canonicalized once, by the
    `Hypothesis` it builds; a row whose text is not canonical (a pool
    `save_pool` did not write) is built again from its key.

    Rules that fail to parse are kept as Unparsed so the pool size still
    matches the proposal budget. A malformed row is a PoolFileError
    naming the file and the line.
    """
    programs = {}  # DSL source -> ConceptProgram or Unparsed
    out = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            raise PoolFileError(path, number, "not a JSON object") from None
        if type(row) is not dict:
            raise PoolFileError(path, number, "not a JSON object")
        nl, src, logq, batch = row.get("nl"), row.get("dsl", ""), row.get("logq"), row.get("batch")
        # exact type tests: JSON gives no subclasses, and a bool is no number here
        if type(nl) is not str:
            raise PoolFileError(path, number, "no string 'nl'")
        if type(src) is not str:
            raise PoolFileError(path, number, f"'dsl' is not a string: {src!r}")
        if not (logq is None or type(logq) is int or type(logq) is float and math.isfinite(logq)):
            raise PoolFileError(path, number, f"'logq' is not a finite number: {logq!r}")
        if type(logq) is int and not _fits_float(logq):
            raise PoolFileError(path, number, _TOO_LARGE.format("logq"))
        if not (batch is None or type(batch) is int):
            raise PoolFileError(path, number, f"'batch' is not an integer: {batch!r}")
        if src not in programs:
            programs[src] = parse_program(src, domain)
        h = Hypothesis(nl, programs[src], logq, batch)
        out.append(h if h.nl_text == h.key else replace(h, nl_text=h.key))
    return out


def parse_program(src: str, domain: str):
    """The parsed program, or Unparsed when the source does not parse."""
    try:
        return parse_concept(src, domain)
    except DslSyntaxError:
        return Unparsed(src)


def make_hypothesis(nl, dsl_src, domain, logq=None, batch=None) -> Hypothesis:
    return Hypothesis(
        nl_text=canonicalize_nl(nl),
        program=parse_program(dsl_src, domain),
        proposal_logprob=logq,
        source_batch=batch,
    )


def save_pool(path, pool: List[Hypothesis]) -> None:
    from .dsl import format_concept

    lines = []
    for h in pool:
        dsl_src = h.program.source if isinstance(h.program, Unparsed) else format_concept(h.program)
        lines.append(
            json.dumps(
                {
                    "nl": h.nl_text,
                    "dsl": dsl_src,
                    "logq": h.proposal_logprob,
                    "batch": h.source_batch,
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_number_judgments(path) -> List[HumanNumberJudgment]:
    out = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            examples = NumberExampleSet(
                [int(x) for x in row["examples"].split(";")]
            )
            out.append(
                HumanNumberJudgment(
                    example_set=examples,
                    test_number=int(row["test_number"]),
                    mean_rating=normalize_rating(float(row["mean_rating"])),
                    set_id=row["set_id"],
                )
            )
    return out


def save_number_judgments(path, judgments: List[HumanNumberJudgment]) -> None:
    """Inverse of load_number_judgments; ratings are written back on the
    raw 1-7 scale."""
    rows = (
        [j.set_id, ";".join(map(str, j.example_set.examples)), j.test_number, f"{j.mean_rating * 6.0 + 1.0:.6f}"]
        for j in judgments
    )
    write_csv(path, ["set_id", "examples", "test_number", "mean_rating"], rows)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file of the header row, then `rows`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def load_learning_curve(path) -> LearningCurve:
    data = json.loads(Path(path).read_text())
    batches = []
    for raw_batch in data["batches"]:
        objects = [ShapeObject(o["shape"], o["color"], o["size"]) for o in raw_batch]
        trials = [
            Trial(batch=objects, test=obj, label=bool(raw["label"]))
            for obj, raw in zip(objects, raw_batch)
        ]
        batches.append(trials)
    return LearningCurve(
        concept_id=data["concept_id"],
        ground_truth_nl=data["ground_truth_nl"],
        batches=batches,
        human_positive_rate=data["human_positive_rate"],
    )


def save_learning_curve(path, curve: LearningCurve) -> None:
    batches = []
    for batch in curve.batches:
        batches.append(
            [
                {
                    "shape": t.test.shape,
                    "color": t.test.color,
                    "size": t.test.size,
                    "label": int(t.label),
                }
                for t in batch
            ]
        )
    Path(path).write_text(
        json.dumps(
            {
                "concept_id": curve.concept_id,
                "ground_truth_nl": curve.ground_truth_nl,
                "batches": batches,
                "human_positive_rate": list(curve.human_positive_rate),
            },
            indent=2,
        )
    )


def load_score_file(path) -> Dict[str, float]:
    """The external prior's log-prior of each canonical NL text; a row
    that is not {"nl": str, "logp": finite number} is a ScoreFileError
    naming the file and the line."""
    scores = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            raise ScoreFileError(path, number, "not a JSON object") from None
        if not isinstance(row, dict) or not isinstance(row.get("nl"), str):
            raise ScoreFileError(path, number, "no string 'nl'")
        if "logp" not in row:
            raise ScoreFileError(path, number, "no 'logp'")
        logp = row["logp"]
        if isinstance(logp, bool) or not isinstance(logp, (int, float)):
            raise ScoreFileError(path, number, f"'logp' is not a number: {logp!r}")
        if not _fits_float(logp):
            raise ScoreFileError(path, number, _TOO_LARGE.format("logp"))
        if not math.isfinite(logp):
            raise ScoreFileError(path, number, f"'logp' is not finite: {logp!r}")
        scores[canonicalize_nl(row["nl"])] = float(logp)
    return scores


_TOO_LARGE = "'{}' is an integer too large for a float"


def _fits_float(value) -> bool:
    """Whether the int or float `value` converts to a float without overflow."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def save_score_file(path, scores: Dict[str, float]) -> None:
    lines = [
        json.dumps({"nl": nl, "logp": logp}) for nl, logp in scores.items()
    ]
    Path(path).write_text("\n".join(lines) + "\n")

"""Readers and writers for the on-disk data formats.

A reader refuses a file it cannot use as InputFileError, whose text
reads "<kind> file <path>, <where>: <fault>"; <where> is a line, a batch
or a trial, each counted from 1 over the whole file, or the file's top
level. Integers and finite numbers are checked by `types.check_integer`
and `types.check_finite_number`: a bool is neither, and 10**300 loads
as written but a 400-digit integer does not. An integer of more
digits than Python converts (4300 by default), in JSON or a judgments
cell, is refused as such (`_digit_limit`), not as a parse failure.

Hypothesis pool ("pool"): JSON Lines, one object per line:
    {"nl": str, "dsl": str, "logq": finite number|null, "batch": int|null}
`logq` and `batch` may be left out, as null, and `dsl` too, as "" (a
rule that does not parse). A rule whose DSL does not parse is kept as
Unparsed (`parse_program`, which translation uses too). A pool file
that holds no hypotheses, where one is needed, is refused as EmptyPool.

Score file ("score"): JSON Lines {"nl": str, "logp": finite number};
logp is kept as a float.

Number judgments ("judgments"): CSV with header
set_id,examples,test_number,mean_rating, where examples is a
';'-separated list of integers in 1..100, test_number is an integer in
1..100 and mean_rating is a finite raw mean in [1, 7] (normalized to
[0, 1] at load). A fault names its line; a file with no judgment row is
refused at its top level.

Learning curve ("curve"): a JSON object with the string concept_id and
ground_truth_nl, batches (lists of 1..5 {"shape", "color", "size",
"label"} objects, where shape, color and size are ones `types` knows
and label is 0 or 1) and human_positive_rate, one finite rate in [0, 1]
per trial of the file. A fault names its batch or trial, counted over
the whole file; batches past the 15th are dropped after the checks.
"""

from __future__ import annotations

import csv
import json
import re
import sys
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
    check_finite_number,
    check_integer,
    normalize_rating,
)


class EmptyPool(ValueError):
    """A pool file with no hypothesis in it; the one argument is its path."""

    def __str__(self):
        return f"pool file {self.args[0]} holds no hypotheses"


class InputFileError(ValueError):
    """A file the program cannot use; the arguments are its kind ("pool",
    "score", "judgments" or "curve"), its path, where the fault is
    ("line 3", "batch 2", "trial 7" or "top level") and the fault."""

    def __str__(self):
        return "{} file {}, {}: {}".format(*self.args)


def _read_jsonl(kind: str, path, read_row) -> list:
    """`read_row` of the JSON object on each non-blank line, in order; a
    line holding none, or a row `read_row` refuses with a ValueError, is
    an InputFileError naming the line."""
    out = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(read_row(_json_object(line)))
        except ValueError as exc:
            raise InputFileError(kind, path, f"line {number}", str(exc)) from None
    return out


def _digit_limit() -> ValueError:
    """The fault of an integer of more digits than int() converts."""
    return ValueError(f"an integer of more than {sys.get_int_max_str_digits()} digits")


def _json_object(text: str) -> dict:
    """The JSON object `text` holds; a ValueError if it holds none."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    except ValueError:  # valid JSON, but an integer past int()'s digit limit
        raise _digit_limit() from None
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return data


def load_pool(path, domain: str) -> List[Hypothesis]:
    """Load a hypothesis pool, parsing each distinct DSL source once per
    call: rows with equal `dsl` share one program, and so its memoized
    number extension. Each row's text is canonicalized once, by the
    `Hypothesis` it builds; a row whose text is not canonical (a pool
    `save_pool` did not write) is built again from its key.

    Rules that fail to parse are kept as Unparsed so the pool size still
    matches the proposal budget.
    """
    programs = {}  # DSL source -> ConceptProgram or Unparsed

    def hypothesis(row) -> Hypothesis:
        nl, src, logq, batch = row.get("nl"), row.get("dsl", ""), row.get("logq"), row.get("batch")
        if not isinstance(nl, str):
            raise ValueError("no string 'nl'")
        if not isinstance(src, str):
            raise ValueError(f"'dsl' is not a string: {src!r}")
        if logq is not None:
            check_finite_number("'logq'", logq)
        if batch is not None:
            check_integer("'batch'", batch)
        if src not in programs:
            programs[src] = parse_program(src, domain)
        h = Hypothesis(nl, programs[src], logq, batch)
        return h if h.nl_text == h.key else replace(h, nl_text=h.key)

    return _read_jsonl("pool", path, hypothesis)


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


JUDGMENT_COLUMNS = ("set_id", "examples", "test_number", "mean_rating")


def load_number_judgments(path) -> List[HumanNumberJudgment]:
    out = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            try:
                out.append(_judgment(row))
            except ValueError as exc:
                raise InputFileError("judgments", path, f"line {reader.line_num}", str(exc)) from None
    if not out:
        raise InputFileError("judgments", path, "top level", "no judgments")
    return out


def _judgment(row: dict) -> HumanNumberJudgment:
    """The judgment of one judgments CSV row; a ValueError at a fault."""
    for column in JUDGMENT_COLUMNS:
        if row.get(column) is None:
            raise ValueError(f"no {column!r}")
    rating = check_finite_number("'mean_rating'", _converted(float, row["mean_rating"]))
    if not 1.0 <= rating <= 7.0:
        raise ValueError(f"'mean_rating' must lie in [1, 7], not {rating!r}")
    return HumanNumberJudgment(
        example_set=NumberExampleSet(
            [check_integer("'examples'", _converted(int, x)) for x in row["examples"].split(";")]
        ),
        test_number=check_integer("'test_number'", _converted(int, row["test_number"])),
        mean_rating=normalize_rating(rating),
        set_id=row["set_id"],
    )


def _converted(convert, text: str):
    """`convert(text)`, or `text` itself if it does not convert, so that
    the check it is passed to refuses it; an integer int() refuses only
    for its length is refused as such."""
    try:
        return convert(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise _digit_limit() from None
        return text


def save_number_judgments(path, judgments: List[HumanNumberJudgment]) -> None:
    """Inverse of load_number_judgments; ratings are written back on the
    raw 1-7 scale."""
    rows = (
        [j.set_id, ";".join(map(str, j.example_set.examples)), j.test_number, f"{j.mean_rating * 6.0 + 1.0:.6f}"]
        for j in judgments
    )
    write_csv(path, JUDGMENT_COLUMNS, rows)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file of the header row, then `rows`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def load_learning_curve(path) -> LearningCurve:
    where = "top level"  # the part of the file being read, named on a fault
    try:
        data = _json_object(Path(path).read_text())
        for key in ("concept_id", "ground_truth_nl"):
            if not isinstance(data.get(key), str):
                raise ValueError(f"no string {key!r}")
        for key in ("batches", "human_positive_rate"):
            if not isinstance(data.get(key), list):
                raise ValueError(f"no list {key!r}")
        batches, k = [], 0
        for b, raw_batch in enumerate(data["batches"], start=1):
            where = f"batch {b}"
            if not isinstance(raw_batch, list) or not 1 <= len(raw_batch) <= 5:
                raise ValueError("not a list of 1..5 objects")
            labelled = []
            for k, raw in enumerate(raw_batch, start=k + 1):
                where = f"trial {k}"
                labelled.append(_curve_object(raw))
            objects = [obj for obj, _ in labelled]
            batches.append([Trial(objects, obj, label) for obj, label in labelled])
        where, rates = "top level", data["human_positive_rate"]
        if len(rates) != k:
            raise ValueError(f"{len(rates)} human rates for {k} trials")
        for k, rate in enumerate(rates, start=1):
            where = f"trial {k}"
            if not 0.0 <= check_finite_number("human rate", rate) <= 1.0:
                raise ValueError(f"human rate must lie in [0, 1], not {rate!r}")
        return LearningCurve(data["concept_id"], data["ground_truth_nl"], batches, rates)
    except ValueError as exc:
        raise InputFileError("curve", path, where, str(exc)) from None


def _curve_object(raw):
    """(ShapeObject, label) of one object of a curve's batch; a
    ValueError at a fault."""
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")
    for key in ("shape", "color", "size", "label"):
        if key not in raw:
            raise ValueError(f"no {key!r}")
    if check_integer("'label'", raw["label"]) not in (0, 1):
        raise ValueError(f"'label' must be 0 or 1, not {raw['label']!r}")
    return ShapeObject(raw["shape"], raw["color"], raw["size"]), bool(raw["label"])


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
    """The external prior's log-prior of each canonical NL text."""
    return dict(_read_jsonl("score", path, _score))


def _score(row: dict):
    """(canonical NL, log-prior) of one score file row; a ValueError at a
    fault."""
    if not isinstance(row.get("nl"), str):
        raise ValueError("no string 'nl'")
    if "logp" not in row:
        raise ValueError("no 'logp'")
    return canonicalize_nl(row["nl"]), float(check_finite_number("'logp'", row["logp"]))


def save_score_file(path, scores: Dict[str, float]) -> None:
    lines = [
        json.dumps({"nl": nl, "logp": logp}) for nl, logp in scores.items()
    ]
    Path(path).write_text("\n".join(lines) + "\n")

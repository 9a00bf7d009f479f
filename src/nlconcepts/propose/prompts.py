"""What each proposal request kind means, decided in one place: its
prompt (`build_prompt`), its sampling parameters (`request_params`),
how its completions read back as rules (`completion_rules`), and the
batch its rules join the posterior at (`ProposalRequest.source_batch`).
A backend only fetches completions and wraps the rules as hypotheses.

Templates are instantiated byte-exactly: golden-file tests pin their
rendered form. Example serialization conventions:

  * number domain: examples joined with ", "
  * first-order shape domain: one indented block per batch listing
    POSITIVES / NEGATIVES as "(size color shape)" descriptions
  * propositional shape domain: one table per batch with a column per
    feature plus the label
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..types import SIZE_NAMES, NumberExampleSet, Trial, canonicalize_nl, check_integer

NUMBER = "number"
SHAPE_PROPOSITIONAL = "shape_propositional"
SHAPE_FIRST_ORDER = "shape_first_order"
SHAPE_FIRST_BATCH = "shape_first_batch"
ABLATION = "ablation_unconditioned"

DOMAINS = (NUMBER, SHAPE_PROPOSITIONAL, SHAPE_FIRST_ORDER, SHAPE_FIRST_BATCH, ABLATION)

RULES_PER_LIST = 10  # the rules one first-order completion is asked for

# the words every rule of a domain starts with
NUMBER_RULE_PREFIX = "the number is"
SHAPE_RULE_PREFIX = "something is positive if"


class TemplateMismatch(KeyError):
    pass


@dataclass(frozen=True)
class ProposalRequest:
    domain: str
    examples: object  # NumberExampleSet | list of batches of Trial | None
    budget: int
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise TemplateMismatch(f"unknown domain {self.domain!r}")
        check_integer("budget", self.budget, 1)

    @property
    def source_batch(self) -> Optional[int]:
        """The batch a shape proposal's rules join the posterior at, the
        one after the batches its prompt shows; None for numbers."""
        if self.domain in (SHAPE_FIRST_ORDER, SHAPE_PROPOSITIONAL):
            return len(self.examples) + 1
        return 1 if self.domain == SHAPE_FIRST_BATCH else None


NUMBER_TEMPLATE = """\
# Python 3
# Here are a few example number concepts:
# -- The number is even
# -- The number is between 30 and 45
# -- The number is a power of 3
# -- The number is less than 10
#
# Here are some random examples of numbers belonging to a different number concept:
# {examples}
# The above are examples of the following number concept:
# -- The number is """

ABLATION_TEMPLATE = """\
# Python 3
# Here are a few example number concepts:
# -- The number is even
# -- The number is between 30 and 45
# -- The number is a power of 3
# -- The number is less than 10
# -- The number is """

FIRST_ORDER_TEMPLATE = """\
Here three simple concepts, which specify when an object is 'positive' relative to an example collection of other objects. Before giving the rule for each concept, we give examples of collections of objects, and which objects in the collection are 'positive'.

Concept #1:
    An Example of Concept #1:
        POSITIVES: (big yellow rectangle)
        NEGATIVES: (big green circle), (medium yellow rectangle)
    Another Example of Concept #1:
        POSITIVES: (medium yellow rectangle)
        NEGATIVES: (big red circle), (small green circle)
Rule for Concept #1: Something is positive if it is the biggest yellow object in the example.


Concept #2:
    An Example of Concept #2:
        POSITIVES: (small yellow circle), (medium yellow rectangle)
        NEGATIVES: (big green circle), (big blue rectangle)
    Another Example of Concept #2:
        POSITIVES: (big blue circle), (medium blue rectangle)
        NEGATIVES: (small green circle), (medium yellow rectangle),
Rule for Concept #2: Something is positive if there is another object with the same color in the example.

Concept #3:
    An Example of Concept #3:
        POSITIVES: (small yellow circle), (medium yellow rectangle)
        NEGATIVES: (big green circle), (big blue rectangle)
    Another Example of Concept #3:
        POSITIVES: (small blue circle), (small blue triangle), (medium blue rectangle)
        NEGATIVES: (medium green triangle), (big yellow rectangle)
    Another Example of Concept #3:
        POSITIVES: (big red rectangle), (medium red rectangle), (big red triangle)
        NEGATIVES: (medium green triangle), (big yellow rectangle)
Rule for Concept #3: Something is positive if it is the same color as the smallest triangle in the example.

Now here are some examples of another concept called Concept #4, but this time we don't know the rule. Infer ten different possible rules, and make those ten rules as simple and general as you can. Your simple general rules might talk about shapes, colors, and sizes, and might make comparisons between these features within a single example, but it doesn't have to. Remember that a rule should say when something is positive, and should mention the other objects in the example, and should be consisting with what you see below.

Concept #4:
{examples}
Rule for Concept #4: Something is positive if...

Now make a numbered list of 10 possible rules for Concept #4. Start by writing "1. Something is positive if". End each line with a period.\
"""

PROPOSITIONAL_TEMPLATE = """\
Here are some example concepts defined by a logical rule:

Rule: a triangle.
Rule: a green rectangle.
Rule: big or a rectangle (unless that rectangle is blue).
Rule: not both big and green.
Rule: either big or green, but not both.
Rule: either a rectangle or not yellow.
Rule: a circle.


Now please produce a logical rule for a new concept. Your rule should be consistent with the following examples. It must be true of all the positive examples, and not true of all the negative examples. The examples are organized into a table with one column for each feature (size, color, shape):

{examples}

Please produce a simple rule that is consistent with the above table. Make your rule as SHORT, SIMPLE, and GENERAL as possible. Do NOT make it more complicated than it has to be, or refer to features that you absolutely do not have to refer to. Begin by writing "Rule: " and then the rule, followed by a period.\
"""

FIRST_BATCH_TEMPLATE = """\
Here are some example concepts defined by a logical rule:

Rule: color is purple.
Rule: shape is not a hexagon.
Rule: color is purple and size is small.
Rule: size is tiny or shape is square.
Rule: size is not enormous.
Rule: color is red.

Please propose a some new concepts, defined by a logical rule. These new concepts can only refer to the following features:
- shape: triangle, rectangle, circle
- color: green, blue, yellow
- size: small, medium, large

Please make your rules short and simple, and please write your response on a single line that begins with the text "Rule: ". Provide 100 possible rules.\
"""


def split_template(template: str, field: str) -> Tuple[str, str]:
    """(before, after) its one `{field}`, unescaped: before + value +
    after is `template.format(field=value)`, without parsing it again."""
    before, after = template.replace("{{", "{").replace("}}", "}").split("{" + field + "}")
    return before, after


_NUMBER_PARTS = split_template(NUMBER_TEMPLATE, "examples")
_FIRST_ORDER_PARTS = split_template(FIRST_ORDER_TEMPLATE, "examples")
_PROPOSITIONAL_PARTS = split_template(PROPOSITIONAL_TEMPLATE, "examples")


def serialize_numbers(examples: NumberExampleSet) -> str:
    return ", ".join(str(x) for x in examples.examples)


def _describe_group(trials: Sequence[Trial], label: bool) -> str:
    picked = [t.test.describe() for t in trials if t.label == label]
    if not picked:
        return "none"
    return ", ".join(f"({d})" for d in picked)


def serialize_shape_batches(batches: Sequence[Sequence[Trial]]) -> str:
    """POSITIVES/NEGATIVES blocks, one per observed batch."""
    blocks = []
    for i, batch in enumerate(batches):
        heading = "An Example" if i == 0 else "Another Example"
        blocks.append(
            f"    {heading} of Concept #4:\n"
            f"        POSITIVES: {_describe_group(batch, True)}\n"
            f"        NEGATIVES: {_describe_group(batch, False)}"
        )
    return "\n".join(blocks)


def serialize_truth_tables(batches: Sequence[Sequence[Trial]]) -> str:
    tables = []
    for batch in batches:
        rows = ["size | color | shape | positive"]
        for t in batch:
            rows.append(
                f"{SIZE_NAMES[t.test.size]} | {t.test.color} | {t.test.shape} | "
                f"{'yes' if t.label else 'no'}"
            )
        tables.append("\n".join(rows))
    return "\n\n".join(tables)


def build_prompt(req: ProposalRequest) -> str:
    if req.domain == NUMBER:
        return _NUMBER_PARTS[0] + serialize_numbers(req.examples) + _NUMBER_PARTS[1]
    if req.domain == ABLATION:
        return ABLATION_TEMPLATE
    if req.domain == SHAPE_FIRST_ORDER:
        return _FIRST_ORDER_PARTS[0] + serialize_shape_batches(req.examples) + _FIRST_ORDER_PARTS[1]
    if req.domain == SHAPE_PROPOSITIONAL:
        return _PROPOSITIONAL_PARTS[0] + serialize_truth_tables(req.examples) + _PROPOSITIONAL_PARTS[1]
    return FIRST_BATCH_TEMPLATE


def request_params(req: ProposalRequest) -> Dict:
    """The sampling parameters of a request, part of its replay key."""
    if req.domain in (NUMBER, ABLATION):
        return {
            "temperature": req.temperature,
            "n": req.budget,
            "max_tokens": 64,
            "stop": "\n",
            "logprobs": True,
            "seed": req.seed,
        }
    if req.domain == SHAPE_FIRST_ORDER:
        n_lists = math.ceil(req.budget / RULES_PER_LIST)
        return {"temperature": req.temperature, "n": n_lists, "seed": req.seed}
    if req.domain == SHAPE_PROPOSITIONAL:
        return {"temperature": req.temperature, "n": req.budget, "seed": req.seed}
    # first batch: deterministic single completion listing many rules
    return {"temperature": 0.0, "n": 1, "seed": req.seed}


def completion_rules(req: ProposalRequest, completions: Sequence[Dict]) -> List[Tuple[str, Optional[float]]]:
    """The first req.budget rules a request's completions propose, as
    (canonical NL, proposal log-prob) pairs: a number completion's first
    line unless blank, with its log-prob; the first-order lists taken
    round robin; the first rule of each propositional completion that
    holds one; the rules of the one first-batch completion. Shape rules
    carry no log-prob."""
    if req.domain in (NUMBER, ABLATION):
        lines = [(c["text"].splitlines() or [""])[0] for c in completions]
        rules = [(f"{NUMBER_RULE_PREFIX} {s}", c.get("logprob")) for s, c in zip(lines, completions) if s.strip()]
    elif req.domain == SHAPE_FIRST_ORDER:
        lists = [parse_rule_list(c["text"]) for c in completions]
        taken = round_robin_take(lists, req.budget)
        rules = [(f"{SHAPE_RULE_PREFIX} {strip_prefix(rule, SHAPE_RULE_PREFIX)}", None) for rule in taken]
    else:
        if req.domain == SHAPE_PROPOSITIONAL:
            taken = [rule for c in completions for rule in parse_rule_lines(c["text"])[:1]]
        else:  # first batch
            taken = parse_rule_lines(completions[0]["text"])
        rules = [(f"{SHAPE_RULE_PREFIX} it is {rule}", None) for rule in taken]
    return [(canonicalize_nl(nl), logq) for nl, logq in rules[: req.budget]]


def strip_prefix(text: str, prefix: str) -> str:
    """`text` after a leading lower-case `prefix`, matched
    case-insensitively and stripped; `text` itself without it."""
    if text.lower().startswith(prefix):
        return text[len(prefix):].strip()
    return text


_NUMBERED = re.compile(r"^\s*\d+\.\s*(.+?)\s*$")


def parse_rule_list(completion: str) -> List[str]:
    """Extract `<int>. <text>` lines, in order, dropping the numbering
    and one trailing period."""
    rules = []
    for line in completion.splitlines():
        m = _NUMBERED.match(line)
        if m:
            text = m.group(1)
            if text.endswith("."):
                text = text[:-1]
            rules.append(text)
    return rules


def parse_rule_lines(completion: str) -> List[str]:
    """Extract `Rule: ...` lines (first-batch prompt format)."""
    rules = []
    for line in completion.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("rule:"):
            text = stripped[5:].strip()
            if text.endswith("."):
                text = text[:-1]
            if text:
                rules.append(text)
    return rules


def round_robin_take(lists: Sequence[Sequence[str]], n: int) -> List[str]:
    """Interleave lists[0][0], lists[1][0], ..., skipping exhausted
    lists, up to n items."""
    out: List[str] = []
    depth = 0
    while len(out) < n:
        row = [lst[depth] for lst in lists if depth < len(lst)]
        if not row:
            break
        out.extend(row[: n - len(out)])
        depth += 1
    return out

"""Proposal providers: static pools and the replay-store LM backend;
NL-to-DSL translation and external prior scoring.

A backend turns a ProposalRequest into a list of Hypothesis values.
What a request kind means (its prompt, sampling parameters and how its
completions read back as rules) is decided in prompts.py; the replay
backend only fetches the completions and wraps the rules. Every LM
request (proposal, translation, prior score) goes through
ReplayBackend.completions, which answers from the replay store. Only a
miss on a backend given a ChatClient reaches the API, and that response
is recorded before use, so a run without a client replays it bitwise.
Freshly proposed hypotheses carry no program yet; translate_nl_to_dsl
compiles them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .. import io
from ..dsl import NUMBER as NUMBER_DOMAIN
from ..dsl import SHAPE as SHAPE_DOMAIN
from ..io import EmptyPool
from ..types import Hypothesis, Unparsed, canonicalize_nl
from .client import ChatClient, MissingLogprobSupport
from .prompts import (
    NUMBER_RULE_PREFIX,
    SHAPE_RULE_PREFIX,
    ProposalRequest,
    build_prompt,
    completion_rules,
    request_params,
    strip_prefix,
)
from .replay import ReplayStore


class StaticPoolBackend:
    """Serves the prefix of a fixed hypothesis file, in file order."""

    def __init__(self, path, domain: str):
        self.pool = io.load_pool(path, domain)
        if not self.pool:
            raise EmptyPool(path)

    def propose(self, req: ProposalRequest) -> List[Hypothesis]:
        return list(self.pool[: req.budget])


class ReplayBackend:
    """Answers every LM request through the replay store.

    Without a client a miss raises ReplayMiss. With one, a miss goes to
    the API (a log-prob request when params["mode"] is "score", a chat
    completion otherwise), the response is recorded, and what the store
    then holds is returned: when another writer recorded the request
    first, its completions win, so every run sees what a later
    client-less run on the same store replays. Each call encodes and
    keys its request once.
    """

    def __init__(self, store: ReplayStore, client: Optional[ChatClient] = None):
        self.store = store
        self.client = client

    def completions(self, prompt: str, params: Dict) -> List[Dict]:
        if self.client is None:
            return self.store.lookup(prompt, params)
        return self.store.get_or_record(prompt, params, lambda: self._ask(prompt, params))

    def _ask(self, prompt: str, params: Dict) -> List[Dict]:
        if params.get("mode") == "score":
            logprob = self.client.score(params["prefix"], params["continuation"])
            return [{"text": params["continuation"], "logprob": logprob}]
        return self.client.complete(prompt, params)

    def propose(self, req: ProposalRequest) -> List[Hypothesis]:
        completions = self.completions(build_prompt(req), request_params(req))
        return [
            Hypothesis(nl, Unparsed(""), proposal_logprob=logq, source_batch=req.source_batch)
            for nl, logq in completion_rules(req, completions)
        ]


def propose(req: ProposalRequest, backend) -> List[Hypothesis]:
    """Draw up to req.budget hypotheses from the configured backend."""
    return backend.propose(req)


# ---------------------------------------------------------------------------
# NL -> DSL translation

NUMBER_TRANSLATION_TEMPLATE = """\
Translate each rule into the number concept language.
The language has: the variable x; integers; arithmetic + - * mod ^;
comparisons < <= == != >= >; the predicates even(x), odd(x), prime(x),
square(x), cube(x), power(b, x), multiple(k, x), between(lo, hi, x),
ends_in(d, x), contains_digit(d, x), in_set({{a, b, c}}, x); and the
connectives and, or, not. Answer with a single line of code.

Rule: the number is even
Program: even(x)

Rule: the number is between 30 and 45
Program: between(30, 45, x)

Rule: the number is a power of 3
Program: power(3, x)

Rule: the number is less than 10
Program: x < 10

Rule: {nl}
Program:"""

SHAPE_TRANSLATION_TEMPLATE = """\
Translate each rule into the shape concept language.
Objects have fields .shape (triangle, rectangle, circle), .color (green,
yellow, blue), and .size (1 small, 2 medium, 3 large). `this` is the
object being classified; `others` is every other object in the example;
`all` is every object including `this`. Available constructs:
forall(v in S, P), exists(v in S, P), count(v in S, P), comparisons,
and the connectives and, or, not, where S is one of others, all,
colors, shapes, sizes. Answer with a single line of code.

Rule: something is positive if it is a green triangle
Program: this.color == green and this.shape == triangle

Rule: something is positive if there is another object with the same color
Program: exists(o in others, o.color == this.color)

Rule: something is positive if it is one of the largest
Program: forall(o in all, this.size >= o.size)

Rule: something is positive if it has the majority color
Program: forall(c in colors, count(o in all, o.color == this.color) >= count(o in all, o.color == c))

Rule: {nl}
Program:"""


# translation is deterministic: one greedy line per rule
TRANSLATION_PARAMS = {"temperature": 0.0, "n": 1, "max_tokens": 128, "stop": "\n"}


def translation_prompt(nl: str, domain: str) -> str:
    nl = canonicalize_nl(nl)
    if domain == NUMBER_DOMAIN:
        return NUMBER_TRANSLATION_TEMPLATE.format(nl=nl)
    if domain == SHAPE_DOMAIN:
        return SHAPE_TRANSLATION_TEMPLATE.format(nl=nl)
    raise ValueError(f"unknown domain {domain!r}")


def translate_nl_to_dsl(nl: str, domain: str, backend) -> object:
    """Deterministic (temperature 0) NL-to-program translation: the
    first line of the answer, read as a pool's DSL is (`io.parse_program`),
    so a parse failure yields an Unparsed program, not an error.
    """
    prompt = translation_prompt(nl, domain)
    text = backend.completions(prompt, TRANSLATION_PARAMS)[0]["text"].strip()
    return io.parse_program(text.splitlines()[0].strip() if text else "", domain)


def translate_pool(pool: Sequence[Hypothesis], domain: str, backend) -> List[Hypothesis]:
    return [replace(h, program=translate_nl_to_dsl(h.nl_text, domain, backend)) for h in pool]


# ---------------------------------------------------------------------------
# External prior scoring

NUMBER_SCORE_PREFIX = "# Here is an example number concept:\n# The number is "

SHAPE_SCORE_PREFIX = """\
# Here are some simple example shape concepts:
# 1. neither a triangle nor a green rectangle
# 2. not blue and large.
# 3. if it is large, then it must be yellow.
# 4. small and blue
# 5. either big or green.
# 6. """


def score_prompt(nl: str, domain: str):
    """(prefix, continuation) pair whose continuation gets scored."""
    nl = canonicalize_nl(nl)
    if domain == NUMBER_DOMAIN:
        return NUMBER_SCORE_PREFIX, strip_prefix(nl, NUMBER_RULE_PREFIX)
    return SHAPE_SCORE_PREFIX, strip_prefix(nl, SHAPE_RULE_PREFIX)


def score_nl_prior(nl_list: Sequence[str], domain: str, backend) -> Dict[str, float]:
    """Score each concept's log-likelihood under the external LM.

    Returns canonical NL -> log-probability, one entry per input.
    """
    scores: Dict[str, float] = {}
    for nl in nl_list:
        key = canonicalize_nl(nl)
        if key in scores:
            continue
        prefix, continuation = score_prompt(key, domain)
        params = {
            "mode": "score",
            "prefix": prefix,
            "continuation": continuation,
            "temperature": 0.0,
            "n": 1,
        }
        logprob = backend.completions(prefix + continuation, params)[0]["logprob"]
        if logprob is None:
            raise MissingLogprobSupport(f"recorded score for {key!r} carries no log-prob")
        scores[key] = logprob
    return scores

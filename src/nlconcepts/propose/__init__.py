"""Proposal distributions q(C|X): prompting, backends, replay."""

from .backends import (
    EmptyPool,
    ReplayBackend,
    StaticPoolBackend,
    propose,
    score_nl_prior,
    translate_nl_to_dsl,
    translate_pool,
    translation_prompt,
)
from .client import API_KEY_VAR, BackendUnavailable, ChatClient, MissingLogprobSupport
from .prompts import (
    ABLATION,
    DOMAINS,
    NUMBER,
    SHAPE_FIRST_BATCH,
    SHAPE_FIRST_ORDER,
    SHAPE_PROPOSITIONAL,
    ProposalRequest,
    TemplateMismatch,
    build_prompt,
    parse_rule_lines,
    parse_rule_list,
    round_robin_take,
)
from .replay import CorruptEntry, ReplayMiss, ReplayStore, fingerprint

__all__ = [
    "ABLATION",
    "API_KEY_VAR",
    "BackendUnavailable",
    "ChatClient",
    "CorruptEntry",
    "DOMAINS",
    "EmptyPool",
    "MissingLogprobSupport",
    "NUMBER",
    "ProposalRequest",
    "ReplayBackend",
    "ReplayMiss",
    "ReplayStore",
    "SHAPE_FIRST_BATCH",
    "SHAPE_FIRST_ORDER",
    "SHAPE_PROPOSITIONAL",
    "StaticPoolBackend",
    "TemplateMismatch",
    "build_prompt",
    "fingerprint",
    "parse_rule_lines",
    "parse_rule_list",
    "propose",
    "round_robin_take",
    "score_nl_prior",
    "translate_nl_to_dsl",
    "translate_pool",
    "translation_prompt",
]

"""The two concept languages: parsing, evaluation, formatting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .number import (
    DslSyntaxError,
    eval_number,
    format_number_concept,
    number_extension,
    parse_number_concept,
)
from .shape import eval_shape, format_shape_concept, parse_shape_concept

NUMBER = "number"
SHAPE = "shape"


class DomainMismatch(TypeError):
    """A program was used in the wrong experimental domain."""


@dataclass(frozen=True)
class ConceptProgram:
    """A parsed rule tagged with the domain it belongs to. A number
    concept memoizes its extension; a shape rule keeps nothing, since
    `shape.truth_values` evaluates it on a curve's trials directly."""

    domain: str  # NUMBER or SHAPE
    expr: object

    def __post_init__(self):
        if self.domain not in (NUMBER, SHAPE):
            raise ValueError(f"unknown domain {self.domain!r}")

    @cached_property
    def extension(self) -> frozenset:
        """The number concept's extension over 1..100, computed once
        (`number.number_extension`)."""
        if self.domain != NUMBER:
            raise DomainMismatch(f"only number concepts have an extension, not {self.domain}")
        return number_extension(self.expr)


def parse_concept(src: str, domain: str) -> ConceptProgram:
    if domain == NUMBER:
        return ConceptProgram(NUMBER, parse_number_concept(src))
    if domain == SHAPE:
        return ConceptProgram(SHAPE, parse_shape_concept(src))
    raise ValueError(f"unknown domain {domain!r}")


def format_concept(program: ConceptProgram) -> str:
    if program.domain == NUMBER:
        return format_number_concept(program.expr)
    return format_shape_concept(program.expr)


__all__ = [
    "NUMBER",
    "SHAPE",
    "ConceptProgram",
    "DomainMismatch",
    "DslSyntaxError",
    "eval_number",
    "eval_shape",
    "format_concept",
    "format_number_concept",
    "format_shape_concept",
    "number_extension",
    "parse_concept",
    "parse_number_concept",
    "parse_shape_concept",
]

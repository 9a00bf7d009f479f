"""The two concept languages: parsing, evaluation, formatting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .number import (
    DslSyntaxError,
    extension_values,
    format_number_concept,
    parse_number_concept,
)
from .shape import format_shape_concept, parse_shape_concept

NUMBER = "number"
SHAPE = "shape"


class DomainMismatch(TypeError):
    """A program was used in the wrong experimental domain."""


@dataclass(frozen=True)
class ConceptProgram:
    """A parsed rule tagged with the domain it belongs to. A number
    concept memoizes its truth row over 1..100, compiled by one array
    walk of its tree (`number.extension_values`), and derives its
    extension from that row; a shape rule keeps nothing, since
    `shape.truth_values` evaluates it on a curve's trials directly."""

    domain: str  # NUMBER or SHAPE
    expr: object

    def __post_init__(self):
        if self.domain not in (NUMBER, SHAPE):
            raise ValueError(f"unknown domain {self.domain!r}")

    @cached_property
    def extension_values(self) -> np.ndarray:
        """The number concept's (100,) truth row, entry x - 1 for number
        x, computed once and read-only (`number.extension_values`)."""
        if self.domain != NUMBER:
            raise DomainMismatch(f"only number concepts have an extension, not {self.domain}")
        row = extension_values(self.expr)
        row.flags.writeable = False
        return row

    def __setstate__(self, state):
        """Unpickle, keeping a memoized row read-only (numpy does not
        pickle the flag)."""
        vars(self).update(state)
        if "extension_values" in state:
            state["extension_values"].flags.writeable = False

    @property
    def extension(self) -> frozenset:
        """The number concept's extension over 1..100, read off its row."""
        return frozenset((np.flatnonzero(self.extension_values) + 1).tolist())


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
    "extension_values",
    "format_concept",
    "format_number_concept",
    "format_shape_concept",
    "parse_concept",
    "parse_number_concept",
    "parse_shape_concept",
]
